#include "grist/dycore/vertical_remap.hpp"

#include <algorithm>
#include <cmath>

#include "grist/common/math.hpp"
#include "grist/common/workspace.hpp"

namespace grist::dycore {

using namespace constants;

namespace {

// First-order conservative remap of one mass-weighted scalar: values[k] are
// layer means on old interfaces pi_old; result on new interfaces pi_new,
// which increase with j. Each target starts at the first old layer that
// can overlap it: a layer skipped here has pi_old[k + 1] <= lo and
// pi_old[k] < hi for this and every later target, so it adds nothing and
// does not stop the sum, and every target adds the same terms in the same
// order as a sweep from k = 0.
void remapScalar(int nlev, const double* pi_old, const double* pi_new,
                 const double* values, double* out) {
  int k0 = 0;
  for (int j = 0; j < nlev; ++j) {
    const double lo = pi_new[j], hi = pi_new[j + 1];
    while (k0 + 1 < nlev && pi_old[k0 + 1] <= lo && pi_old[k0] < hi) ++k0;
    double mass = 0.0;
    for (int k = k0; k < nlev; ++k) {
      const double olo = pi_old[k], ohi = pi_old[k + 1];
      const double overlap = std::min(hi, ohi) - std::max(lo, olo);
      if (overlap > 0) mass += overlap * values[k];
      if (olo >= hi) break;
    }
    out[j] = mass / (hi - lo);
  }
}

} // namespace

void verticalRemap(Index ncells, int nlev, double ptop, State& state) {
  using common::Workspace;
  const int ntracers = static_cast<int>(state.tracers.size());
#pragma omp parallel
  {
  // Per-column temporaries (3x nlev+1 interfaces, 2x nlev layers) come from
  // the thread's arena -- no per-cell heap allocation in the hot loop.
  Workspace& ws = Workspace::threadLocal();
  ws.reserve(3 * Workspace::bytesFor<double>(nlev + 1) +
             2 * Workspace::bytesFor<double>(nlev));
#pragma omp for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    const Workspace::Frame frame(ws);
    // Old and new (uniform) interface mass coordinates.
    double* pi_old = ws.get<double>(nlev + 1);
    double* pi_new = ws.get<double>(nlev + 1);
    pi_old[0] = pi_new[0] = ptop;
    for (int k = 0; k < nlev; ++k) pi_old[k + 1] = pi_old[k] + state.delp(c, k);
    const double ps = pi_old[nlev];
    const double dpi = (ps - ptop) / nlev;
    for (int k = 0; k < nlev; ++k) pi_new[k + 1] = ptop + (k + 1) * dpi;

    // Skip columns already on (numerically) uniform levels.
    double drift = 0.0;
    for (int k = 0; k <= nlev; ++k) drift = std::max(drift, std::abs(pi_old[k] - pi_new[k]));
    if (drift < 1e-7 * ps) continue;

    double* column = ws.get<double>(nlev);
    double* remapped = ws.get<double>(nlev);
    const auto remap_field = [&](parallel::Field& f) {
      for (int k = 0; k < nlev; ++k) column[k] = f(c, k);
      remapScalar(nlev, pi_old, pi_new, column, remapped);
      for (int k = 0; k < nlev; ++k) f(c, k) = remapped[k];
    };
    remap_field(state.theta);
    for (int t = 0; t < ntracers; ++t) remap_field(state.tracers[t]);

    // w: linear interpolation of the interface profile in pi.
    double* w_old = ws.get<double>(nlev + 1);
    for (int k = 0; k <= nlev; ++k) w_old[k] = state.w(c, k);
    // Find the old interval containing each target; the targets increase
    // (the column mass is positive), so each search resumes where the
    // previous one stopped.
    int j = 1;
    for (int k = 1; k < nlev; ++k) {
      const double target = pi_new[k];
      while (j < nlev && pi_old[j] < target) ++j;
      const double t =
          (target - pi_old[j - 1]) / std::max(1e-12, pi_old[j] - pi_old[j - 1]);
      state.w(c, k) = (1.0 - t) * w_old[j - 1] + t * w_old[j];
    }

    // New uniform layer masses; hydrostatic phi rebuild (p = pi).
    for (int k = 0; k < nlev; ++k) state.delp(c, k) = dpi;
    for (int k = nlev - 1; k >= 0; --k) {
      const double pi_mid = ptop + (k + 0.5) * dpi;
      const double exner = std::pow(pi_mid / kP0, kKappa);
      const double alpha = kRd * state.theta(c, k) * exner / pi_mid;
      state.phi(c, k) = state.phi(c, k + 1) + alpha * dpi;
    }
  }
  } // omp parallel
}

} // namespace grist::dycore
