#include "grist/physics/pbl.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "grist/common/math.hpp"

namespace grist::physics {

using constants::kCp;
using constants::kGravity;
using constants::kLv;

namespace {

// Column scratch lives on the stack, so a warm physics step never touches
// the heap (ConventionalSuite enforces the same bound).
constexpr int kMaxLevels = 128;

// Implicit vertical diffusion of one scalar profile: solves
// (I - dt D) s^{+} = s + dt * f_surface, D in flux form on the height grid.
// rho dz per layer = delp / g. Returns tendencies into tend.
void diffuseColumn(int nlev, double dt, const double* k_int, const double* delp,
                   const double* zmid, const double* s, double surf_flux_term,
                   double* tend) {
  double lower[kMaxLevels], diag[kMaxLevels], upper[kMaxLevels], rhs[kMaxLevels];
  (void)delp;
  for (int k = 0; k < nlev; ++k) {
    double a = 0.0, c = 0.0;
    if (k > 0) {
      const double dz = zmid[k - 1] - zmid[k];
      a = dt * k_int[k] / (dz * dz);
    }
    if (k < nlev - 1) {
      const double dz = zmid[k] - zmid[k + 1];
      c = dt * k_int[k + 1] / (dz * dz);
    }
    lower[k] = -a;
    upper[k] = -c;
    diag[k] = 1.0 + a + c;
    rhs[k] = s[k];
  }
  // Surface flux forcing on the lowest layer.
  rhs[nlev - 1] += dt * surf_flux_term;
  // Thomas solve.
  for (int k = 1; k < nlev; ++k) {
    const double m = lower[k] / diag[k - 1];
    diag[k] -= m * upper[k - 1];
    rhs[k] -= m * rhs[k - 1];
  }
  double snew[kMaxLevels];
  snew[nlev - 1] = rhs[nlev - 1] / diag[nlev - 1];
  for (int k = nlev - 2; k >= 0; --k) {
    snew[k] = (rhs[k] - upper[k] * snew[k + 1]) / diag[k];
  }
  for (int k = 0; k < nlev; ++k) tend[k] += (snew[k] - s[k]) / dt;
}

} // namespace

void Pbl::run(const PhysicsInput& in, double dt, const std::vector<double>& shflx,
              const std::vector<double>& lhflx, PhysicsOutput& out) const {
  const int nlev = in.nlev;
  if (nlev > kMaxLevels) throw std::invalid_argument("Pbl: nlev > 128");
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < in.ncolumns; ++c) {
    // K profile: parabolic in the PBL, small aloft; enhanced when the
    // surface layer is unstably stratified.
    double k_int[kMaxLevels + 1];
    for (int k = 0; k <= nlev; ++k) k_int[k] = config_.k_free;
    const double unstable =
        in.tskin[c] > in.t(c, nlev - 1) ? 1.0 : 0.3;  // crude stability factor
    for (int k = 1; k < nlev; ++k) {
      const double z = in.zint(c, k);
      if (z < config_.pbl_depth) {
        const double zeta = z / config_.pbl_depth;
        k_int[k] += config_.k_max * unstable * zeta * (1.0 - zeta) * 4.0;
      }
    }

    const double mass_bot = in.delp(c, nlev - 1) / kGravity;  // kg/m^2
    double column[kMaxLevels], tend[kMaxLevels];
    const auto run_scalar = [&](auto getter, double surf_term, Field& out_tend,
                                auto putter) {
      for (int k = 0; k < nlev; ++k) {
        column[k] = getter(k);
        tend[k] = 0.0;
      }
      diffuseColumn(nlev, dt, k_int, &in.delp(c, 0), &in.zmid(c, 0), column,
                    surf_term, tend);
      for (int k = 0; k < nlev; ++k) out_tend(c, k) += putter(k, tend[k]);
    };
    // Heat mixes as POTENTIAL temperature (diffusing T directly would pump
    // heat down any lapse rate); the tendency converts back through Exner.
    run_scalar([&](int k) { return in.t(c, k) / in.exner(c, k); },
               shflx[c] / (kCp * mass_bot * in.exner(c, nlev - 1)), out.dtdt,
               [&](int k, double dtheta) { return dtheta * in.exner(c, k); });
    run_scalar([&](int k) { return in.qv(c, k); }, lhflx[c] / (kLv * mass_bot),
               out.dqvdt, [](int, double d) { return d; });
    run_scalar([&](int k) { return in.u(c, k); }, 0.0, out.dudt,
               [](int, double d) { return d; });
    run_scalar([&](int k) { return in.v(c, k); }, 0.0, out.dvdt,
               [](int, double d) { return d; });
  }
}

} // namespace grist::physics
