#include "grist/physics/convection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "grist/common/math.hpp"
#include "grist/physics/saturation.hpp"

namespace grist::physics {

using constants::kCp;
using constants::kGravity;
using constants::kLv;

namespace {
constexpr int kMaxLevels = 128;  // per-column stack arrays
} // namespace

void Convection::run(const PhysicsInput& in, double dt, double grid_dx,
                     PhysicsOutput& out) const {
  if (!activeAt(grid_dx)) return;  // storm-resolving: convection is explicit
  const int nlev = in.nlev;
  if (nlev > kMaxLevels) throw std::invalid_argument("Convection: nlev > 128");
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < in.ncolumns; ++c) {
    // Trigger: lifted low-level parcel warmer than the environment two
    // layers up (crude conditional-instability test).
    const int kb = nlev - 1;
    const double theta_b = in.t(c, kb) / in.exner(c, kb);
    const int ktest = std::max(0, kb - 3);
    const double theta_test = in.t(c, ktest) / in.exner(c, ktest);
    const double qsat_b = saturationMixingRatio(in.t(c, kb), in.pmid(c, kb));
    const double rh_b = in.qv(c, kb) / std::max(qsat_b, 1e-10);
    // Moist instability proxy: boundary-layer theta_e exceeds the mid-level
    // dry theta.
    const double theta_e_b = theta_b * std::exp(kLv * in.qv(c, kb) / (kCp * in.t(c, kb)));
    if (theta_e_b <= theta_test * 1.01 || rh_b < 0.5) continue;

    // Reference profile: moist adiabat anchored at the boundary layer
    // (theta_e conserved), humidity at rh_reference. Tendencies are staged
    // per column and committed only when the column PRECIPITATES (net
    // moisture removal) -- the standard Betts-Miller positivity rule; a
    // net-moistening adjustment means deep convection does not apply.
    double precip_col = 0.0;  // kg/m^2/s condensate removed
    double stage_dtdt[kMaxLevels] = {};
    double stage_dqdt[kMaxLevels] = {};
    for (int k = 0; k < nlev; ++k) {
      const double pk = in.pmid(c, k);
      if (pk < 3.0e4) continue;  // adjustment below 300 hPa only
      // Reference temperature: invert theta_e ~ theta*exp(Lq/cpT) assuming
      // the reference is at rh_reference. The raw fixed point oscillates in
      // very moist columns (qs feedback), so iterate with damping and keep
      // the reference inside the physical range.
      const double exn = in.exner(c, k);
      double t_ref = in.t(c, k);
      for (int it = 0; it < 8; ++it) {
        const double qs = saturationMixingRatio(t_ref, pk);
        const double target =
            theta_e_b * exn /
            std::exp(kLv * config_.rh_reference * qs / (kCp * t_ref));
        t_ref = 0.5 * (t_ref + clamp(target, 150.0, 330.0));
      }
      // Humidity reference: rh_reference of the ENVIRONMENT's saturation
      // value. (Referencing qsat of the warmer adiabat would moisten the
      // free troposphere and violate the precipitation-positivity rule in
      // exactly the columns deep convection should dry.)
      const double q_ref =
          config_.rh_reference * saturationMixingRatio(in.t(c, k), pk);

      // Relaxation tendencies, capped at a generous convective bound
      // (+-30 K/day) so a pathological reference cannot destabilize the
      // coupled model.
      const double cap = 30.0 / 86400.0;
      stage_dtdt[k] = clamp((t_ref - in.t(c, k)) / config_.tau, -cap, cap);
      stage_dqdt[k] = (q_ref - in.qv(c, k)) / config_.tau;
      // Moisture removed from the column becomes convective rain.
      precip_col -= stage_dqdt[k] * in.delp(c, k) / kGravity;
    }
    if (precip_col <= 0) continue;  // non-precipitating: scheme does not act
    for (int k = 0; k < nlev; ++k) {
      out.dtdt(c, k) += stage_dtdt[k];
      out.dqvdt(c, k) += stage_dqdt[k];
    }
    out.precip[c] += precip_col * 86400.0;
  }
  (void)dt;  // relaxation uses tau, not the step length
}

} // namespace grist::physics
