#include "grist/physics/radiation.hpp"

#include <cmath>
#include <stdexcept>

#include "grist/common/math.hpp"

namespace grist::physics {

using constants::kCp;
using constants::kGravity;

namespace {
constexpr double kSigmaSB = 5.670374e-8;
constexpr int kMaxLevels = 128;  // per-column stack arrays
} // namespace

Radiation::Radiation(RadiationConfig config) : config_(config) {
  // Synthetic band spectra: absorption varies by an order of magnitude
  // across bands, cloud extinction is gray-ish, band weights sum to 1.
  const auto fill = [](std::vector<double>& v, int n, double lo, double hi) {
    v.resize(n);
    for (int b = 0; b < n; ++b) {
      const double frac = n == 1 ? 0.0 : static_cast<double>(b) / (n - 1);
      v[b] = lo * std::pow(hi / lo, frac);
    }
  };
  // Calibrated so a clear tropical column has SW tau ~ 0.1-1 and the LW
  // spectrum spans transparent "window" bands through nearly-opaque vapor
  // bands (total column tau_gas 0.1-4, tau_vap 0.01-2).
  fill(sw_k_gas_, config_.sw_bands, 3e-7, 3e-6);   // per Pa of air
  fill(sw_k_vap_, config_.sw_bands, 2e-4, 1.5e-3); // per (kg/kg * Pa)
  fill(sw_k_cld_, config_.sw_bands, 0.1, 0.5);     // per (kg/kg * Pa)
  fill(lw_k_gas_, config_.lw_bands, 1e-6, 4e-5);
  fill(lw_k_vap_, config_.lw_bands, 1e-4, 1e-2);
  fill(lw_k_cld_, config_.lw_bands, 0.5, 2.0);
  sw_weight_.assign(config_.sw_bands, 1.0 / config_.sw_bands);
  lw_weight_.assign(config_.lw_bands, 1.0 / config_.lw_bands);
}

void Radiation::run(const PhysicsInput& in, PhysicsOutput& out) const {
  const int nlev = in.nlev;
  if (nlev > kMaxLevels) throw std::invalid_argument("Radiation: nlev > 128");
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < in.ncolumns; ++c) {
    double heating[kMaxLevels] = {};  // accumulate, clamp, then commit
    // ---- shortwave: direct-beam absorption sweep per band ----
    double gsw = 0.0;
    const double mu = in.coszr[c];
    if (mu > 1e-4) {
      for (int b = 0; b < config_.sw_bands; ++b) {
        double beam = config_.solar_constant * mu * sw_weight_[b];
        for (int k = 0; k < nlev; ++k) {
          const double dp = in.delp(c, k);
          const double tau = (sw_k_gas_[b] * dp + sw_k_vap_[b] * in.qv(c, k) * dp +
                              sw_k_cld_[b] * in.qc(c, k) * dp);
          const double trans = std::exp(-tau / mu);
          const double absorbed = beam * (1.0 - trans);
          // Heating: dT/dt = g * dF / (cp * dp).
          heating[k] += kGravity * absorbed / (kCp * dp);
          beam -= absorbed;
          if (beam < 1e-10) {
            beam = 0.0;
            break;  // band extinct; the branch RRTMG also takes
          }
        }
        gsw += beam * (1.0 - in.albedo[c]);
      }
    }
    out.gsw[c] = gsw;

    // ---- longwave: emissivity two-sweep per band ----
    // T^4 is the same in every band and sweep, and a band's emissivity the
    // same in both of its sweeps: each is computed once and reused.
    double t4[kMaxLevels];
    for (int k = 0; k < nlev; ++k) t4[k] = std::pow(in.t(c, k), 4.0);
    const double up_surface = kSigmaSB * std::pow(in.tskin[c], 4.0);
    double glw = 0.0;
    for (int b = 0; b < config_.lw_bands; ++b) {
      // Downward sweep: each layer emits eps*sigma*T^4 and transmits the
      // rest; store per-interface downward fluxes.
      double eps[kMaxLevels];
      double down[kMaxLevels + 1];
      down[0] = 0.0;
      for (int k = 0; k < nlev; ++k) {
        const double dp = in.delp(c, k);
        const double tau = lw_k_gas_[b] * dp + lw_k_vap_[b] * in.qv(c, k) * dp +
                           lw_k_cld_[b] * in.qc(c, k) * dp;
        eps[k] = 1.0 - std::exp(-tau);
        down[k + 1] = down[k] * (1.0 - eps[k]) + eps[k] * kSigmaSB * t4[k];
      }
      glw += lw_weight_[b] * down[nlev];
      // Upward sweep from the surface.
      double up[kMaxLevels + 1];
      up[nlev] = up_surface;
      for (int k = nlev - 1; k >= 0; --k) {
        up[k] = up[k + 1] * (1.0 - eps[k]) + eps[k] * kSigmaSB * t4[k];
      }
      // Heating from net-flux divergence, weighted by the band fraction.
      for (int k = 0; k < nlev; ++k) {
        const double net_top = up[k] - down[k];
        const double net_bot = up[k + 1] - down[k + 1];
        heating[k] +=
            lw_weight_[b] * kGravity * (net_bot - net_top) / (kCp * in.delp(c, k));
      }
    }
    out.glw[c] = glw;

    // ---- commit: cap the per-layer net heating and add the stratospheric
    // relaxation (ozone stand-in) above strat_pressure ----
    const double cap = config_.heating_cap_kday / 86400.0;
    for (int k = 0; k < nlev; ++k) {
      double h = std::min(cap, std::max(-cap, heating[k]));
      if (in.pmid(c, k) < config_.strat_pressure) {
        h += (config_.strat_t - in.t(c, k)) / config_.strat_tau;
      }
      out.dtdt(c, k) += h;
    }
  }
}

double Radiation::flopsPerColumn(int nlev) const {
  // ~20 flops per band-level in SW, ~30 in LW (two sweeps + heating).
  return 20.0 * config_.sw_bands * nlev + 30.0 * config_.lw_bands * nlev;
}

} // namespace grist::physics
