#include "grist/physics/suite.hpp"

#include <stdexcept>

#include "grist/common/math.hpp"

namespace grist::physics {

ConventionalSuite::ConventionalSuite(Index ncolumns, int nlev,
                                     ConventionalSuiteConfig config)
    : config_(config),
      radiation_(config.radiation),
      microphysics_(config.microphysics),
      pbl_(config.pbl),
      surface_(config.surface),
      land_(ncolumns, config.land),
      convection_(config.convection),
      steps_since_radiation_(config.radiation_interval),  // fire on first call
      rad_out_(ncolumns, nlev) {}

void ConventionalSuite::run(const PhysicsInput& in, double dt, PhysicsOutput& out) {
  if (in.nlev > 128) throw std::invalid_argument("ConventionalSuite: nlev > 128");
  out.zero();

  // ---- radiation on its own (longer) cadence, cached in between ----
  if (++steps_since_radiation_ >= config_.radiation_interval) {
    steps_since_radiation_ = 0;
    // Radiation accumulates its heating into dtdt; gsw/glw are overwritten.
    rad_out_.dtdt.fill(0.0);
    radiation_.run(in, rad_out_);
  }
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < in.ncolumns; ++c) {
    for (int k = 0; k < in.nlev; ++k) out.dtdt(c, k) += rad_out_.dtdt(c, k);
  }
  out.gsw = rad_out_.gsw;
  out.glw = rad_out_.glw;

  // ---- surface fluxes, then PBL mixing forced by them ----
  surface_.run(in, out);
  pbl_.run(in, dt, out.shflx, out.lhflx, out);

  // ---- moist processes ----
  convection_.run(in, dt, config_.grid_dx, out);
  microphysics_.run(in, dt, out);

  // ---- land update (consumes gsw/glw like the ML radiation module) ----
  land_.run(in, dt, out);

  // ---- stability clamps on the summed tendencies ----
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < in.ncolumns; ++c) {
    for (int k = 0; k < in.nlev; ++k) {
      out.dtdt(c, k) = clamp(out.dtdt(c, k), -config_.dtdt_limit, config_.dtdt_limit);
      out.dqvdt(c, k) = clamp(out.dqvdt(c, k), -config_.dqdt_limit, config_.dqdt_limit);
      out.dqcdt(c, k) = clamp(out.dqcdt(c, k), -config_.dqdt_limit, config_.dqdt_limit);
      out.dqrdt(c, k) = clamp(out.dqrdt(c, k), -config_.dqdt_limit, config_.dqdt_limit);
    }
  }
}

void deriveQ1Q2(const PhysicsOutput& out, Field& q1, Field& q2) {
  using constants::kCp;
  using constants::kLv;
  q1 = out.dtdt;
  q2 = parallel::Field(out.dqvdt.entities(), out.dqvdt.components());
  for (Index c = 0; c < q2.entities(); ++c) {
    for (int k = 0; k < q2.components(); ++k) {
      q2(c, k) = -(kLv / kCp) * out.dqvdt(c, k);
    }
  }
}

} // namespace grist::physics
