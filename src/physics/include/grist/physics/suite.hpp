// The physics suite interface shared by the conventional parameterizations
// and the ML-based suite (paper Fig. 3): the coupler hands over column
// inputs and receives full physical tendencies plus surface diagnostics.
// Table 3's scheme matrix (DP/MIX x PHY/ML) switches the implementation.
#pragma once

#include <memory>

#include "grist/physics/convection.hpp"
#include "grist/physics/land.hpp"
#include "grist/physics/microphysics.hpp"
#include "grist/physics/pbl.hpp"
#include "grist/physics/radiation.hpp"
#include "grist/physics/surface.hpp"
#include "grist/physics/types.hpp"

namespace grist::physics {

class PhysicsSuite {
 public:
  virtual ~PhysicsSuite() = default;
  /// Compute tendencies for one physics step of dt seconds. out is zeroed
  /// by the callee.
  virtual void run(const PhysicsInput& in, double dt, PhysicsOutput& out) = 0;
  virtual const char* name() const = 0;
};

struct ConventionalSuiteConfig {
  double grid_dx = 100e3;    ///< m; drives the scale-aware convection switch
  int radiation_interval = 3;///< run radiation every N physics steps
  /// Safety clamps on the summed suite tendencies (same role as in the ML
  /// suite): bound the physics-dynamics coupling shock so grid-point-storm
  /// feedbacks cannot run away at coarse resolutions. Generous relative to
  /// observed large-scale tendencies.
  double dtdt_limit = 80.0 / 86400.0;   ///< K/s
  double dqdt_limit = 5.0e-6;           ///< 1/s
  RadiationConfig radiation;
  MicrophysicsConfig microphysics;
  PblConfig pbl;
  SurfaceConfig surface;
  LandConfig land;
  ConvectionConfig convection;
};

/// The conventional parameterization chain: radiation (on its own, longer
/// timestep -- Table 2's Phy:Rad = 60:180), surface layer, PBL diffusion,
/// convection (scale-aware), microphysics, land.
class ConventionalSuite final : public PhysicsSuite {
 public:
  ConventionalSuite(Index ncolumns, int nlev, ConventionalSuiteConfig config = {});

  void run(const PhysicsInput& in, double dt, PhysicsOutput& out) override;
  const char* name() const override { return "Conventional"; }

  const Radiation& radiation() const { return radiation_; }
  LandModel& land() { return land_; }

 private:
  ConventionalSuiteConfig config_;
  Radiation radiation_;
  Microphysics microphysics_;
  Pbl pbl_;
  SurfaceLayer surface_;
  LandModel land_;
  Convection convection_;

  // Radiation output, allocated once: each radiation call writes it, and
  // its heating + surface fluxes are reused until the next one.
  int steps_since_radiation_;
  PhysicsOutput rad_out_;
};

/// Q1 (apparent heat source, K/s) and Q2 (apparent moisture sink expressed
/// in K/s, -Lv/cp dq/dt) from a physics output -- the residual-calculation
/// targets of the paper's ML tendency module (section 3.2.2).
void deriveQ1Q2(const PhysicsOutput& out, Field& q1, Field& q2);

} // namespace grist::physics
