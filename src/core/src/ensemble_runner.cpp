#include "grist/core/ensemble_runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace grist::core {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

} // namespace

std::uint64_t EnsembleRunner::memberSeed(std::uint64_t base, int member) {
  return splitmix64(base ^ (0x9E3779B97F4A7C15ull *
                            static_cast<std::uint64_t>(member + 1)));
}

void EnsembleRunner::perturbState(dycore::State& state, std::uint64_t seed,
                                  double amplitude) {
  const std::size_t n = state.theta.size();
  double* theta = state.theta.data();
  for (std::size_t i = 0; i < n; ++i) {
    // Hash of (seed, element index) -> u in [0, 1) with 53 random bits;
    // order-independent, so any traversal produces the same field.
    const std::uint64_t h = splitmix64(seed + static_cast<std::uint64_t>(i));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    theta[i] += amplitude * (2.0 * u - 1.0);
  }
}

namespace {

/// M copies of `initial`, member m's theta perturbed with memberSeed(seed, m).
std::vector<dycore::State> perturbedMembers(const EnsembleConfig& config,
                                            const dycore::State& initial) {
  if (config.members < 1) {
    throw std::invalid_argument("EnsembleRunner: members < 1");
  }
  std::vector<dycore::State> members(static_cast<std::size_t>(config.members),
                                     initial);
  if (config.perturb_seed != 0) {
    for (int m = 0; m < config.members; ++m) {
      EnsembleRunner::perturbState(members[static_cast<std::size_t>(m)],
                                   EnsembleRunner::memberSeed(config.perturb_seed, m),
                                   config.perturb_amplitude);
    }
  }
  return members;
}

} // namespace

EnsembleRunner::EnsembleRunner(const grid::HexMesh& mesh,
                               const grid::TrskWeights& trsk,
                               EnsembleConfig config,
                               const dycore::State& initial)
    : Model(mesh, trsk, config.model, perturbedMembers(config, initial)),
      config_(std::move(config)) {
  // Report the configuration the members run (Model fills in mesh-derived
  // fields such as the convection grid spacing).
  config_.model = Model::config();
}

std::vector<double> EnsembleRunner::meanSurfacePressure() const {
  const grid::HexMesh& mesh = this->mesh();
  const dycore::DycoreConfig& dyn = config_.model.dyn;
  const double inv = 1.0 / members();
  std::vector<double> mean(static_cast<std::size_t>(mesh.ncells), 0.0);
  for (int m = 0; m < members(); ++m) {
    const dycore::State& s = state(m);
    for (Index c = 0; c < mesh.ncells; ++c) {
      double ps = dyn.ptop;
      for (int k = 0; k < dyn.nlev; ++k) ps += s.delp(c, k);
      mean[static_cast<std::size_t>(c)] += ps * inv;
    }
  }
  return mean;
}

std::vector<double> EnsembleRunner::spreadSurfacePressure() const {
  // Population std-dev across members, per cell (two-pass: mean first).
  const grid::HexMesh& mesh = this->mesh();
  const dycore::DycoreConfig& dyn = config_.model.dyn;
  const std::vector<double> mean = meanSurfacePressure();
  const double inv = 1.0 / members();
  std::vector<double> var(static_cast<std::size_t>(mesh.ncells), 0.0);
  for (int m = 0; m < members(); ++m) {
    const dycore::State& s = state(m);
    for (Index c = 0; c < mesh.ncells; ++c) {
      double ps = dyn.ptop;
      for (int k = 0; k < dyn.nlev; ++k) ps += s.delp(c, k);
      const double d = ps - mean[static_cast<std::size_t>(c)];
      var[static_cast<std::size_t>(c)] += d * d * inv;
    }
  }
  for (double& v : var) v = std::sqrt(std::max(0.0, v));
  return var;
}

double EnsembleRunner::globalSpread() const {
  const grid::HexMesh& mesh = this->mesh();
  const std::vector<double> spread = spreadSurfacePressure();
  double num = 0.0, den = 0.0;
  for (Index c = 0; c < mesh.ncells; ++c) {
    num += spread[static_cast<std::size_t>(c)] * mesh.cell_area[c];
    den += mesh.cell_area[c];
  }
  return den > 0 ? num / den : 0.0;
}

} // namespace grist::core
