#include "grist/dycore/dycore.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>

#include "grist/backend/kernels.hpp"
#include "grist/backend/simd.hpp"

namespace grist::dycore {

using parallel::Field;

namespace simd = backend::simd;

namespace {

Bounds fullBounds(const grid::HexMesh& mesh) {
  return Bounds{mesh.ncells, mesh.ncells, mesh.nedges, mesh.nvertices};
}

} // namespace

Dycore::Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
               DycoreConfig config, int members)
    : Dycore(mesh, trsk, config, fullBounds(mesh), members) {}

Dycore::Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
               DycoreConfig config, Bounds bounds, int members)
    : mesh_(mesh),
      trsk_(trsk),
      config_(config),
      bounds_(bounds),
      nmembers_(members) {
  if (config_.nlev < 2) throw std::invalid_argument("Dycore: nlev < 2");
  if (config_.dt <= 0) throw std::invalid_argument("Dycore: dt <= 0");
  if (nmembers_ < 1) throw std::invalid_argument("Dycore: members < 1");
  const int nlev = config_.nlev;

  // Scratch fields, grouped BY MESH ENTITY. Keep additions inside the
  // matching block: every field is size-checked against its entity count
  // below, so a field allocated under the wrong group fails construction
  // instead of silently aliasing out-of-range rows.
  // -- cell fields (ncells x nlev) --
  div_flux_ = Field(mesh.ncells, nlev);
  p_ = Field(mesh.ncells, nlev);
  thetam_tend_ = Field(mesh.ncells, nlev);
  delp_tend_ = Field(mesh.ncells, nlev);
  delp0_ = Field(mesh.ncells, nlev);
  thetam0_ = Field(mesh.ncells, nlev);
  // -- edge fields (nedges x nlev) --
  u_tend_ = Field(mesh.nedges, nlev);
  u0_ = Field(mesh.nedges, nlev);
  // -- the NS intermediates in the storage config_.ns selects --
  const auto allocate_ns = [&](auto& s) {
    using F = std::remove_reference_t<decltype(s.flux)>;
    s.flux = F(mesh.nedges, nlev);
    s.uflux = F(mesh.nedges, nlev);
    s.ke = F(mesh.ncells, nlev);
    s.div_u = F(mesh.ncells, nlev);
    s.alpha = F(mesh.ncells, nlev);
    s.vor = F(mesh.nvertices, nlev);
    s.qv = F(mesh.nvertices, nlev);
  };
  if (config_.ns == precision::NsMode::kDouble) {
    allocate_ns(ns_dp_);
  } else {
    allocate_ns(ns_sp_);
  }
  // -- per member --
  const std::size_t mm = static_cast<std::size_t>(nmembers_);
  acc_flux_.reserve(mm);
  p_solve_.reserve(mm - 1);
  for (int m = 0; m < nmembers_; ++m) {
    acc_flux_.emplace_back(mesh.nedges, nlev);
    if (m + 1 < nmembers_) p_solve_.emplace_back(mesh.ncells, nlev);
  }
  solve_delp_.resize(mm);
  solve_theta_.resize(mm);
  solve_p_.resize(mm);
  solve_w_.resize(mm);
  solve_phi_.resize(mm);

  const auto expect = [nlev](const auto& f, Index nentity, const char* name) {
    if (f.entities() != nentity || f.components() != nlev) {
      throw std::logic_error(std::string("Dycore: mis-sized scratch field ") +
                             name);
    }
  };
  const auto expect_ns = [&](const auto& s) {
    expect(s.flux, mesh.nedges, "flux");
    expect(s.uflux, mesh.nedges, "uflux");
    expect(s.ke, mesh.ncells, "ke");
    expect(s.div_u, mesh.ncells, "div_u");
    expect(s.alpha, mesh.ncells, "alpha");
    expect(s.vor, mesh.nvertices, "vor");
    expect(s.qv, mesh.nvertices, "qv");
  };
  expect(div_flux_, mesh.ncells, "div_flux");
  expect(p_, mesh.ncells, "p");
  expect(thetam_tend_, mesh.ncells, "thetam_tend");
  expect(delp_tend_, mesh.ncells, "delp_tend");
  expect(delp0_, mesh.ncells, "delp0");
  expect(thetam0_, mesh.ncells, "thetam0");
  expect(u_tend_, mesh.nedges, "u_tend");
  expect(u0_, mesh.nedges, "u0");
  if (config_.ns == precision::NsMode::kDouble) {
    expect_ns(ns_dp_);
  } else {
    expect_ns(ns_sp_);
  }
  for (const Field& f : acc_flux_) expect(f, mesh.nedges, "acc_flux");
  for (const Field& f : p_solve_) expect(f, mesh.ncells, "p_solve");
}

void Dycore::resetAccumulatedFlux() {
  for (Field& f : acc_flux_) f.fill(0.0);
  acc_steps_ = 0;
}

void Dycore::averageAccumulatedFlux() {
  if (acc_steps_ < 1) {
    throw std::logic_error("Dycore::averageAccumulatedFlux: empty window");
  }
  const double nsub = static_cast<double>(acc_steps_);
  for (Field& f : acc_flux_) {
    double* acc = f.data();
    for (std::size_t i = 0; i < f.size(); ++i) acc[i] /= nsub;
  }
  acc_steps_ = 1;
}

void Dycore::restoreAccumulatedFlux(std::span<const double> flux, int steps) {
  Field& acc = acc_flux_[0];
  if (flux.size() != acc.size()) {
    throw std::invalid_argument("Dycore::restoreAccumulatedFlux: shape mismatch");
  }
  if (steps < 0) {
    throw std::invalid_argument("Dycore::restoreAccumulatedFlux: negative steps");
  }
  std::copy(flux.begin(), flux.end(), acc.data());
  acc_steps_ = steps;
}

void Dycore::setBands(Bands bands) {
  const auto validate = [](const std::vector<Index>& boundary,
                           const std::vector<Index>& interior, Index n,
                           const char* what) {
    if (static_cast<Index>(boundary.size() + interior.size()) != n) {
      throw std::invalid_argument(std::string("Dycore::setBands: ") + what +
                                  " bands do not cover the prognostic range");
    }
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    for (const std::vector<Index>* band : {&boundary, &interior}) {
      for (const Index i : *band) {
        if (i < 0 || i >= n || seen[static_cast<std::size_t>(i)]) {
          throw std::invalid_argument(std::string("Dycore::setBands: ") + what +
                                      " bands are not a partition");
        }
        seen[static_cast<std::size_t>(i)] = 1;
      }
    }
  };
  validate(bands.boundary_cells, bands.interior_cells, bounds_.cells_prog,
           "cell");
  validate(bands.boundary_edges, bands.interior_edges, bounds_.edges_prog,
           "edge");
  bands_ = std::move(bands);
  has_bands_ = true;
}

void Dycore::step(State& state) {
  if (nmembers_ != 1) {
    throw std::logic_error("Dycore::step(State&): members() != 1");
  }
  State* const states[1] = {&state};
  step(states);
}

void Dycore::step(State& state, const OverlapHooks& hooks) {
  if (nmembers_ != 1) {
    throw std::logic_error("Dycore::step(overlap): members() != 1");
  }
  if (!has_bands_) {
    throw std::logic_error("Dycore::step(overlap): setBands() first");
  }
  if (!hooks.post || !hooks.wait) {
    throw std::invalid_argument("Dycore::step(overlap): both hooks required");
  }
  State* const states[1] = {&state};
  if (config_.ns == precision::NsMode::kDouble) {
    stepImpl<double>(states, &hooks);
  } else {
    stepImpl<float>(states, &hooks);
  }
}

void Dycore::step(State* const* states) {
  if (config_.ns == precision::NsMode::kDouble) {
    stepImpl<double>(states, nullptr);
  } else {
    stepImpl<float>(states, nullptr);
  }
}

// The tendency step is organized as FIVE fused single-sweep kernels (one
// per entity class + tendencies) after the EOS, instead of the former ~12
// field sweeps. Each fused kernel reproduces the unfused sequence's
// arithmetic order element-for-element, so this restructuring is bit-exact
// (see tests/dycore/test_fused_kernels.cpp); the win is memory traffic --
// connectivity/geometry streamed once, outputs written once.
template <typename NS>
void Dycore::computeTendencies(const State& state) {
  const int nlev = config_.nlev;
  constexpr int si = simd::kNsIndex<NS>;
  const simd::KernelTable& tb = simd::table();
  NsScratch<NS>& ns = nsScratch<NS>();

  // Thermodynamic diagnostics on the diagnostic cell band: alpha and p
  // only. compute_rrr's Exner and pi_mid outputs are never read by the
  // step (the coupler runs the full column EOS), so they are not computed.
  std::get<si>(tb.rrr_alpha_p)(nullptr, bounds_.cells_diag, nlev,
                               state.delp.data(), state.theta.data(),
                               state.phi.data(), ns.alpha.data(), p_.data());

  // Fused edge sweep: mass flux + plain velocity flux from one pass over
  // ALL local edges (both cells of a local edge are always local).
  std::get<si>(tb.fused_edge_fluxes)(mesh_, mesh_.nedges, nlev,
                                     state.delp.data(), state.u.data(),
                                     ns.flux.data(), ns.uflux.data());
  // Fused cell-neighbor sweep: div(flux) in double, div(uflux), kinetic
  // energy.
  std::get<si>(tb.fused_cell_diagnostics)(
      mesh_, bounds_.cells_diag, nlev, ns.flux.data(), ns.uflux.data(),
      state.u.data(), div_flux_.data(), ns.div_u.data(), ns.ke.data());
  // Fused vertex sweep: vorticity + mass-weighted potential vorticity.
  std::get<si>(tb.fused_vertex_diagnostics)(
      mesh_, bounds_.vertices_diag, nlev, state.u.data(), state.delp.data(),
      constants::kOmega, ns.vor.data(), ns.qv.data());
  // Fused cell-tendency sweep: delp_tend = -div(flux) and the mass-weighted
  // theta tendency (advection + delp * nu * del2 diffusion).
  std::get<si>(tb.fused_scalar_tendencies)(
      mesh_, bounds_.cells_prog, nlev, ns.flux.data(), state.theta.data(),
      state.delp.data(), div_flux_.data(), config_.diff_coef / config_.dt,
      delp_tend_.data(), thetam_tend_.data());
  // Fused edge-tendency sweep: -grad(ke) + Coriolis + pressure gradient
  // (hard-double inside) + del2 damping; u_tend_ written exactly once.
  std::get<si>(tb.fused_momentum_tendency)(
      mesh_, trsk_, bounds_.edges_prog, nlev, ns.ke.data(), ns.qv.data(),
      ns.flux.data(), state.phi.data(), ns.alpha.data(), p_.data(),
      ns.div_u.data(), ns.vor.data(), config_.div_damp / config_.dt,
      config_.diff_coef / config_.dt, u_tend_.data());
}

template <typename NS>
void Dycore::stepImpl(State* const* states, const OverlapHooks* hooks) {
  const int nlev = config_.nlev;
  const simd::KernelTable& tb = simd::table();
  const auto size = [](const std::vector<Index>& v) {
    return static_cast<Index>(v.size());
  };

  // Member-sequential over the shared scratch: the RK3 explicit stages,
  // then the member's flux accumulation and pre-solver pressure. The flux is
  // live only within the member's iteration, and the implicit solve does
  // not touch it, so accumulating before the solve is state-invisible.
  // Member m < M-1 keeps its pressure in p_solve_[m]; the last one in p_.
  const double stage_dt[3] = {config_.dt / 3.0, config_.dt / 2.0, config_.dt};
  for (int m = 0; m < nmembers_; ++m) {
    State& state = *states[m];
    const std::size_t mi = static_cast<std::size_t>(m);
    double* p_solve = m + 1 < nmembers_ ? p_solve_[mi].data() : p_.data();
    tb.save_cell_start(mesh_.ncells, nlev, state.delp.data(),
                       state.theta.data(), delp0_.data(), thetam0_.data());
    tb.save_edge_start(mesh_.nedges, nlev, state.u.data(), u0_.data());

    // One stage update over a cell set and an edge set (nullptr = the
    // contiguous prognostic ranges). Entities are independent, so the
    // banded and contiguous schedules give bitwise-identical states.
    const auto update = [&](const Index* cells, Index nc, const Index* edges,
                            Index ne, double dts) {
      tb.update_cells(cells, nc, nlev, dts, delp0_.data(), thetam0_.data(),
                      delp_tend_.data(), thetam_tend_.data(),
                      state.delp.data(), state.theta.data());
      tb.update_edges(edges, ne, nlev, dts, u0_.data(), u_tend_.data(),
                      state.u.data());
    };
    // Wicker-Skamarock RK3: dt/3, dt/2, dt, each stage restarting from S^n.
    for (int stage = 0; stage < 3; ++stage) {
      computeTendencies<NS>(state);
      const double dts = stage_dt[stage];
      if (hooks) {
        // Overlapped: boundary band first, post the halo messages, compute
        // the interior while they are in flight, then consume the halos
        // (the next stage's tendencies read them).
        update(bands_.boundary_cells.data(), size(bands_.boundary_cells),
               bands_.boundary_edges.data(), size(bands_.boundary_edges), dts);
        hooks->post();
        update(bands_.interior_cells.data(), size(bands_.interior_cells),
               bands_.interior_edges.data(), size(bands_.interior_edges), dts);
        hooks->wait();
      } else {
        update(nullptr, bounds_.cells_prog, nullptr, bounds_.edges_prog, dts);
      }
    }
    // The mass flux driving tracer transport, accumulated in double.
    std::get<simd::kNsIndex<NS>>(tb.accumulate_flux)(
        mesh_.nedges, nlev, nsScratch<NS>().flux.data(), acc_flux_[mi].data());
    if (!hooks) {
      tb.rrr_p(nullptr, bounds_.cells_prog, nlev, state.delp.data(),
               state.theta.data(), state.phi.data(), p_solve);
    }
    solve_delp_[mi] = state.delp.data();
    solve_theta_[mi] = state.theta.data();
    solve_p_[mi] = p_solve;
    solve_w_[mi] = state.w.data();
    solve_phi_[mi] = state.phi.data();
  }

  // Vertically implicit acoustic adjustment of (w, phi), (column, member)
  // pairs batched as SIMD lanes, on pressure recomputed in double for the updated
  // delp/theta. The column solve reads no halos, so the overlapped
  // schedule posts the boundary columns' results and solves the interior
  // columns while the messages are in flight.
  const auto solve = [&](const Index* cells, Index n) {
    tb.vert_solve_lanes(cells, n, nmembers_, nlev, config_.dt, config_.ptop,
                        solve_delp_.data(), solve_theta_.data(),
                        solve_p_.data(), solve_w_.data(), solve_phi_.data(),
                        config_.w_damp_tau);
  };
  if (hooks) {
    const State& state = *states[0];
    const auto presolve = [&](const std::vector<Index>& band) {
      tb.rrr_p(band.data(), size(band), nlev, state.delp.data(),
               state.theta.data(), state.phi.data(), p_.data());
      solve(band.data(), size(band));
    };
    presolve(bands_.boundary_cells);
    hooks->post();
    presolve(bands_.interior_cells);
    hooks->wait();
  } else {
    solve(nullptr, bounds_.cells_prog);
  }
  ++acc_steps_;
}

std::vector<double> Dycore::relativeVorticity(const State& state) const {
  const int nlev = config_.nlev;
  std::vector<double> vor(static_cast<std::size_t>(bounds_.vertices_diag) *
                          nlev);
  const auto mv = backend::makeHostMeshView(mesh_);
  backend::hostSweep(bounds_.vertices_diag, [&](auto& ctx, Index v) {
    backend::kernels::vorticityAtVertex<double>(
        ctx, v, mv, nlev, backend::hostView(state.u.data()),
        backend::hostMut(vor.data()));
  });
  return vor;
}

// Explicit instantiations of the step for both precisions.
template void Dycore::stepImpl<double>(State* const*, const OverlapHooks*);
template void Dycore::stepImpl<float>(State* const*, const OverlapHooks*);

} // namespace grist::dycore
