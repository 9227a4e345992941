#include "grist/coupler/coupler.hpp"

#include <cmath>
#include <stdexcept>

#include "grist/common/math.hpp"
#include "grist/dycore/kernels.hpp"

namespace grist::coupler {

using namespace constants;

Coupler::Coupler(const grid::HexMesh& mesh, int nlev, CouplerConfig config)
    : mesh_(mesh), nlev_(nlev), config_(config), ncells_(mesh.ncells),
      rrr_alpha_(mesh.ncells, nlev), rrr_p_(mesh.ncells, nlev),
      rrr_exner_(mesh.ncells, nlev), rrr_pi_mid_(mesh.ncells, nlev) {
  east_.resize(mesh.ncells);
  north_.resize(mesh.ncells);
  for (Index c = 0; c < mesh.ncells; ++c) {
    const Vec3 r = mesh.cell_x[c];
    Vec3 east{-r.y, r.x, 0};
    const double n = east.norm();
    east = n > 1e-12 ? east * (1.0 / n) : Vec3{1, 0, 0};
    east_[c] = east;
    north_[c] = r.cross(east);
  }
}

void Coupler::stateToPhysics(const dycore::State& state,
                             const std::vector<double>& tskin, double sim_seconds,
                             physics::PhysicsInput& in) const {
  if (in.ncolumns < ncells_ || in.nlev != nlev_) {
    throw std::invalid_argument("Coupler::stateToPhysics: shape mismatch");
  }
  if (static_cast<Index>(tskin.size()) != ncells_) {
    throw std::invalid_argument("Coupler::stateToPhysics: tskin size");
  }

  // Thermodynamic diagnostics via the dycore EOS kernel (ctor-owned
  // scratch: no allocation on the warm path).
  parallel::Field& exner = rrr_exner_;
  parallel::Field& pi_mid = rrr_pi_mid_;
  dycore::kernels::computeRrr<double>(ncells_, nlev_, config_.ptop,
                                      state.delp.data(), state.theta.data(),
                                      state.phi.data(), rrr_alpha_.data(),
                                      rrr_p_.data(), exner.data(),
                                      pi_mid.data());

  // Solar geometry: equinox sun with a diurnal cycle.
  const double hour_angle = 2.0 * kPi * sim_seconds / 86400.0;

#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells_; ++c) {
    // Perot velocity vector at the cell, per level.
    for (int k = 0; k < nlev_; ++k) {
      Vec3 vel{};
      for (Index j = mesh_.cell_offset[c]; j < mesh_.cell_offset[c + 1]; ++j) {
        const Index e = mesh_.cell_edges[j];
        const Vec3 dx = (mesh_.edge_x[e] - mesh_.cell_x[c]) * mesh_.radius;
        vel = vel + dx * (mesh_.cell_edge_sign[j] * mesh_.edge_le[e] * state.u(e, k));
      }
      vel = vel * (1.0 / mesh_.cell_area[c]);
      in.u(c, k) = vel.dot(east_[c]);
      in.v(c, k) = vel.dot(north_[c]);
      in.t(c, k) = state.theta(c, k) * exner(c, k);
      in.qv(c, k) = state.tracers[config_.tracer_qv](c, k);
      in.qc(c, k) = static_cast<int>(state.tracers.size()) > config_.tracer_qc
                        ? state.tracers[config_.tracer_qc](c, k)
                        : 0.0;
      in.qr(c, k) = static_cast<int>(state.tracers.size()) > config_.tracer_qr
                        ? state.tracers[config_.tracer_qr](c, k)
                        : 0.0;
      in.pmid(c, k) = pi_mid(c, k);
      in.delp(c, k) = state.delp(c, k);
      in.exner(c, k) = exner(c, k);
      in.zmid(c, k) =
          0.5 * (state.phi(c, k) + state.phi(c, k + 1)) / kGravity;
    }
    double pint = config_.ptop;
    in.pint(c, 0) = pint;
    for (int k = 0; k < nlev_; ++k) {
      pint += state.delp(c, k);
      in.pint(c, k + 1) = pint;
      in.zint(c, k) = state.phi(c, k) / kGravity;
    }
    in.zint(c, nlev_) = state.phi(c, nlev_) / kGravity;

    in.tskin[c] = tskin[c];
    const LonLat ll = mesh_.cell_ll[c];
    in.lat[c] = ll.lat;
    in.coszr[c] = std::max(0.0, std::cos(ll.lat) * std::cos(ll.lon + hour_angle));
  }
}

void Coupler::applyTendencies(const physics::PhysicsOutput& out, double dt,
                              dycore::State& state) const {
  if (out.dtdt.entities() < ncells_ || out.dtdt.components() != nlev_) {
    throw std::invalid_argument("Coupler::applyTendencies: shape mismatch");
  }
  // Cells: temperature tendency converts to theta through the Exner
  // function; tracers clip at zero (physics can slightly overshoot).
  parallel::Field& exner = rrr_exner_;
  dycore::kernels::computeRrr<double>(ncells_, nlev_, config_.ptop,
                                      state.delp.data(), state.theta.data(),
                                      state.phi.data(), rrr_alpha_.data(),
                                      rrr_p_.data(), exner.data(),
                                      rrr_pi_mid_.data());
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells_; ++c) {
    for (int k = 0; k < nlev_; ++k) {
      state.theta(c, k) += out.dtdt(c, k) / exner(c, k) * dt;
      auto clip = [&](parallel::Field& q, const parallel::Field& tend) {
        q(c, k) = std::max(0.0, q(c, k) + tend(c, k) * dt);
      };
      clip(state.tracers[config_.tracer_qv], out.dqvdt);
      if (static_cast<int>(state.tracers.size()) > config_.tracer_qc) {
        clip(state.tracers[config_.tracer_qc], out.dqcdt);
      }
      if (static_cast<int>(state.tracers.size()) > config_.tracer_qr) {
        clip(state.tracers[config_.tracer_qr], out.dqrdt);
      }
    }
  }
  // Edges: project the cell-pair mean wind tendency onto the edge normal.
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < mesh_.nedges; ++e) {
    const Index c1 = mesh_.edge_cell[e][0];
    const Index c2 = mesh_.edge_cell[e][1];
    for (int k = 0; k < nlev_; ++k) {
      const Vec3 t1 = east_[c1] * out.dudt(c1, k) + north_[c1] * out.dvdt(c1, k);
      const Vec3 t2 = east_[c2] * out.dudt(c2, k) + north_[c2] * out.dvdt(c2, k);
      state.u(e, k) += 0.5 * (t1 + t2).dot(mesh_.edge_normal[e]) * dt;
    }
  }
}

} // namespace grist::coupler
