#include "grist/coupler/coupler.hpp"

#include <cmath>
#include <stdexcept>

#include "grist/backend/kernels.hpp"
#include "grist/common/math.hpp"
#include "grist/common/workspace.hpp"

namespace grist::coupler {

using namespace constants;
using common::Workspace;

namespace {

/// Column c's EOS: the dycore's compute_rrr body in double, with Exner and
/// pi_mid written to the caller's nlev-long rows. alpha and p, which the
/// coupler does not read, go to two rows of the calling thread's Workspace.
void columnEos(Workspace& ws, Index c, int nlev, double ptop,
               const dycore::State& state, double* exner, double* pi_mid) {
  using backend::hostMut;
  using backend::hostView;
  const Workspace::Frame frame(ws);
  double* alpha = ws.get<double>(nlev);
  double* p = ws.get<double>(nlev);
  const std::size_t cell = static_cast<std::size_t>(c) * nlev;
  backend::HostBackend::Context ctx;
  backend::kernels::computeRrrColumn<double, backend::HostBackend>(
      ctx, 0, nlev, ptop, hostView(state.delp.data() + cell),
      hostView(state.theta.data() + cell),
      hostView(state.phi.data() + cell + c), hostMut(alpha), hostMut(p),
      hostMut(exner), hostMut(pi_mid));
}

} // namespace

Coupler::Coupler(const grid::HexMesh& mesh, int nlev, CouplerConfig config)
    : mesh_(mesh), nlev_(nlev), config_(config), ncells_(mesh.ncells) {
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

  // Solar geometry: equinox sun with a diurnal cycle.
  const double hour_angle = 2.0 * kPi * sim_seconds / 86400.0;

#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(2 * Workspace::bytesFor<double>(nlev_));
#pragma omp for schedule(static)
    for (Index c = 0; c < ncells_; ++c) {
      // Thermodynamic diagnostics: Exner and pi_mid straight into the input.
      columnEos(ws, c, nlev_, config_.ptop, state, &in.exner(c, 0),
                &in.pmid(c, 0));
      // Perot velocity vector at the cell, per level.
      for (int k = 0; k < nlev_; ++k) {
        Vec3 vel{};
        for (Index j = mesh_.cell_offset[c]; j < mesh_.cell_offset[c + 1]; ++j) {
          const Index e = mesh_.cell_edges[j];
          const Vec3 dx = (mesh_.edge_x[e] - mesh_.cell_x[c]) * mesh_.radius;
          vel = vel + dx * (mesh_.cell_edge_sign[j] * mesh_.edge_le[e] *
                            state.u(e, k));
        }
        vel = vel * (1.0 / mesh_.cell_area[c]);
        in.u(c, k) = vel.dot(east_[c]);
        in.v(c, k) = vel.dot(north_[c]);
        in.t(c, k) = state.theta(c, k) * in.exner(c, k);
        in.qv(c, k) = state.tracers[config_.tracer_qv](c, k);
        in.qc(c, k) = static_cast<int>(state.tracers.size()) > config_.tracer_qc
                          ? state.tracers[config_.tracer_qc](c, k)
                          : 0.0;
        in.qr(c, k) = static_cast<int>(state.tracers.size()) > config_.tracer_qr
                          ? state.tracers[config_.tracer_qr](c, k)
                          : 0.0;
        in.delp(c, k) = state.delp(c, k);
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
      in.coszr[c] =
          std::max(0.0, std::cos(ll.lat) * std::cos(ll.lon + hour_angle));
    }
  } // omp parallel
}

void Coupler::applyTendencies(const physics::PhysicsOutput& out, double dt,
                              dycore::State& state) const {
  if (out.dtdt.entities() < ncells_ || out.dtdt.components() != nlev_) {
    throw std::invalid_argument("Coupler::applyTendencies: shape mismatch");
  }
  // Cells: temperature tendency converts to theta through the Exner
  // function of the column's state before the update; tracers clip at zero
  // (physics can slightly overshoot).
#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(4 * Workspace::bytesFor<double>(nlev_));
#pragma omp for schedule(static)
    for (Index c = 0; c < ncells_; ++c) {
      const Workspace::Frame frame(ws);
      double* exner = ws.get<double>(nlev_);
      double* pi_mid = ws.get<double>(nlev_);
      columnEos(ws, c, nlev_, config_.ptop, state, exner, pi_mid);
      for (int k = 0; k < nlev_; ++k) {
        state.theta(c, k) += out.dtdt(c, k) / exner[k] * dt;
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
  } // omp parallel
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
