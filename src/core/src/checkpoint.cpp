#include "grist/core/checkpoint.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace grist::core {

io::ConfigSection dynConfigSection(const dycore::DycoreConfig& cfg,
                                   const grid::HexMesh& mesh, int ntracers,
                                   Index nranks,
                                   std::uint64_t partition_fingerprint) {
  io::ConfigSection cs;
  cs.grid_level = mesh.level;
  cs.writer_nranks = static_cast<std::int32_t>(nranks);
  cs.nlev = cfg.nlev;
  cs.ntracers = ntracers;
  cs.trac_interval = 0;  // dynamics-only: no cadences
  cs.phy_interval = 0;
  cs.dt = cfg.dt;
  cs.ns_single = cfg.ns == precision::NsMode::kSingle ? 1 : 0;
  cs.partition_fingerprint = partition_fingerprint;
  cs.mesh_fingerprint = grid::numberingFingerprint(mesh);
  return cs;
}

void checkMeshNumbering(const io::ConfigSection& cs, const grid::HexMesh& mesh,
                        const char* who) {
  const std::uint64_t run = grid::numberingFingerprint(mesh);
  if (cs.mesh_fingerprint == run) return;
  const auto hex = [](std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  throw std::runtime_error(std::string(who) +
                           ": CONFIG mismatch: mesh_fingerprint " +
                           hex(cs.mesh_fingerprint) + " (checkpoint) vs " +
                           hex(run) +
                           " (run); the checkpoint was written under a "
                           "different mesh numbering");
}

void validateDynSnapshot(const io::Snapshot& snap,
                         const dycore::DycoreConfig& cfg,
                         const grid::HexMesh& mesh, int ntracers) {
  if (!snap.state) {
    throw std::runtime_error("restart: snapshot has no STATE section");
  }
  const auto mismatch = [](const char* field, double have, double want) {
    throw std::runtime_error("restart: CONFIG mismatch: " +
                             std::string(field) + " " + std::to_string(have) +
                             " (checkpoint) vs " + std::to_string(want) +
                             " (run)");
  };
  if (snap.config) {
    const io::ConfigSection& cs = *snap.config;
    if (cs.grid_level >= 0 && cs.grid_level != mesh.level) {
      mismatch("grid_level", cs.grid_level, mesh.level);
    }
    checkMeshNumbering(cs, mesh, "restart");
    if (cs.nlev != cfg.nlev) mismatch("nlev", cs.nlev, cfg.nlev);
    if (cs.ntracers != ntracers) mismatch("ntracers", cs.ntracers, ntracers);
    if (cs.dt != cfg.dt) mismatch("dt", cs.dt, cfg.dt);
    const std::uint8_t ns = cfg.ns == precision::NsMode::kSingle ? 1 : 0;
    if (cs.ns_single != ns) mismatch("ns_single", cs.ns_single, ns);
  }
  const io::StateSection& s = *snap.state;
  if (s.ncells != mesh.ncells) {
    mismatch("ncells", static_cast<double>(s.ncells), mesh.ncells);
  }
  if (s.nedges != mesh.nedges) {
    mismatch("nedges", static_cast<double>(s.nedges), mesh.nedges);
  }
  if (s.nlev != cfg.nlev) mismatch("nlev", s.nlev, cfg.nlev);
  if (s.ntracers != ntracers) mismatch("ntracers", s.ntracers, ntracers);
}

io::Snapshot captureDynRun(const dycore::State& global,
                           const dycore::DycoreConfig& cfg,
                           const grid::HexMesh& mesh, long steps_done,
                           Index nranks, std::uint64_t partition_fingerprint) {
  io::Snapshot snap;
  snap.state = io::StateSection::capture(global);
  io::ClockSection clock;
  clock.sim_seconds = static_cast<double>(steps_done) * cfg.dt;
  clock.dyn_steps = steps_done;
  snap.clock = clock;
  snap.config = dynConfigSection(cfg, mesh,
                                 static_cast<int>(global.tracers.size()),
                                 nranks, partition_fingerprint);
  return snap;
}

dycore::State loadDynRestart(const std::string& path,
                             const grid::HexMesh& mesh,
                             const dycore::DycoreConfig& cfg, int ntracers,
                             long* steps_done) {
  const io::Snapshot snap = io::Snapshot::read(path);
  validateDynSnapshot(snap, cfg, mesh, ntracers);
  if (steps_done) {
    *steps_done = snap.clock && snap.clock->dyn_steps >= 0
                      ? static_cast<long>(snap.clock->dyn_steps)
                      : 0;
  }
  return snap.state->toState(mesh);
}

} // namespace grist::core
