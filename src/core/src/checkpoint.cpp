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

void requireSection(bool present, io::SectionId id, const char* who) {
  if (present) return;
  throw std::runtime_error(std::string(who) + ": snapshot has no " +
                           io::sectionName(id) + " section");
}

void checkConfig(const io::Snapshot& snap, const io::ConfigSection& run,
                 const char* who) {
  requireSection(snap.config.has_value(), io::SectionId::kConfig, who);
  const io::ConfigSection& ckpt = *snap.config;
  const auto mismatch = [who](const char* field, const std::string& have,
                              const std::string& want, const char* why) {
    throw std::runtime_error(std::string(who) + ": CONFIG mismatch: " + field +
                             " " + have + " (checkpoint) vs " + want +
                             " (run)" + why);
  };
  const auto check = [&](const char* field, double have, double want) {
    if (have != want) {
      mismatch(field, std::to_string(have), std::to_string(want), "");
    }
  };
  const auto hex = [](std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  if (ckpt.grid_level >= 0) check("grid_level", ckpt.grid_level, run.grid_level);
  if (ckpt.mesh_fingerprint != run.mesh_fingerprint) {
    mismatch("mesh_fingerprint", hex(ckpt.mesh_fingerprint),
             hex(run.mesh_fingerprint),
             "; the checkpoint was written under a different mesh numbering");
  }
  check("nlev", ckpt.nlev, run.nlev);
  check("ntracers", ckpt.ntracers, run.ntracers);
  check("dt", ckpt.dt, run.dt);
  check("ns_single", ckpt.ns_single, run.ns_single);
  check("trac_interval", ckpt.trac_interval, run.trac_interval);
  check("phy_interval", ckpt.phy_interval, run.phy_interval);
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
  requireSection(snap.state.has_value(), io::SectionId::kState, "restart");
  requireSection(snap.clock.has_value(), io::SectionId::kClock, "restart");
  checkConfig(snap, dynConfigSection(cfg, mesh, ntracers, 1, 0), "restart");
  if (steps_done) *steps_done = static_cast<long>(snap.clock->dyn_steps);
  return snap.state->toState(mesh);
}

} // namespace grist::core
