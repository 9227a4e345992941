// The one checkpoint/restore API shared by every runner of the multi-rank
// dynamics step (ParallelModel's in-process pool and MpSession's per-rank
// OS processes) and by grist_run's driver loop.
//
// The elastic property: captureDynRun writes the GLOBAL canonical state
// (gathered through the decomposition), so the checkpoint carries no trace
// of the writer's rank count beyond provenance. loadDynRestart re-validates
// the CONFIG section against the resuming run and hands back a global
// initial state that any rank count scatters -- a checkpoint written at N
// ranks restores at M ranks, and because cross-rank bitwise identity is an
// invariant of the step itself, the resumed run is bitwise identical to an
// unbroken one at either rank count.
//
// Model (the full physics-coupled driver) has its own richer pair --
// Model::snapshot()/restore() -- built from the same io::Snapshot sections.
#pragma once

#include <cstdint>
#include <string>

#include "grist/dycore/config.hpp"
#include "grist/dycore/state.hpp"
#include "grist/io/snapshot.hpp"

namespace grist::core {

/// CONFIG section describing a dynamics-only run (no cadences) on `mesh`.
io::ConfigSection dynConfigSection(const dycore::DycoreConfig& cfg,
                                   const grid::HexMesh& mesh, int ntracers,
                                   Index nranks,
                                   std::uint64_t partition_fingerprint);

/// Refuse a checkpoint whose mesh numbering differs from `mesh`'s: its
/// values are stored by global index and would land in the wrong cells.
/// Throws std::runtime_error naming both fingerprints; `who` prefixes the
/// message.
void checkMeshNumbering(const io::ConfigSection& cs, const grid::HexMesh& mesh,
                        const char* who);

/// Validate the bitwise-relevant CONFIG fields (grid_level, mesh numbering,
/// nlev, ntracers, dt, NS mode) and STATE presence/shape against the
/// resuming run. Throws std::runtime_error naming the mismatching field. A
/// snapshot without a CONFIG section (legacy files) only gets the STATE
/// shape check.
void validateDynSnapshot(const io::Snapshot& snap,
                         const dycore::DycoreConfig& cfg,
                         const grid::HexMesh& mesh, int ntracers);

/// Snapshot a dynamics-only run on `mesh`: STATE (global canonical) + CLOCK
/// (steps_done, sim seconds derived from dt) + CONFIG.
io::Snapshot captureDynRun(const dycore::State& global,
                           const dycore::DycoreConfig& cfg,
                           const grid::HexMesh& mesh, long steps_done,
                           Index nranks, std::uint64_t partition_fingerprint);

/// Read `path`, validate against the resuming run, and return the global
/// initial state. `steps_done`, when non-null, receives the checkpointed
/// step count (0 for legacy files that never recorded one).
dycore::State loadDynRestart(const std::string& path,
                             const grid::HexMesh& mesh,
                             const dycore::DycoreConfig& cfg, int ntracers,
                             long* steps_done);

} // namespace grist::core
