// The one checkpoint/restore contract shared by every runner: the solo
// Model (Model::snapshot()/restore()), the multi-rank dynamics step
// (ParallelModel's in-process pool and MpSession's per-rank OS processes)
// and grist_run's driver loop.
//
// The elastic property: captureDynRun writes the GLOBAL canonical state
// (gathered through the decomposition), so the checkpoint carries no trace
// of the writer's rank count beyond provenance. loadDynRestart checks the
// CONFIG section against the resuming run and hands back a global initial
// state that any rank count scatters -- a checkpoint written at N ranks
// restores at M ranks, and because cross-rank bitwise identity is an
// invariant of the step itself, the resumed run is bitwise identical to an
// unbroken one at either rank count.
//
// Every restore path requires the sections its capture writes and checks
// CONFIG in one place, checkConfig, against the section the resuming run
// would write itself: dynConfigSection for dynamics runs, plus the two
// cadences for a Model. A Model checkpoint therefore does not resume a
// dynamics-only run, nor the other way round.
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

/// Throws std::runtime_error "<who>: snapshot has no <SECTION> section"
/// unless `present`.
void requireSection(bool present, io::SectionId id, const char* who);

/// The one CONFIG check of every restore path. Requires a CONFIG section and
/// compares each starred io::ConfigSection field of it (grid level when
/// recorded, mesh numbering, nlev, ntracers, dt, NS mode and the two
/// cadences) with `run`, the section the resuming run would write. Throws
/// std::runtime_error "<who>: CONFIG mismatch: <field> <checkpoint value>
/// (checkpoint) vs <run value> (run)".
void checkConfig(const io::Snapshot& snap, const io::ConfigSection& run,
                 const char* who);

/// Snapshot a dynamics-only run on `mesh`: STATE (global canonical) + CLOCK
/// (steps_done, sim seconds derived from dt) + CONFIG.
io::Snapshot captureDynRun(const dycore::State& global,
                           const dycore::DycoreConfig& cfg,
                           const grid::HexMesh& mesh, long steps_done,
                           Index nranks, std::uint64_t partition_fingerprint);

/// Read `path`, require STATE, CLOCK and CONFIG, check CONFIG against
/// dynConfigSection of the resuming run, and return the global initial
/// state (a STATE shape mismatch throws naming the dimension).
/// `steps_done`, when non-null, receives the checkpointed step count.
dycore::State loadDynRestart(const std::string& path,
                             const grid::HexMesh& mesh,
                             const dycore::DycoreConfig& cfg, int ntracers,
                             long* steps_done);

} // namespace grist::core
