// Versioned, sectioned snapshot format -- the elastic checkpoint/restart
// layer (the operational requirement the 40M-core "eight-year journey"
// paper repeatedly names for year-scale coupled runs).
//
// A snapshot is a single binary file:
//
//   u64 magic "GRISTSW2" | u32 format version | u32 nsections
//   section table: nsections x { id, offset, bytes, crc32 }
//   section payloads
//
// Sections (each optional in the file, each independently CRC32-checksummed;
// the restorers in core/ say which ones they require):
//   STATE   the full prognostic state in GLOBAL CANONICAL ordering
//           ([global entity][level], level fastest -- rank-independent, so
//           a checkpoint written at N ranks restores at M ranks by plain
//           per-rank scatter through parallel::Decomposition)
//   LAND    skin temperature (ncells doubles)
//   CLOCK   simulation seconds + dynamics step count
//   DIAG    the Model accumulator windows (accumulated mass flux + step
//           count, tracer-window start delp, precipitation accumulator) --
//           what makes a MID-tracer-window checkpoint restore bitwise
//   MLWT    ML weight fingerprints + QuantCache snapshot versions (PR 7
//           lifecycle): restore refuses to resume against different nets
//   CONFIG  run-configuration fingerprint (nlev, ntracers, dt, NS mode,
//           cadences, mesh numbering; writer rank count and partition
//           fingerprint as provenance) -- restore rejects incompatible runs
//           by field name
//
// Writes are streamed and atomic: payloads go from the Snapshot's vectors
// straight into `path.tmp` (no serialized copy), then header and table,
// fsync, rename; a crash mid-write never clobbers the last good checkpoint.
// writeCheckpoint() additionally rotates `ckpt-*.grist` files in a
// directory, keeping the newest K (default 2).
//
// Every payload byte is checksummed on both paths; the CRC is computed
// eight bytes at a time (slicing-by-8) over the same reflected polynomial,
// so the values, and the file bytes at format version 4, are those of the
// byte-at-a-time table.
//
// Readers reject wrong magic (including the retired seed-era version-1
// restart files, which carried no CONFIG), truncated headers/tables/
// payloads, format-version mismatches and checksum failures with errors
// naming the offending section. This is the only on-disk state format.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "grist/dycore/state.hpp"

namespace grist::io {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the per-section checksum.
/// `crc32(b, n, crc32(a, m))` equals the CRC of `a` followed by `b`.
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0);

enum class SectionId : std::uint32_t {
  kState = 1,
  kLand = 2,
  kClock = 3,
  kDiag = 4,
  kMlWeights = 5,
  kConfig = 6,
};

/// Human-readable section name used in every error message.
const char* sectionName(SectionId id);

/// Prognostic state in global canonical ordering. The flat arrays are
/// [entity][level] with the level fastest -- exactly parallel::Field's
/// layout -- so capture/restore against a global dycore::State is a copy.
struct StateSection {
  std::int64_t ncells = 0;
  std::int64_t nedges = 0;
  std::int32_t nlev = 0;
  std::int32_t ntracers = 0;
  std::vector<double> delp;   ///< ncells x nlev
  std::vector<double> u;      ///< nedges x nlev
  std::vector<double> w;      ///< ncells x (nlev+1)
  std::vector<double> theta;  ///< ncells x nlev
  std::vector<double> phi;    ///< ncells x (nlev+1)
  std::vector<std::vector<double>> tracers;  ///< each ncells x nlev

  /// Copy a global state into canonical ordering.
  static StateSection capture(const dycore::State& global);
  /// Copy back into a shape-matching global state. Throws std::runtime_error
  /// naming the mismatching dimension (ncells/nedges/nlev/ntracers).
  void restoreTo(dycore::State& global) const;
  /// Build a fresh global state on `mesh` (mesh entity counts must match).
  dycore::State toState(const grid::HexMesh& mesh) const;
};

struct ClockSection {
  double sim_seconds = 0.0;
  std::int64_t dyn_steps = 0;
};

/// Model accumulator windows (see core/model.cpp): with these restored, a
/// checkpoint taken mid-tracer-window continues bitwise.
struct DiagSection {
  std::int64_t ncells = 0;
  std::int64_t nedges = 0;
  std::int32_t nlev = 0;
  std::int32_t acc_steps = 0;              ///< dynamics steps in the flux window
  std::vector<double> acc_flux;            ///< nedges x nlev accumulated mass flux
  std::vector<double> delp_at_tracer_start;///< ncells x nlev
  std::vector<double> precip_accum;        ///< ncells, mm since run start
};

/// ML-suite provenance: weight fingerprints (FNV-1a over all parameters and
/// normalization constants) plus the QuantCache snapshot versions that were
/// live at capture time. Restore refuses a fingerprint mismatch -- resuming
/// a run against different nets silently changes the forecast.
struct MlWeightsSection {
  std::uint64_t q1q2_fingerprint = 0;
  std::uint64_t rad_fingerprint = 0;
  std::uint64_t q1q2_bf16_version = 0;
  std::uint64_t q1q2_int8_version = 0;
  std::uint64_t rad_bf16_version = 0;
  std::uint64_t rad_int8_version = 0;
};

/// Run-configuration fingerprint. The starred fields must match on restore
/// (they decide bitwise continuation); the rest is provenance.
struct ConfigSection {
  std::int32_t grid_level = -1;      ///< * when recorded (-1 = unknown)
  std::int32_t writer_nranks = 1;    ///< provenance: partition at write time
  std::int32_t nlev = 0;             ///< *
  std::int32_t ntracers = 0;         ///< *
  std::int32_t trac_interval = 0;    ///< * when a Model restores (cadence phase)
  std::int32_t phy_interval = 0;     ///< * when a Model restores
  double dt = 0.0;                   ///< *
  std::uint8_t ns_single = 0;        ///< * NsMode: 1 = MIX, 0 = DP
  std::uint64_t partition_fingerprint = 0;  ///< provenance
  /// * grid::numberingFingerprint of the writer's mesh: 0 in the numbering
  /// buildHexMesh gives, nonzero for a relabeled mesh. STATE and DIAG are
  /// stored by global index, so they only mean the same cells under the
  /// same numbering.
  std::uint64_t mesh_fingerprint = 0;
};

/// Header + section table of a snapshot file, without payloads.
struct SnapshotInfo {
  std::uint32_t format_version = 0;
  struct Entry {
    SectionId id;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
  };
  std::vector<Entry> sections;
  bool has(SectionId id) const;
};

/// The in-memory snapshot: a bag of optional sections plus the (de)serializer.
class Snapshot {
 public:
  static constexpr std::uint64_t kMagic = 0x4752495354535732ull;   // "GRISTSW2"
  /// 3: CONFIG carries the mesh-numbering fingerprint. 4: MLWT weight
  /// fingerprints are standard FNV-1a (the offset basis was one digit short
  /// before), so a v3 ML checkpoint is refused by version rather than by a
  /// misleading "weight fingerprint differs".
  static constexpr std::uint32_t kFormatVersion = 4;

  std::optional<StateSection> state;
  std::optional<std::vector<double>> land;  ///< tskin, ncells
  std::optional<ClockSection> clock;
  std::optional<DiagSection> diag;
  std::optional<MlWeightsSection> ml;
  std::optional<ConfigSection> config;

  /// Atomic streamed write into `path.tmp`, fsync, rename over `path`; heap
  /// use is a few path strings, whatever the snapshot's size. Throws
  /// std::runtime_error on any I/O failure (the .tmp is removed).
  void write(const std::string& path) const;

  /// Read and validate a snapshot of version kFormatVersion. Throws
  /// std::runtime_error on missing file, wrong magic, version mismatch,
  /// truncation or checksum failure, naming the offending section.
  static Snapshot read(const std::string& path);

  /// Reads the header + section table only. Same error contract.
  static SnapshotInfo peek(const std::string& path);
};

/// `dir/ckpt-<step>.grist` (step zero-padded so lexical order = step order).
std::string checkpointPath(const std::string& dir, long step);

/// Write `snap` as checkpoint `step` into `dir` (created if missing), then
/// prune old `ckpt-*.grist` files keeping the newest `keep`. Returns the
/// path written. The write itself is atomic, so a crash at any point leaves
/// the previous checkpoints intact.
std::string writeCheckpoint(const std::string& dir, const Snapshot& snap,
                            long step, int keep = 2);

/// Newest `ckpt-*.grist` in `dir`, or "" when none exist.
std::string latestCheckpoint(const std::string& dir);

} // namespace grist::io
