#include "grist/io/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace grist::io {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC-32 (reflected polynomial 0xEDB88320), sliced by 8: table k maps a byte
// to its CRC contribution k bytes ahead of the register, so one step folds
// eight bytes. Table 0 is the classic byte-at-a-time table.

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

// On-disk section table entry (32 bytes).
struct TableEntry {
  std::uint32_t id = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(TableEntry) == 32);

constexpr std::size_t kHeaderBytes = sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t);

[[noreturn]] void sectionError(const char* what, SectionId id, const std::string& path) {
  throw std::runtime_error("snapshot: " + std::string(what) + " section " +
                           sectionName(id) + " in " + path);
}

/// Elements in an a x b array. Saturates, so a hostile shape reads as too
/// large for its section instead of wrapping to a small count.
std::size_t elems(std::int64_t a, std::int64_t b) {
  std::size_t n = 0;
  if (__builtin_mul_overflow(static_cast<std::size_t>(a), static_cast<std::size_t>(b), &n)) {
    return std::numeric_limits<std::size_t>::max();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Section layouts. Each section's byte layout is spelled once, as a function
// template over an IO visitor: Sink streams a const section into the file
// (Snapshot::write), Source parses one into a fresh section (Snapshot::read).
// All fields are native little-endian PODs; the format is host-endianness
// (every target this repo runs on is LE). The visitor's calls:
//   pod(v)               one POD field
//   shape(v)             one POD array dimension, which must be >= 0
//   doubles(v, n)        an array of n doubles
//   rows(vs, count, n)   count arrays of n doubles each

template <class S, class T>
concept SectionOf = std::same_as<std::remove_const_t<S>, T>;

template <class IO, SectionOf<StateSection> S>
void layout(IO& io, S& s) {
  io.shape(s.ncells);
  io.shape(s.nedges);
  io.shape(s.nlev);
  io.shape(s.ntracers);
  const std::size_t cells = elems(s.ncells, s.nlev);
  const std::size_t columns = elems(s.ncells, s.nlev + std::int64_t{1});
  io.doubles(s.delp, cells);
  io.doubles(s.u, elems(s.nedges, s.nlev));
  io.doubles(s.w, columns);
  io.doubles(s.theta, cells);
  io.doubles(s.phi, columns);
  io.rows(s.tracers, s.ntracers, cells);
}

/// LAND: the skin temperature, prefixed by its length.
template <class IO, SectionOf<std::vector<double>> S>
void layout(IO& io, S& tskin) {
  auto n = static_cast<std::int64_t>(tskin.size());
  io.shape(n);
  io.doubles(tskin, static_cast<std::size_t>(n));
}

template <class IO, SectionOf<ClockSection> S>
void layout(IO& io, S& c) {
  io.pod(c.sim_seconds);
  io.pod(c.dyn_steps);
}

template <class IO, SectionOf<DiagSection> S>
void layout(IO& io, S& d) {
  io.shape(d.ncells);
  io.shape(d.nedges);
  io.shape(d.nlev);
  io.pod(d.acc_steps);
  io.doubles(d.acc_flux, elems(d.nedges, d.nlev));
  io.doubles(d.delp_at_tracer_start, elems(d.ncells, d.nlev));
  io.doubles(d.precip_accum, static_cast<std::size_t>(d.ncells));
}

template <class IO, SectionOf<MlWeightsSection> S>
void layout(IO& io, S& m) {
  io.pod(m.q1q2_fingerprint);
  io.pod(m.rad_fingerprint);
  io.pod(m.q1q2_bf16_version);
  io.pod(m.q1q2_int8_version);
  io.pod(m.rad_bf16_version);
  io.pod(m.rad_int8_version);
}

template <class IO, SectionOf<ConfigSection> S>
void layout(IO& io, S& c) {
  io.pod(c.grid_level);
  io.pod(c.writer_nranks);
  io.pod(c.nlev);
  io.pod(c.ntracers);
  io.pod(c.trac_interval);
  io.pod(c.phy_interval);
  io.pod(c.dt);
  io.pod(c.ns_single);
  io.pod(c.partition_fingerprint);
  io.pod(c.mesh_fingerprint);
}

/// Every section in file order: `f(id, member)` with the snapshot's
/// std::optional member for that section.
template <class Snap, class F>
void forEachSection(Snap& snap, F&& f) {
  f(SectionId::kState, snap.state);
  f(SectionId::kLand, snap.land);
  f(SectionId::kClock, snap.clock);
  f(SectionId::kDiag, snap.diag);
  f(SectionId::kMlWeights, snap.ml);
  f(SectionId::kConfig, snap.config);
}

/// Parses one section from its CRC-checked span of the file image; every
/// read is bounds-checked against the span before any arithmetic on it.
class Source {
 public:
  Source(const char* p, std::size_t bytes, SectionId id, const std::string& path)
      : p_(p), end_(p + bytes), id_(id), path_(path) {}

  template <typename T>
  void pod(T& v) {
    if (left() < sizeof(T)) sectionError("truncated", id_, path_);
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
  }
  template <typename T>
  void shape(T& v) {
    pod(v);
    if (v < 0) sectionError("negative shape in", id_, path_);
  }
  void doubles(std::vector<double>& v, std::size_t n) {
    if (n > left() / sizeof(double)) sectionError("truncated", id_, path_);
    v.resize(n);
    std::memcpy(v.data(), p_, n * sizeof(double));
    p_ += n * sizeof(double);
  }
  void rows(std::vector<std::vector<double>>& vs, std::int64_t count, std::size_t n) {
    // An empty row costs no bytes, so no size check would bound their count.
    if (count > 0 && n == 0) sectionError("empty rows in", id_, path_);
    for (std::int64_t i = 0; i < count; ++i) doubles(vs.emplace_back(), n);
  }
  void finish() const {
    if (p_ != end_) sectionError("trailing bytes in", id_, path_);
  }

 private:
  std::size_t left() const { return static_cast<std::size_t>(end_ - p_); }

  const char* p_;
  const char* end_;
  SectionId id_;
  const std::string& path_;
};

/// Streams a snapshot into the tmp file a write publishes: every field and
/// array straight from the section, each section under a running CRC32.
/// Until publish(), a failure or an escaping exception closes and unlinks
/// the tmp file.
class Sink {
 public:
  explicit Sink(std::string tmp)
      : tmp_(std::move(tmp)), fd_(::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)) {
    if (fd_ < 0) fail("cannot open ");
  }
  ~Sink() {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(tmp_.c_str());
    }
  }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  template <typename T>
  void pod(const T& v) { put(&v, sizeof(T)); }
  template <typename T>
  void shape(const T& v) { put(&v, sizeof(T)); }
  void doubles(const std::vector<double>& v, std::size_t) {
    put(v.data(), v.size() * sizeof(double));
  }
  void rows(const std::vector<std::vector<double>>& vs, std::int64_t, std::size_t n) {
    for (const std::vector<double>& v : vs) doubles(v, n);
  }

  void seek(std::uint64_t offset) { offset_ = offset; }
  /// Stream one section at the write position; returns its table entry.
  template <class S>
  TableEntry section(SectionId id, const S& s) {
    TableEntry e;
    e.id = static_cast<std::uint32_t>(id);
    e.offset = offset_;
    crc_ = 0;
    layout(*this, s);
    e.bytes = offset_ - e.offset;
    e.crc = crc_;
    return e;
  }
  /// Atomic publish: fsync, close, rename over `path`, fsync the directory.
  /// A crash at any point leaves either the previous `path` intact or a
  /// dangling .tmp that the next write truncates over.
  void publish(const std::string& path) {
    if (::fsync(fd_) != 0) fail("fsync failed for ");
    ::close(fd_);
    fd_ = -1;
    if (::rename(tmp_.c_str(), path.c_str()) != 0) {
      const int err = errno;
      ::unlink(tmp_.c_str());
      throw std::runtime_error("snapshot: rename to " + path + " failed: " +
                               std::strerror(err));
    }
    // Make the rename itself durable (fsync the containing directory).
    const fs::path parent = fs::path(path).parent_path();
    const std::string dirname = parent.empty() ? "." : parent.string();
    const int dfd = ::open(dirname.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    const int err = errno;
    throw std::runtime_error("snapshot: " + std::string(what) + tmp_ + ": " +
                             std::strerror(err));
  }
  void put(const void* data, std::size_t bytes) {
    crc_ = crc32(data, bytes, crc_);
    const char* p = static_cast<const char*>(data);
    while (bytes > 0) {
      const ssize_t n = ::pwrite(fd_, p, bytes, static_cast<off_t>(offset_));
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("write failed for ");
      }
      p += n;
      bytes -= static_cast<std::size_t>(n);
      offset_ += static_cast<std::uint64_t>(n);
    }
  }

  std::string tmp_;
  int fd_;
  std::uint64_t offset_ = 0;
  std::uint32_t crc_ = 0;
};

/// Open a snapshot for reading; distinguishes "cannot open" from "empty".
std::ifstream openSnapshot(const std::string& path, std::size_t& bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  bytes = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  return in;
}

void readInto(std::ifstream& in, void* dst, std::size_t bytes, const std::string& path) {
  if (bytes > 0) in.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  if (!in) throw std::runtime_error("snapshot: read failed for " + path);
}

/// Read and check the header + section table at the start of `in`, a
/// `file_bytes`-byte file (no payload validation).
SnapshotInfo readTable(std::ifstream& in, std::size_t file_bytes, const std::string& path) {
  if (file_bytes < kHeaderBytes) {
    throw std::runtime_error("snapshot: truncated header in " + path);
  }
  std::uint64_t magic = 0;
  std::uint32_t version = 0, nsections = 0;
  readInto(in, &magic, sizeof magic, path);
  readInto(in, &version, sizeof version, path);
  readInto(in, &nsections, sizeof nsections, path);
  if (magic != Snapshot::kMagic) {
    throw std::runtime_error("snapshot: bad magic in " + path);
  }
  if (version != Snapshot::kFormatVersion) {
    throw std::runtime_error("snapshot: format version " + std::to_string(version) +
                             " unsupported (this build reads version " +
                             std::to_string(Snapshot::kFormatVersion) + ") in " + path);
  }
  if (file_bytes - kHeaderBytes < static_cast<std::size_t>(nsections) * sizeof(TableEntry)) {
    throw std::runtime_error("snapshot: truncated section table in " + path);
  }
  SnapshotInfo info;
  info.format_version = version;
  for (std::uint32_t i = 0; i < nsections; ++i) {
    TableEntry e;
    readInto(in, &e, sizeof e, path);
    info.sections.push_back({static_cast<SectionId>(e.id), e.offset, e.bytes, e.crc});
  }
  return info;
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  // Eight bytes per step, loaded little-endian like the format itself.
  for (; bytes >= 8; p += 8, bytes -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    const std::uint32_t lo = static_cast<std::uint32_t>(word) ^ c;
    const auto hi = static_cast<std::uint32_t>(word >> 32);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; bytes > 0; ++p, --bytes) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* sectionName(SectionId id) {
  switch (id) {
    case SectionId::kState: return "STATE";
    case SectionId::kLand: return "LAND";
    case SectionId::kClock: return "CLOCK";
    case SectionId::kDiag: return "DIAG";
    case SectionId::kMlWeights: return "MLWT";
    case SectionId::kConfig: return "CONFIG";
  }
  return "UNKNOWN";
}

bool SnapshotInfo::has(SectionId id) const {
  for (const Entry& e : sections) {
    if (e.id == id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// StateSection <-> dycore::State

StateSection StateSection::capture(const dycore::State& g) {
  StateSection s;
  s.ncells = g.delp.entities();
  s.nedges = g.u.entities();
  s.nlev = g.nlev;
  s.ntracers = static_cast<std::int32_t>(g.tracers.size());
  const auto copy = [](const parallel::Field& f) {
    return std::vector<double>(f.data(), f.data() + f.size());
  };
  s.delp = copy(g.delp);
  s.u = copy(g.u);
  s.w = copy(g.w);
  s.theta = copy(g.theta);
  s.phi = copy(g.phi);
  s.tracers.reserve(g.tracers.size());
  for (const auto& t : g.tracers) s.tracers.push_back(copy(t));
  return s;
}

void StateSection::restoreTo(dycore::State& g) const {
  const auto fail = [](const char* dim, long long have, long long want) {
    throw std::runtime_error(
        "snapshot: STATE shape mismatch: " + std::string(dim) + " " +
        std::to_string(have) + " (checkpoint) vs " + std::to_string(want) +
        " (run)");
  };
  if (ncells != g.delp.entities()) fail("ncells", ncells, g.delp.entities());
  if (nedges != g.u.entities()) fail("nedges", nedges, g.u.entities());
  if (nlev != g.nlev) fail("nlev", nlev, g.nlev);
  if (ntracers != static_cast<std::int32_t>(g.tracers.size())) {
    fail("ntracers", ntracers, static_cast<long long>(g.tracers.size()));
  }
  const auto copy = [](const std::vector<double>& v, parallel::Field& f) {
    std::memcpy(f.data(), v.data(), v.size() * sizeof(double));
  };
  copy(delp, g.delp);
  copy(u, g.u);
  copy(w, g.w);
  copy(theta, g.theta);
  copy(phi, g.phi);
  for (std::size_t t = 0; t < tracers.size(); ++t) copy(tracers[t], g.tracers[t]);
}

dycore::State StateSection::toState(const grid::HexMesh& mesh) const {
  dycore::State g(mesh, nlev, ntracers);
  restoreTo(g);
  return g;
}

// ---------------------------------------------------------------------------
// Snapshot write/read

void Snapshot::write(const std::string& path) const {
  std::uint32_t nsections = 0;
  forEachSection(*this, [&](SectionId, const auto& s) { nsections += s.has_value(); });
  Sink out(path + ".tmp");
  // Payloads first, after room for the header and table; those go in last,
  // once every section's size and CRC is known.
  out.seek(kHeaderBytes + nsections * sizeof(TableEntry));
  std::array<TableEntry, 6> table;  // at most one entry per section
  std::size_t n = 0;
  forEachSection(*this, [&](SectionId id, const auto& s) {
    if (s) table[n++] = out.section(id, *s);
  });
  out.seek(0);
  out.pod(kMagic);
  out.pod(kFormatVersion);
  out.pod(nsections);
  for (std::size_t i = 0; i < nsections; ++i) out.pod(table[i]);
  out.publish(path);
}

SnapshotInfo Snapshot::peek(const std::string& path) {
  std::size_t bytes = 0;
  std::ifstream in = openSnapshot(path, bytes);
  return readTable(in, bytes, path);
}

Snapshot Snapshot::read(const std::string& path) {
  std::size_t bytes = 0;
  std::ifstream in = openSnapshot(path, bytes);
  const SnapshotInfo info = readTable(in, bytes, path);
  std::vector<char> file(bytes);
  in.seekg(0);
  readInto(in, file.data(), bytes, path);
  Snapshot snap;
  for (const SnapshotInfo::Entry& e : info.sections) {
    if (e.offset > bytes || e.bytes > bytes - e.offset) sectionError("truncated", e.id, path);
    const char* span = file.data() + e.offset;
    // Unknown sections are skipped (forward-compatible readers), but their
    // CRC is still validated.
    if (crc32(span, e.bytes) != e.crc) sectionError("CRC mismatch in", e.id, path);
    forEachSection(snap, [&](SectionId id, auto& s) {
      if (id != e.id) return;
      Source src(span, e.bytes, id, path);
      layout(src, s.emplace());
      src.finish();
    });
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Checkpoint rotation

std::string checkpointPath(const std::string& dir, long step) {
  char name[64];
  std::snprintf(name, sizeof name, "ckpt-%012ld.grist", step);
  return (fs::path(dir) / name).string();
}

std::string writeCheckpoint(const std::string& dir, const Snapshot& snap,
                            long step, int keep) {
  if (keep < 1) throw std::invalid_argument("writeCheckpoint: keep must be >= 1");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("writeCheckpoint: cannot create " + dir + ": " +
                             ec.message());
  }
  const std::string path = checkpointPath(dir, step);
  snap.write(path);
  // Keep-last-`keep` rotation: prune older ckpt-*.grist (never the one just
  // written -- lexical order equals step order by construction).
  std::vector<std::string> ckpts;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".grist") == 0) {
      ckpts.push_back(entry.path().string());
    }
  }
  std::sort(ckpts.begin(), ckpts.end());
  for (std::size_t i = 0; i + static_cast<std::size_t>(keep) < ckpts.size(); ++i) {
    fs::remove(ckpts[i], ec);
  }
  return path;
}

std::string latestCheckpoint(const std::string& dir) {
  std::error_code ec;
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".grist") == 0) {
      const std::string p = entry.path().string();
      if (p > best) best = p;
    }
  }
  return best;
}

} // namespace grist::io
