#include "grist/io/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "grist/io/restart.hpp"

namespace grist::io {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC-32 (table-driven, reflected polynomial).

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Byte-buffer (de)serialization. All fields are native little-endian PODs;
// the format is host-endianness (every target this repo runs on is LE).

struct Writer {
  std::vector<char> buf;
  template <typename T>
  void pod(const T& v) {
    const char* p = reinterpret_cast<const char*>(&v);
    buf.insert(buf.end(), p, p + sizeof(T));
  }
  void doubles(const std::vector<double>& v) {
    const char* p = reinterpret_cast<const char*>(v.data());
    buf.insert(buf.end(), p, p + v.size() * sizeof(double));
  }
};

struct Reader {
  const char* p;
  const char* end;
  SectionId section;
  const std::string& path;
  Reader(const std::vector<char>& b, SectionId id, const std::string& path_)
      : p(b.data()), end(b.data() + b.size()), section(id), path(path_) {}
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) {
      throw std::runtime_error("snapshot: truncated section " +
                               std::string(sectionName(section)) + " in " + path);
    }
  }
  template <typename T>
  T pod() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
  std::vector<double> doubles(std::size_t n) {
    need(n * sizeof(double));
    std::vector<double> v(n);
    std::memcpy(v.data(), p, n * sizeof(double));
    p += n * sizeof(double);
    return v;
  }
  void finish() const {
    if (p != end) {
      throw std::runtime_error("snapshot: trailing bytes in section " +
                               std::string(sectionName(section)) + " in " + path);
    }
  }
};

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

std::vector<char> serializeState(const StateSection& s) {
  Writer w;
  w.pod(s.ncells);
  w.pod(s.nedges);
  w.pod(s.nlev);
  w.pod(s.ntracers);
  w.doubles(s.delp);
  w.doubles(s.u);
  w.doubles(s.w);
  w.doubles(s.theta);
  w.doubles(s.phi);
  for (const auto& t : s.tracers) w.doubles(t);
  return std::move(w.buf);
}

StateSection parseState(const std::vector<char>& buf, const std::string& path) {
  Reader r(buf, SectionId::kState, path);
  StateSection s;
  s.ncells = r.pod<std::int64_t>();
  s.nedges = r.pod<std::int64_t>();
  s.nlev = r.pod<std::int32_t>();
  s.ntracers = r.pod<std::int32_t>();
  if (s.ncells < 0 || s.nedges < 0 || s.nlev < 0 || s.ntracers < 0) {
    throw std::runtime_error("snapshot: negative shape in section STATE in " + path);
  }
  const std::size_t nc = static_cast<std::size_t>(s.ncells);
  const std::size_t ne = static_cast<std::size_t>(s.nedges);
  const std::size_t lev = static_cast<std::size_t>(s.nlev);
  s.delp = r.doubles(nc * lev);
  s.u = r.doubles(ne * lev);
  s.w = r.doubles(nc * (lev + 1));
  s.theta = r.doubles(nc * lev);
  s.phi = r.doubles(nc * (lev + 1));
  s.tracers.reserve(static_cast<std::size_t>(s.ntracers));
  for (std::int32_t t = 0; t < s.ntracers; ++t) s.tracers.push_back(r.doubles(nc * lev));
  r.finish();
  return s;
}

std::vector<char> serializeLand(const std::vector<double>& tskin) {
  Writer w;
  w.pod(static_cast<std::int64_t>(tskin.size()));
  w.doubles(tskin);
  return std::move(w.buf);
}

std::vector<double> parseLand(const std::vector<char>& buf, const std::string& path) {
  Reader r(buf, SectionId::kLand, path);
  const auto n = r.pod<std::int64_t>();
  if (n < 0) throw std::runtime_error("snapshot: negative shape in section LAND in " + path);
  auto v = r.doubles(static_cast<std::size_t>(n));
  r.finish();
  return v;
}

std::vector<char> serializeClock(const ClockSection& c) {
  Writer w;
  w.pod(c.sim_seconds);
  w.pod(c.dyn_steps);
  return std::move(w.buf);
}

ClockSection parseClock(const std::vector<char>& buf, const std::string& path) {
  Reader r(buf, SectionId::kClock, path);
  ClockSection c;
  c.sim_seconds = r.pod<double>();
  c.dyn_steps = r.pod<std::int64_t>();
  r.finish();
  return c;
}

std::vector<char> serializeDiag(const DiagSection& d) {
  Writer w;
  w.pod(d.ncells);
  w.pod(d.nedges);
  w.pod(d.nlev);
  w.pod(d.acc_steps);
  w.doubles(d.acc_flux);
  w.doubles(d.delp_at_tracer_start);
  w.doubles(d.precip_accum);
  return std::move(w.buf);
}

DiagSection parseDiag(const std::vector<char>& buf, const std::string& path) {
  Reader r(buf, SectionId::kDiag, path);
  DiagSection d;
  d.ncells = r.pod<std::int64_t>();
  d.nedges = r.pod<std::int64_t>();
  d.nlev = r.pod<std::int32_t>();
  d.acc_steps = r.pod<std::int32_t>();
  if (d.ncells < 0 || d.nedges < 0 || d.nlev < 0) {
    throw std::runtime_error("snapshot: negative shape in section DIAG in " + path);
  }
  const std::size_t nc = static_cast<std::size_t>(d.ncells);
  const std::size_t ne = static_cast<std::size_t>(d.nedges);
  const std::size_t lev = static_cast<std::size_t>(d.nlev);
  d.acc_flux = r.doubles(ne * lev);
  d.delp_at_tracer_start = r.doubles(nc * lev);
  d.precip_accum = r.doubles(nc);
  r.finish();
  return d;
}

std::vector<char> serializeMl(const MlWeightsSection& m) {
  Writer w;
  w.pod(m.q1q2_fingerprint);
  w.pod(m.rad_fingerprint);
  w.pod(m.q1q2_bf16_version);
  w.pod(m.q1q2_int8_version);
  w.pod(m.rad_bf16_version);
  w.pod(m.rad_int8_version);
  return std::move(w.buf);
}

MlWeightsSection parseMl(const std::vector<char>& buf, const std::string& path) {
  Reader r(buf, SectionId::kMlWeights, path);
  MlWeightsSection m;
  m.q1q2_fingerprint = r.pod<std::uint64_t>();
  m.rad_fingerprint = r.pod<std::uint64_t>();
  m.q1q2_bf16_version = r.pod<std::uint64_t>();
  m.q1q2_int8_version = r.pod<std::uint64_t>();
  m.rad_bf16_version = r.pod<std::uint64_t>();
  m.rad_int8_version = r.pod<std::uint64_t>();
  r.finish();
  return m;
}

std::vector<char> serializeConfig(const ConfigSection& c) {
  Writer w;
  w.pod(c.grid_level);
  w.pod(c.writer_nranks);
  w.pod(c.nlev);
  w.pod(c.ntracers);
  w.pod(c.trac_interval);
  w.pod(c.phy_interval);
  w.pod(c.dt);
  w.pod(c.ns_single);
  w.pod(c.partition_fingerprint);
  w.pod(c.mesh_fingerprint);
  return std::move(w.buf);
}

ConfigSection parseConfig(const std::vector<char>& buf, const std::string& path) {
  Reader r(buf, SectionId::kConfig, path);
  ConfigSection c;
  c.grid_level = r.pod<std::int32_t>();
  c.writer_nranks = r.pod<std::int32_t>();
  c.nlev = r.pod<std::int32_t>();
  c.ntracers = r.pod<std::int32_t>();
  c.trac_interval = r.pod<std::int32_t>();
  c.phy_interval = r.pod<std::int32_t>();
  c.dt = r.pod<double>();
  c.ns_single = r.pod<std::uint8_t>();
  c.partition_fingerprint = r.pod<std::uint64_t>();
  c.mesh_fingerprint = r.pod<std::uint64_t>();
  r.finish();
  return c;
}

/// Read a whole file; distinguishes "cannot open" from "empty".
std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  const std::streamsize n = in.tellg();
  in.seekg(0);
  std::vector<char> buf(static_cast<std::size_t>(n));
  if (n > 0) in.read(buf.data(), n);
  if (!in) throw std::runtime_error("snapshot: read failed for " + path);
  return buf;
}

/// Parse header + table from a raw file image (no payload validation).
SnapshotInfo parseTable(const std::vector<char>& file, const std::string& path) {
  SnapshotInfo info;
  if (file.size() < kHeaderBytes) {
    throw std::runtime_error("snapshot: truncated header in " + path);
  }
  std::uint64_t magic = 0;
  std::memcpy(&magic, file.data(), sizeof magic);
  if (magic != Snapshot::kMagic) {
    throw std::runtime_error("snapshot: bad magic in " + path);
  }
  std::uint32_t version = 0, nsections = 0;
  std::memcpy(&version, file.data() + 8, sizeof version);
  std::memcpy(&nsections, file.data() + 12, sizeof nsections);
  if (version != Snapshot::kFormatVersion) {
    throw std::runtime_error("snapshot: format version " + std::to_string(version) +
                             " unsupported (this build reads version " +
                             std::to_string(Snapshot::kFormatVersion) + ") in " + path);
  }
  info.format_version = version;
  const std::size_t table_bytes = static_cast<std::size_t>(nsections) * sizeof(TableEntry);
  if (file.size() < kHeaderBytes + table_bytes) {
    throw std::runtime_error("snapshot: truncated section table in " + path);
  }
  for (std::uint32_t i = 0; i < nsections; ++i) {
    TableEntry e;
    std::memcpy(&e, file.data() + kHeaderBytes + i * sizeof(TableEntry), sizeof e);
    info.sections.push_back({static_cast<SectionId>(e.id), e.offset, e.bytes, e.crc});
  }
  return info;
}

/// Extract + checksum one section's payload.
std::vector<char> sectionPayload(const std::vector<char>& file,
                                 const SnapshotInfo::Entry& e,
                                 const std::string& path) {
  const char* name = sectionName(e.id);
  if (e.offset > file.size() || e.bytes > file.size() - e.offset) {
    throw std::runtime_error("snapshot: truncated section " + std::string(name) +
                             " in " + path);
  }
  std::vector<char> buf(file.begin() + static_cast<std::ptrdiff_t>(e.offset),
                        file.begin() + static_cast<std::ptrdiff_t>(e.offset + e.bytes));
  if (crc32(buf.data(), buf.size()) != e.crc) {
    throw std::runtime_error("snapshot: CRC mismatch in section " +
                             std::string(name) + " in " + path);
  }
  return buf;
}

/// Legacy GRISTSW1 (io/restart.hpp writeRestart) -> STATE + LAND + CLOCK.
Snapshot readLegacy(const std::string& path) {
  dycore::State state;
  std::vector<double> tskin;
  // readRestartHeader gives the shapes; build a mesh-free state of exactly
  // those shapes so readRestart's validation passes.
  const RestartHeader h = readRestartHeader(path);
  state.nlev = h.nlev;
  state.delp = parallel::Field(h.ncells, h.nlev);
  state.theta = parallel::Field(h.ncells, h.nlev);
  state.w = parallel::Field(h.ncells, h.nlev + 1);
  state.phi = parallel::Field(h.ncells, h.nlev + 1);
  state.u = parallel::Field(h.nedges, h.nlev);
  state.tracers.assign(static_cast<std::size_t>(h.ntracers),
                       parallel::Field(h.ncells, h.nlev));
  readRestart(path, state, tskin);
  Snapshot snap;
  snap.state = StateSection::capture(state);
  snap.land = std::move(tskin);
  ClockSection clock;
  clock.sim_seconds = h.sim_seconds;
  clock.dyn_steps = -1;  // unknown in the legacy format
  snap.clock = clock;
  return snap;
}

bool isLegacyMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  return in && magic == kLegacyRestartMagic;
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
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
  // Serialize every present section.
  std::vector<std::pair<SectionId, std::vector<char>>> parts;
  if (state) parts.emplace_back(SectionId::kState, serializeState(*state));
  if (land) parts.emplace_back(SectionId::kLand, serializeLand(*land));
  if (clock) parts.emplace_back(SectionId::kClock, serializeClock(*clock));
  if (diag) parts.emplace_back(SectionId::kDiag, serializeDiag(*diag));
  if (ml) parts.emplace_back(SectionId::kMlWeights, serializeMl(*ml));
  if (config) parts.emplace_back(SectionId::kConfig, serializeConfig(*config));

  Writer out;
  out.pod(kMagic);
  out.pod(kFormatVersion);
  out.pod(static_cast<std::uint32_t>(parts.size()));
  std::uint64_t offset = kHeaderBytes + parts.size() * sizeof(TableEntry);
  for (const auto& [id, buf] : parts) {
    TableEntry e;
    e.id = static_cast<std::uint32_t>(id);
    e.offset = offset;
    e.bytes = buf.size();
    e.crc = crc32(buf.data(), buf.size());
    out.pod(e);
    offset += buf.size();
  }
  for (const auto& [id, buf] : parts) {
    out.buf.insert(out.buf.end(), buf.begin(), buf.end());
  }

  // Atomic publish: tmp + fsync + rename. A crash at any point leaves either
  // the previous `path` intact or a dangling .tmp that the next write
  // truncates over.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("snapshot: cannot open " + tmp + ": " +
                             std::strerror(errno));
  }
  const char* p = out.buf.data();
  std::size_t left = out.buf.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw std::runtime_error("snapshot: write failed for " + tmp + ": " +
                               std::strerror(err));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("snapshot: fsync failed for " + tmp + ": " +
                             std::strerror(err));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
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

SnapshotInfo Snapshot::peek(const std::string& path) {
  if (isLegacyMagic(path)) {
    const RestartHeader h = readRestartHeader(path);
    (void)h;
    SnapshotInfo info;
    info.format_version = 1;
    info.legacy = true;
    return info;
  }
  return parseTable(slurp(path), path);
}

Snapshot Snapshot::read(const std::string& path) {
  if (isLegacyMagic(path)) return readLegacy(path);
  const std::vector<char> file = slurp(path);
  const SnapshotInfo info = parseTable(file, path);
  Snapshot snap;
  for (const SnapshotInfo::Entry& e : info.sections) {
    const std::vector<char> buf = sectionPayload(file, e, path);
    switch (e.id) {
      case SectionId::kState: snap.state = parseState(buf, path); break;
      case SectionId::kLand: snap.land = parseLand(buf, path); break;
      case SectionId::kClock: snap.clock = parseClock(buf, path); break;
      case SectionId::kDiag: snap.diag = parseDiag(buf, path); break;
      case SectionId::kMlWeights: snap.ml = parseMl(buf, path); break;
      case SectionId::kConfig: snap.config = parseConfig(buf, path); break;
      default:
        // Unknown sections are skipped (forward-compatible readers), but
        // their CRC was still validated above.
        break;
    }
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
