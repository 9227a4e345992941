// The sectioned snapshot format (io/snapshot.hpp): round trips, the
// hardened-reader edge cases (missing file, wrong magic including the
// retired seed-era restart format, truncation, version mismatch, checksum
// flips -- each error naming the offending section), atomic writes and
// keep-last-K rotation.
#include "grist/io/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "grist/dycore/init.hpp"

namespace grist::io {
namespace {

namespace fs = std::filesystem;

std::vector<char> slurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<char> buf(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  return buf;
}

void dumpFile(const std::string& path, const std::vector<char>& buf) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: ctest runs each TEST as its own process in
    // parallel, so a shared fixed path would race between test cases.
    dir_ = (fs::temp_directory_path() /
            ("grist_snapshot_test." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/snap.grist";
    mesh_ = grid::buildHexMesh(2);
    cfg_.nlev = 6;
    cfg_.dt = 600.0;
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A snapshot with every section populated deterministically.
  Snapshot makeFull() {
    Snapshot snap;
    snap.state = StateSection::capture(dycore::initBaroclinicWave(mesh_, cfg_, 2));
    snap.land = std::vector<double>(static_cast<std::size_t>(mesh_.ncells), 289.25);
    ClockSection clock;
    clock.sim_seconds = 7200.0;
    clock.dyn_steps = 12;
    snap.clock = clock;
    DiagSection diag;
    diag.ncells = mesh_.ncells;
    diag.nedges = mesh_.nedges;
    diag.nlev = cfg_.nlev;
    diag.acc_steps = 3;
    diag.acc_flux.assign(
        static_cast<std::size_t>(mesh_.nedges) * cfg_.nlev, 0.5);
    diag.delp_at_tracer_start.assign(
        static_cast<std::size_t>(mesh_.ncells) * cfg_.nlev, 100.0);
    diag.precip_accum.assign(static_cast<std::size_t>(mesh_.ncells), 1.5);
    snap.diag = diag;
    MlWeightsSection ml;
    ml.q1q2_fingerprint = 0x1111;
    ml.rad_fingerprint = 0x2222;
    ml.q1q2_bf16_version = 3;
    snap.ml = ml;
    ConfigSection cs;
    cs.grid_level = 2;
    cs.writer_nranks = 4;
    cs.nlev = cfg_.nlev;
    cs.ntracers = 2;
    cs.trac_interval = 4;
    cs.phy_interval = 8;
    cs.dt = cfg_.dt;
    cs.ns_single = 1;
    cs.partition_fingerprint = 0xABCD;
    snap.config = cs;
    return snap;
  }

  std::string dir_, path_;
  grid::HexMesh mesh_;
  dycore::DycoreConfig cfg_;
};

TEST_F(SnapshotTest, FullRoundTripIsExact) {
  const Snapshot snap = makeFull();
  snap.write(path_);
  const Snapshot back = Snapshot::read(path_);

  ASSERT_TRUE(back.state && back.land && back.clock && back.diag && back.ml &&
              back.config);
  EXPECT_EQ(back.state->ncells, snap.state->ncells);
  EXPECT_EQ(back.state->nedges, snap.state->nedges);
  EXPECT_EQ(back.state->nlev, snap.state->nlev);
  EXPECT_EQ(back.state->ntracers, snap.state->ntracers);
  EXPECT_EQ(back.state->delp, snap.state->delp);
  EXPECT_EQ(back.state->u, snap.state->u);
  EXPECT_EQ(back.state->w, snap.state->w);
  EXPECT_EQ(back.state->theta, snap.state->theta);
  EXPECT_EQ(back.state->phi, snap.state->phi);
  EXPECT_EQ(back.state->tracers, snap.state->tracers);
  EXPECT_EQ(*back.land, *snap.land);
  EXPECT_DOUBLE_EQ(back.clock->sim_seconds, 7200.0);
  EXPECT_EQ(back.clock->dyn_steps, 12);
  EXPECT_EQ(back.diag->acc_steps, 3);
  EXPECT_EQ(back.diag->acc_flux, snap.diag->acc_flux);
  EXPECT_EQ(back.diag->delp_at_tracer_start, snap.diag->delp_at_tracer_start);
  EXPECT_EQ(back.diag->precip_accum, snap.diag->precip_accum);
  EXPECT_EQ(back.ml->q1q2_fingerprint, 0x1111u);
  EXPECT_EQ(back.ml->rad_fingerprint, 0x2222u);
  EXPECT_EQ(back.ml->q1q2_bf16_version, 3u);
  EXPECT_EQ(back.config->writer_nranks, 4);
  EXPECT_EQ(back.config->ns_single, 1);
  EXPECT_EQ(back.config->partition_fingerprint, 0xABCDu);

  const SnapshotInfo info = Snapshot::peek(path_);
  EXPECT_EQ(info.format_version, Snapshot::kFormatVersion);
  EXPECT_EQ(info.sections.size(), 6u);
  EXPECT_TRUE(info.has(SectionId::kState));
  EXPECT_TRUE(info.has(SectionId::kConfig));
}

TEST_F(SnapshotTest, OptionalSectionsStayAbsent) {
  Snapshot snap;
  snap.state = makeFull().state;
  snap.write(path_);
  const Snapshot back = Snapshot::read(path_);
  EXPECT_TRUE(back.state.has_value());
  EXPECT_FALSE(back.land || back.clock || back.diag || back.ml || back.config);
}

TEST_F(SnapshotTest, Crc32MatchesKnownVectors) {
  // The IEEE check value: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST_F(SnapshotTest, WrongMagicIsRejected) {
  // Garbage, and a header of the retired seed-era restart format (its
  // magic, four int64 shapes, sim seconds): that format carried no CONFIG,
  // so it is refused like any other foreign file.
  std::vector<char> garbage(64, '\0');
  std::memcpy(garbage.data(), "definitely not a snapshot file", 30);
  std::vector<char> seed_era(48, '\0');
  const std::uint64_t seed_era_magic = Snapshot::kMagic - 1;  // "...SW1"
  std::memcpy(seed_era.data(), &seed_era_magic, sizeof seed_era_magic);
  for (const std::vector<char>& bytes : {garbage, seed_era}) {
    dumpFile(path_, bytes);
    for (const bool peek : {false, true}) {
      try {
        if (peek) {
          Snapshot::peek(path_);
        } else {
          Snapshot::read(path_);
        }
        FAIL() << "expected bad-magic rejection";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
            << e.what();
      }
    }
  }
  try {
    Snapshot::read(dir_ + "/no-such-file.grist");
    FAIL() << "expected missing-file rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotTest, TruncatedHeaderPeekThrows) {
  {
    std::ofstream out(path_, std::ios::binary);
    const std::uint32_t half = 0x54535752;
    out.write(reinterpret_cast<const char*>(&half), sizeof half);
  }
  try {
    Snapshot::peek(path_);
    FAIL() << "expected truncated-header rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"), std::string::npos);
  }
}

TEST_F(SnapshotTest, VersionMismatchNamesBothVersions) {
  // 2 is the version before CONFIG carried the mesh-numbering fingerprint:
  // such files hold values under the pre-BFS numbering and must be refused.
  for (const std::uint32_t bogus : {99u, 2u}) {
    makeFull().write(path_);
    std::vector<char> buf = slurpFile(path_);
    std::memcpy(buf.data() + 8, &bogus, sizeof bogus);  // version field
    dumpFile(path_, buf);
    try {
      Snapshot::read(path_);
      FAIL() << "expected version rejection of " << bogus;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(bogus) + " unsupported"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("version " + std::to_string(Snapshot::kFormatVersion)),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(SnapshotTest, TruncatedPayloadNamesSection) {
  makeFull().write(path_);
  std::vector<char> buf = slurpFile(path_);
  buf.resize(buf.size() - 8);  // chop into the last section's payload (CONFIG)
  dumpFile(path_, buf);
  try {
    Snapshot::read(path_);
    FAIL() << "expected truncation rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated section CONFIG"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, ChecksumFlipNamesSection) {
  makeFull().write(path_);
  std::vector<char> buf = slurpFile(path_);
  // Flip one byte deep inside the STATE payload (first section after the
  // 16-byte header + 6 * 32-byte table).
  buf[16 + 6 * 32 + 1000] ^= 0x40;
  dumpFile(path_, buf);
  try {
    Snapshot::read(path_);
    FAIL() << "expected CRC rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("STATE"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, ShapeMismatchNamesDimension) {
  const Snapshot snap = makeFull();
  dycore::State wrong(mesh_, cfg_.nlev + 2, 2);
  try {
    snap.state->restoreTo(wrong);
    FAIL() << "expected shape rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nlev"), std::string::npos) << what;
    EXPECT_NE(what.find("6"), std::string::npos) << what;
    EXPECT_NE(what.find("8"), std::string::npos) << what;
  }
  dycore::State wrong_tr(mesh_, cfg_.nlev, 5);
  try {
    snap.state->restoreTo(wrong_tr);
    FAIL() << "expected tracer-count rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ntracers"), std::string::npos);
  }
}

TEST_F(SnapshotTest, WriteIsAtomicAndLeavesNoTmp) {
  const Snapshot first = makeFull();
  first.write(path_);
  Snapshot second = makeFull();
  second.clock->dyn_steps = 99;
  second.write(path_);
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
  EXPECT_EQ(Snapshot::read(path_).clock->dyn_steps, 99);
  // A directory that cannot be written into fails without clobbering.
  EXPECT_THROW(first.write(dir_ + "/no/such/dir/x.grist"), std::runtime_error);
}

TEST_F(SnapshotTest, CheckpointRotationKeepsNewestTwo) {
  const Snapshot snap = makeFull();
  const std::string ckdir = dir_ + "/ck";
  for (long step : {10, 20, 30, 40}) {
    const std::string p = writeCheckpoint(ckdir, snap, step);
    EXPECT_EQ(p, checkpointPath(ckdir, step));
    EXPECT_TRUE(fs::exists(p));
  }
  EXPECT_FALSE(fs::exists(checkpointPath(ckdir, 10)));
  EXPECT_FALSE(fs::exists(checkpointPath(ckdir, 20)));
  EXPECT_TRUE(fs::exists(checkpointPath(ckdir, 30)));
  EXPECT_TRUE(fs::exists(checkpointPath(ckdir, 40)));
  EXPECT_EQ(latestCheckpoint(ckdir), checkpointPath(ckdir, 40));
  EXPECT_THROW(writeCheckpoint(ckdir, snap, 50, /*keep=*/0),
               std::invalid_argument);
}

TEST_F(SnapshotTest, ZeroPaddedNamesKeepLexicalStepOrder) {
  EXPECT_LT(checkpointPath("d", 999), checkpointPath("d", 1000));
  EXPECT_EQ(latestCheckpoint(dir_ + "/empty-or-missing"), "");
}

} // namespace
} // namespace grist::io
