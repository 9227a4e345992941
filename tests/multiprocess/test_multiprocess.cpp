// Cross-process gates for the shm transport (ctest label MULTIPROCESS).
//
// This binary is its own launcher AND its own rank worker: main() dispatches
// on argv before gtest runs, so tests can fork+exec /proc/self/exe into
// worker modes (the same pattern apps/grist_run uses). Modes:
//   --grist-shm-worker ...   an MpSession rank (mp_runner.hpp)
//   --irregular-worker       raw irregular pack/unpack round-trips through
//                            the shm transport at odd rank counts
//   --mismatch-worker        planLocal shape mismatch must name transport
//                            and peer rank/pid
//   --stale-maker            create a segment and exit without unlinking
//                            (simulates a killed run)
//   --exit-worker/--sleep-worker  launcher teardown fixtures
//
// The headline gate: a one-process-per-rank run over shared memory is
// BITWISE identical to the in-process threaded pool -- every rank reads the
// same initial state from the parent, rebuilds the same local domains and
// kernels from the same parameters, and the exchanged halos are exact
// copies whichever address space they cross.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "grist/common/hash.hpp"
#include "grist/core/ensemble_runner.hpp"
#include "grist/core/mp_runner.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/parallel/mp_launch.hpp"
#include "grist/parallel/shm_transport.hpp"

namespace grist {
namespace {

using core::ParallelModel;
using core::mp::MpSession;
using core::mp::RunSpec;

// ---------------------------------------------------------------------------
// Irregular exchange fixture shared by the worker mode and nothing else:
// hand-built patterns with per-pattern entity counts that differ in both
// kind and length (some patterns have no edges at all), multi-component
// variables, rank counts with no divisor structure.

parallel::Decomposition irregularDecomp(Index nranks) {
  parallel::Decomposition d;
  d.nranks = nranks;
  for (Index r = 0; r < nranks; ++r) {
    for (Index k = 1; k <= 2; ++k) {
      parallel::ExchangePattern p;
      p.from = r;
      p.to = (r + k) % nranks;
      const Index nc = 1 + ((r + 2 * k) % 3);  // 1..3 send cells
      for (Index i = 0; i < nc; ++i) p.send_cells.push_back(((r + k) % 4) + 4 * i);
      for (Index i = 0; i < nc; ++i) p.recv_cells.push_back(16 + 4 * (k - 1) + i);
      const Index ne = (r + k) % 3;            // 0..2 send edges
      for (Index i = 0; i < ne; ++i) p.send_edges.push_back(((r + 2 * k) % 3) + 3 * i);
      for (Index i = 0; i < ne; ++i) p.recv_edges.push_back(12 + 3 * (k - 1) + i);
      p.nsend_cells = nc;
      p.nsend_edges = ne;
      d.patterns.push_back(std::move(p));
    }
  }
  return d;
}

constexpr Index kIrrCells = 24;
constexpr Index kIrrEdges = 20;

double irrValue(double salt, Index rank, int var, Index entity, int comp) {
  return salt + 1e6 * rank + 1e4 * var + 1e2 * entity + comp;
}

int irregularWorker(const std::string& seg, Index nranks, Index rank) {
  const parallel::Decomposition d = irregularDecomp(nranks);
  auto transport = std::make_shared<parallel::ShmTransport>(seg, nranks, rank);
  parallel::Communicator comm(d, transport, rank);

  // Same shapes on every rank (required); own storage per process.
  std::vector<double> cells0(static_cast<std::size_t>(kIrrCells) * 2);
  std::vector<double> cells1(static_cast<std::size_t>(kIrrCells) * 1);
  std::vector<double> edges0(static_cast<std::size_t>(kIrrEdges) * 3);
  parallel::ExchangeList list;
  list.addCellVar(cells0.data(), 2);
  list.addCellVar(cells1.data(), 1);
  list.addEdgeVar(edges0.data(), 3);
  comm.planLocal(list);

  const int rounds = 3;
  for (int round = 0; round < rounds; ++round) {
    const double salt = 1.0 + 7.0 * round;
    for (Index c = 0; c < kIrrCells; ++c) {
      for (int j = 0; j < 2; ++j) cells0[static_cast<std::size_t>(c) * 2 + j] = irrValue(salt, rank, 0, c, j);
      cells1[static_cast<std::size_t>(c)] = irrValue(salt, rank, 1, c, 0);
    }
    for (Index e = 0; e < kIrrEdges; ++e) {
      for (int j = 0; j < 3; ++j) edges0[static_cast<std::size_t>(e) * 3 + j] = irrValue(salt, rank, 2, e, j);
    }
    comm.post(rank);
    comm.wait(rank);
    // Halos must now hold the SENDER's fill for this round.
    for (const parallel::ExchangePattern& p : d.patterns) {
      if (p.to != rank) continue;
      for (std::size_t i = 0; i < p.send_cells.size(); ++i) {
        for (int j = 0; j < 2; ++j) {
          const double want = irrValue(salt, p.from, 0, p.send_cells[i], j);
          const double got = cells0[static_cast<std::size_t>(p.recv_cells[i]) * 2 + j];
          if (got != want) {
            std::fprintf(stderr, "rank %d round %d: cell var0 got %g want %g\n",
                         static_cast<int>(rank), round, got, want);
            return 1;
          }
        }
        const double want1 = irrValue(salt, p.from, 1, p.send_cells[i], 0);
        if (cells1[static_cast<std::size_t>(p.recv_cells[i])] != want1) return 1;
      }
      for (std::size_t i = 0; i < p.send_edges.size(); ++i) {
        for (int j = 0; j < 3; ++j) {
          const double want = irrValue(salt, p.from, 2, p.send_edges[i], j);
          if (edges0[static_cast<std::size_t>(p.recv_edges[i]) * 3 + j] != want) return 1;
        }
      }
    }
  }

  // Traffic accounting is run-wide and O(1) per post: after every rank's
  // last post (barrier), totals must be exact -- messages = patterns per
  // round, one "exchange" per round (counted once, by rank 0's post).
  transport->barrier();
  if (rank == 0) {
    std::int64_t round_bytes = 0;
    for (const auto& p : d.patterns) {
      round_bytes += (p.nsend_cells * (2 + 1) + p.nsend_edges * 3) *
                     static_cast<std::int64_t>(sizeof(double));
    }
    const parallel::CommStats st = comm.stats();
    if (st.messages != rounds * static_cast<std::int64_t>(d.patterns.size()) ||
        st.bytes != rounds * round_bytes || st.exchanges != rounds) {
      std::fprintf(stderr, "rank 0: stats mismatch msgs=%lld bytes=%lld ex=%lld\n",
                   static_cast<long long>(st.messages),
                   static_cast<long long>(st.bytes),
                   static_cast<long long>(st.exchanges));
      return 1;
    }
  }
  transport->barrier();  // keep the segment alive until rank 0 read stats
  return 0;
}

int mismatchWorker(const std::string& seg, Index rank) {
  const parallel::Decomposition d = irregularDecomp(2);
  auto transport = std::make_shared<parallel::ShmTransport>(seg, 2, rank);
  parallel::Communicator comm(d, transport, rank);
  std::vector<double> cells(static_cast<std::size_t>(kIrrCells) * 3);
  std::vector<double> edges(static_cast<std::size_t>(kIrrEdges) * 3);
  parallel::ExchangeList list;
  // Rank 1 queues ncomp 3 where rank 0 queues 2: planLocal must throw on
  // BOTH ranks with an error naming the transport and the peer rank/pid.
  list.addCellVar(cells.data(), rank == 1 ? 3 : 2);
  list.addEdgeVar(edges.data(), 3);
  try {
    comm.planLocal(list);
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    const std::string peer = "rank " + std::to_string(1 - rank) + " (pid ";
    if (msg.find("Communicator[shm]") != std::string::npos &&
        msg.find(peer) != std::string::npos &&
        msg.find("ncomp") != std::string::npos) {
      return 0;
    }
    std::fprintf(stderr, "rank %d: unexpected message: %s\n",
                 static_cast<int>(rank), msg.c_str());
    return 1;
  }
  std::fprintf(stderr, "rank %d: planLocal did not throw\n", static_cast<int>(rank));
  return 1;
}

/// Aux worker-mode dispatch (the MpSession worker mode is handled by
/// core::mp::maybeRunWorker in main()).
std::optional<int> maybeRunAuxWorker(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  const std::string mode = argv[1];
  if (mode == "--irregular-worker" && argc == 5) {
    return irregularWorker(argv[2], std::atoi(argv[3]), std::atoi(argv[4]));
  }
  if (mode == "--mismatch-worker" && argc == 4) {
    return mismatchWorker(argv[2], std::atoi(argv[3]));
  }
  if (mode == "--stale-maker" && argc == 3) {
    parallel::ShmRegion r = parallel::ShmRegion::create(argv[2], 256);
    r.markReady();
    return 0;  // exit WITHOUT unlinking: the leftover of a killed run
  }
  if (mode == "--exit-worker" && argc == 3) return std::atoi(argv[2]);
  if (mode == "--sleep-worker" && argc == 3) {
    std::this_thread::sleep_for(std::chrono::seconds(std::atoi(argv[2])));
    return 0;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// The bitwise gate: shm fleet vs threaded pool, ranks x precisions.

void expectStatesBitwise(const dycore::State& a, const dycore::State& b,
                         const grid::HexMesh& mesh, int nlev) {
  ASSERT_EQ(b.tracers.size(), a.tracers.size());
  for (Index c = 0; c < mesh.ncells; ++c) {
    for (int k = 0; k < nlev; ++k) {
      ASSERT_EQ(b.delp(c, k), a.delp(c, k)) << "cell " << c;
      ASSERT_EQ(b.theta(c, k), a.theta(c, k)) << "cell " << c;
      for (std::size_t t = 0; t < a.tracers.size(); ++t) {
        ASSERT_EQ(b.tracers[t](c, k), a.tracers[t](c, k))
            << "tracer " << t << " cell " << c;
      }
    }
    for (int k = 0; k <= nlev; ++k) {
      ASSERT_EQ(b.w(c, k), a.w(c, k));
      ASSERT_EQ(b.phi(c, k), a.phi(c, k));
    }
  }
  for (Index e = 0; e < mesh.nedges; ++e) {
    for (int k = 0; k < nlev; ++k) {
      ASSERT_EQ(b.u(e, k), a.u(e, k)) << "edge " << e;
    }
  }
}

std::uint64_t ownedHashOf(const dycore::State& global,
                          const parallel::LocalDomain& dom, int nlev) {
  // Must mirror RankDycore::ownedHash exactly (owned local rows are
  // bitwise the owned global rows).
  const std::size_t lev = static_cast<std::size_t>(nlev);
  std::uint64_t h = common::kFnvOffsetBasis;
  for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
    const Index g = dom.cell_global[lc];
    h = common::fnv1a(&global.delp(g, 0), lev * sizeof(double), h);
    h = common::fnv1a(&global.theta(g, 0), lev * sizeof(double), h);
    h = common::fnv1a(&global.w(g, 0), (lev + 1) * sizeof(double), h);
    h = common::fnv1a(&global.phi(g, 0), (lev + 1) * sizeof(double), h);
  }
  for (Index le = 0; le < dom.nedges_owned; ++le) {
    h = common::fnv1a(&global.u(dom.edge_global[le], 0), lev * sizeof(double), h);
  }
  for (const auto& tr : global.tracers) {
    for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
      h = common::fnv1a(&tr(dom.cell_global[lc], 0), lev * sizeof(double), h);
    }
  }
  return h;
}

class CrossProcess
    : public ::testing::TestWithParam<std::tuple<Index, precision::NsMode>> {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(3);
    trsk_ = grid::buildTrskWeights(mesh_);
    cfg_.nlev = 8;
    cfg_.dt = 450.0;
  }
  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  dycore::DycoreConfig cfg_;
};

TEST_P(CrossProcess, BitwiseIdenticalToThreadedPool) {
  const auto [nranks, ns] = GetParam();
  cfg_.ns = ns;
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);
  ParallelModel threaded(mesh_, trsk_, cfg_, nranks, initial);

  RunSpec spec;
  spec.nranks = nranks;
  spec.dyn.ns = ns;
  MpSession session(spec, initial);

  const int nsteps = 4;
  threaded.run(nsteps);
  session.run(nsteps);
  const dycore::State a = threaded.gatherState();
  const dycore::State b = session.gather();
  expectStatesBitwise(a, b, mesh_, cfg_.nlev);

  // Per-rank hashes crossed the process boundary through the result
  // segment; they must equal hashes recomputed from the threaded state.
  const parallel::Decomposition decomp = parallel::decompose(mesh_, nranks, 2);
  for (Index r = 0; r < nranks; ++r) {
    EXPECT_EQ(session.rankHash(r), ownedHashOf(a, decomp.domains[r], cfg_.nlev))
        << "rank " << r;
  }

  // Same traffic whichever transport carried it: the fleet's shared
  // counters (fed by concurrent post() from real processes) must equal the
  // in-process pool's.
  const parallel::CommStats ts = threaded.commStats();
  const parallel::CommStats ms = session.commStats();
  EXPECT_EQ(ms.messages, ts.messages);
  EXPECT_EQ(ms.bytes, ts.bytes);
  EXPECT_EQ(ms.exchanges, ts.exchanges);
  // 1 construction fill + 4 exchange rounds per step, on both transports.
  EXPECT_EQ(ms.exchanges, 1 + 4 * nsteps);
}

TEST_P(CrossProcess, ArbitraryInitialStateCrossesBitwise) {
  // A perturbed 3-tracer typhoon: no worker could rebuild it from the run
  // parameters, so only the parent's hand-off through the control segment
  // can start the fleet from it. Gathered before any step it must be the
  // initial state bit for bit (every tracer included), and after steps
  // the threaded pool's state.
  const auto [nranks, ns] = GetParam();
  cfg_.ns = ns;
  dycore::State initial = dycore::initTyphoon(mesh_, cfg_, {}, 3);
  core::EnsembleRunner::perturbState(initial, /*seed=*/0x9e3779b9u, 1e-3);
  ParallelModel threaded(mesh_, trsk_, cfg_, nranks, initial);

  RunSpec spec;
  spec.nranks = nranks;
  spec.dyn.ns = ns;
  MpSession session(spec, initial);
  expectStatesBitwise(initial, session.gather(), mesh_, cfg_.nlev);

  threaded.run(3);
  session.run(3);
  expectStatesBitwise(threaded.gatherState(), session.gather(), mesh_,
                      cfg_.nlev);
}

INSTANTIATE_TEST_SUITE_P(
    RanksByPrecision, CrossProcess,
    ::testing::Combine(::testing::Values<Index>(2, 4, 7),
                       ::testing::Values(precision::NsMode::kDouble,
                                         precision::NsMode::kSingle)),
    [](const auto& info) {
      return "R" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == precision::NsMode::kSingle ? "MIX" : "DP");
    });

// ---------------------------------------------------------------------------
// Irregular pack/unpack round-trips through shm at odd rank counts.

class IrregularShm : public ::testing::TestWithParam<Index> {};

TEST_P(IrregularShm, RoundTripsAcrossProcesses) {
  const Index nranks = GetParam();
  const std::string seg = parallel::makeSegmentName();
  auto pids = parallel::spawnRanks(nranks, /*pin=*/false, [&](Index r) {
    return std::vector<std::string>{"test_multiprocess", "--irregular-worker",
                                    seg, std::to_string(nranks),
                                    std::to_string(r)};
  });
  EXPECT_EQ(parallel::waitRanks(pids), 0);
  parallel::ShmTransport::unlinkSegments(seg);
}

INSTANTIATE_TEST_SUITE_P(OddRanks, IrregularShm, ::testing::Values<Index>(3, 5, 7));

TEST(ShapeValidation, MismatchNamesTransportAndPeerPid) {
  const std::string seg = parallel::makeSegmentName();
  auto pids = parallel::spawnRanks(2, false, [&](Index r) {
    return std::vector<std::string>{"test_multiprocess", "--mismatch-worker",
                                    seg, std::to_string(r)};
  });
  // Each worker exits 0 only if planLocal threw an error naming
  // "Communicator[shm]" and the peer's rank AND pid.
  EXPECT_EQ(parallel::waitRanks(pids), 0);
  parallel::ShmTransport::unlinkSegments(seg);
}

// ---------------------------------------------------------------------------
// Worker argv: every operand is parsed whole-token and range-checked. A bad
// one exits 2 naming the operand and the token, before the worker spawns or
// attaches anything -- so the dispatch can run in this process.

TEST(WorkerArgv, BadOperandExitsTwoNamingOperandAndToken) {
  struct Case {
    int index;          // argv slot replaced
    const char* token;  // the bad value
    const char* name;   // operand the message must name
  };
  const Case cases[] = {
      {3, "0", "nranks"},       {3, "2x", "nranks"},
      {4, "2", "rank"},         {4, "-1", "rank"},
      {5, "3x", "grid_level"},  {5, "abc", "grid_level"},
      {6, "1", "nlev"},         {7, "0", "dt"},
      {7, "nan", "dt"},         {7, "450s", "dt"},
      {8, "-1", "ntracers"},    {9, "fp32", "ns"},
      {9, "DP", "ns"},          {9, "", "ns"},
      {10, "-0.1", "div_damp"}, {10, "0.06x", "div_damp"},
      {11, "inf", "diff_coef"}, {12, "nan", "w_damp_tau"},
      {13, "0", "ptop"},        {14, "100", "p_surface"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> args{"test_multiprocess", "--grist-shm-worker",
                                  "grist-argv-test", "2", "0", "3", "8",
                                  "450", "1", "dp", "0.06", "0.02", "900",
                                  "225", "100000"};
    args[static_cast<std::size_t>(c.index)] = c.token;
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    ::testing::internal::CaptureStderr();
    const std::optional<int> rc =
        core::mp::maybeRunWorker(static_cast<int>(argv.size()), argv.data());
    const std::string err = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(rc.has_value()) << c.name << " '" << c.token << "'";
    EXPECT_EQ(*rc, 2) << c.name << " '" << c.token << "'";
    EXPECT_NE(err.find(std::string(" ") + c.name + " '" + c.token + "'"),
              std::string::npos)
        << err;
  }
}

// ---------------------------------------------------------------------------
// /dev/shm hygiene.

TEST(ShmRegionHygiene, StaleSegmentFromDeadRunIsReclaimed) {
  const std::string name = parallel::makeSegmentName() + "-stale";
  auto pids = parallel::spawnRanks(1, false, [&](Index) {
    return std::vector<std::string>{"test_multiprocess", "--stale-maker", name};
  });
  ASSERT_EQ(parallel::waitRanks(pids), 0);
  // The creator is dead and the name still exists; create() must reclaim it
  // instead of failing with EEXIST.
  parallel::ShmRegion r = parallel::ShmRegion::create(name, 256);
  EXPECT_TRUE(r.created());
  parallel::ShmRegion::unlink(name);
}

TEST(ShmRegionHygiene, SegmentOwnedByLivePidIsRejected) {
  const std::string name = parallel::makeSegmentName() + "-live";
  parallel::ShmRegion mine = parallel::ShmRegion::create(name, 128);
  // Same name, creator (this process) alive: a concurrent run, not stale.
  EXPECT_THROW(parallel::ShmRegion::create(name, 128), std::runtime_error);
  parallel::ShmRegion::unlink(name);
}

// ---------------------------------------------------------------------------
// MpSession start-up and failure: a misshapen initial state is refused
// before anything exists, and a rank killed mid-run fails the session
// without leaking a segment.

/// Pids of this process's live children, from /proc/<pid>/stat.
std::vector<pid_t> childPids() {
  std::vector<pid_t> out;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;  // exited meanwhile
    const std::size_t paren = line.rfind(')');  // comm may hold spaces
    if (paren == std::string::npos) continue;
    std::istringstream rest(line.substr(paren + 1));
    char state = 0;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == ::getpid()) {
      out.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return out;
}

/// Names under /dev/shm that belong to the run named `segment`.
std::vector<std::string> segmentFiles(const std::string& segment) {
  const std::string prefix = segment.substr(segment.find_first_not_of('/'));
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator("/dev/shm")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

TEST(MpSessionStart, RefusesMisshapenInitialStateBeforeSpawning) {
  const grid::HexMesh mesh = grid::buildHexMesh(3);  // RunSpec default
  const grid::HexMesh coarse = grid::buildHexMesh(2);
  dycore::State bad_edges(mesh, 8, 1);
  bad_edges.u = parallel::Field(mesh.nedges + 1, 8);
  const struct {
    dycore::State state;
    const char* dim;
  } cases[] = {{dycore::State(mesh, 9, 1), "nlev"},
               {dycore::State(coarse, 8, 1), "cell count"},
               {bad_edges, "edge count"}};
  for (const auto& c : cases) {
    RunSpec spec;
    spec.segment = parallel::makeSegmentName();
    try {
      MpSession session(spec, c.state);
      ADD_FAILURE() << c.dim << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.dim), std::string::npos)
          << e.what();
    }
    // Nothing was spawned or created.
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << c.dim;
    EXPECT_EQ(errno, ECHILD) << c.dim;
    EXPECT_TRUE(segmentFiles(spec.segment).empty()) << c.dim;
  }
}

TEST(MpSessionFailure, KilledRankFailsRunNamingRankAndExitCode) {
  const grid::HexMesh mesh = grid::buildHexMesh(3);
  RunSpec spec;
  MpSession session(spec, dycore::initBaroclinicWave(mesh, spec.dyn));
  session.run(1);  // fleet up: every rank built its model
  const std::vector<pid_t> workers = childPids();
  ASSERT_EQ(workers.size(), 2u);
  const pid_t victim = workers[1];
  std::thread killer([victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::kill(victim, SIGKILL);
  });
  std::string what;
  try {
    session.run(1 << 30);  // far longer than the test: only a failure ends it
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  killer.join();
  bool named = false;  // "rank <r> (pid <victim>) exited with code 137"
  for (Index r = 0; r < spec.nranks; ++r) {
    named |= what.find("rank " + std::to_string(r) + " (pid " +
                       std::to_string(victim) + ") exited with code 137") !=
             std::string::npos;
  }
  EXPECT_TRUE(named) << what;
  EXPECT_TRUE(segmentFiles(session.segmentName()).empty());
  EXPECT_TRUE(childPids().empty());
}

// ---------------------------------------------------------------------------
// Launcher teardown: one dead rank takes the whole run down, exit code
// propagated, no orphans left sleeping.

TEST(Launcher, ChildFailurePropagatesAndTearsDownPeers) {
  const auto t0 = std::chrono::steady_clock::now();
  auto pids = parallel::spawnRanks(3, false, [&](Index r) {
    if (r == 0) {
      return std::vector<std::string>{"test_multiprocess", "--exit-worker", "7"};
    }
    return std::vector<std::string>{"test_multiprocess", "--sleep-worker", "30"};
  });
  EXPECT_EQ(parallel::waitRanks(pids, /*kill_grace_s=*/2.0), 7);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(took, 20.0) << "sleepers were not torn down";
}

} // namespace
} // namespace grist

int main(int argc, char** argv) {
  // Worker dispatch MUST precede gtest: rank processes re-enter this binary.
  if (auto rc = grist::core::mp::maybeRunWorker(argc, argv)) return *rc;
  if (auto rc = grist::maybeRunAuxWorker(argc, argv)) return *rc;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
