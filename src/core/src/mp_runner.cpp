#include "grist/core/mp_runner.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "grist/common/parse.hpp"
#include "grist/parallel/mp_launch.hpp"
#include "grist/parallel/shm_transport.hpp"

namespace grist::core::mp {

namespace {

constexpr const char* kWorkerFlag = "--grist-shm-worker";
constexpr std::uint32_t kCmdStep = 1;
constexpr std::uint32_t kCmdGather = 2;
constexpr std::uint32_t kCmdStop = 3;

constexpr std::size_t kAlign = 64;
std::size_t alignUp(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Command/ack mailbox at offset 0 of the control/result segment. The
/// parent writes the command fields, then release-stores cmd_seq and rings
/// the futex; each worker executes, then joins a counting ack barrier whose
/// last arriver release-stores ack_seq back. Stats are filled by rank 0 at
/// gather time (they are run-wide totals in the transport segment, so one
/// reporter suffices).
struct CtlBlock {
  std::atomic<std::uint32_t> cmd_seq;
  std::atomic<std::uint32_t> ack_seq;
  std::atomic<std::uint32_t> done_count;
  std::uint32_t cmd;
  std::int32_t nsteps;
  std::int32_t pad_;
  double wire_latency;
  std::int64_t messages;
  std::int64_t bytes;
  std::int64_t exchanges;
  char pad2_[128 - 56];
};
static_assert(sizeof(CtlBlock) == 128);

const char* nsName(precision::NsMode ns) {
  return ns == precision::NsMode::kSingle ? "mix" : "dp";
}

/// The global-state area of the payload at `base`: writeOwned's targets.
std::vector<double*> stateArea(const ResultLayout& l, void* base) {
  std::vector<double*> area;
  for (const std::size_t off : l.field_off) {
    area.push_back(reinterpret_cast<double*>(static_cast<std::uint8_t*>(base) + off));
  }
  return area;
}

/// The one copy between a global State and a global-state area
/// (stateArea): a const State is copied into the area, a mutable one is
/// filled from it. The State's shape sizes every copy.
template <typename StateT>
void copyState(StateT& s, const std::vector<double*>& area) {
  std::vector<decltype(&s.delp)> fields{&s.delp, &s.theta, &s.w, &s.phi, &s.u};
  for (auto& tracer : s.tracers) fields.push_back(&tracer);
  for (std::size_t v = 0; v < fields.size(); ++v) {
    const std::size_t bytes = fields[v]->size() * sizeof(double);
    if constexpr (std::is_const_v<StateT>) {
      std::memcpy(area[v], fields[v]->data(), bytes);
    } else {
      std::memcpy(fields[v]->data(), area[v], bytes);
    }
  }
}

/// A fresh global State of the given shape, filled from `area`.
dycore::State stateFrom(const std::vector<double*>& area, const grid::HexMesh& mesh,
                        int nlev, int ntracers) {
  dycore::State s(mesh, nlev, ntracers);
  copyState(s, area);
  return s;
}

} // namespace

ResultLayout ResultLayout::compute(Index nranks, Index ncells, Index nedges,
                                   int nlev, int ntracers) {
  ResultLayout l;
  l.ntracers = ntracers;
  const std::size_t nc = static_cast<std::size_t>(ncells);
  const std::size_t lev = static_cast<std::size_t>(nlev);
  std::vector<std::size_t> values{nc * lev, nc * lev, nc * (lev + 1),
                                  nc * (lev + 1),
                                  static_cast<std::size_t>(nedges) * lev};
  values.insert(values.end(), static_cast<std::size_t>(ntracers), nc * lev);
  std::size_t off = alignUp(sizeof(CtlBlock));
  l.hashes_off = off;
  off = alignUp(off + static_cast<std::size_t>(nranks) * sizeof(std::uint64_t));
  for (const std::size_t n : values) {
    l.field_off.push_back(off);
    off = alignUp(off + n * sizeof(double));
  }
  l.total = off;
  return l;
}

// ---------------------------------------------------------------------------
// RankProcessModel

RankProcessModel::RankProcessModel(const grid::HexMesh& mesh,
                                   const grid::TrskWeights& trsk,
                                   dycore::DycoreConfig config, Index nranks,
                                   Index rank,
                                   const dycore::State& global_initial,
                                   std::shared_ptr<parallel::Transport> transport)
    : decomp_(parallel::decompose(mesh, nranks, /*halo_depth=*/2)),
      comm_(decomp_, std::move(transport), rank),
      rank_(decomp_.domains[rank], trsk, config, global_initial, comm_, rank) {
  comm_.planLocal(rank_.exchangeList());
  // Initial halo fill, the distributed twin of ParallelModel's
  // construction-time round (same bytes, same seq bump, same CommStats
  // totals across the fleet).
  comm_.post(rank);
  comm_.wait(rank);
}

void RankProcessModel::run(int nsteps) {
  for (int i = 0; i < nsteps; ++i) step();
}

// ---------------------------------------------------------------------------
// Worker side

namespace {

int workerMain(const RunSpec& spec, Index rank, int ntracers) {
  const grid::HexMesh mesh = grid::buildHexMesh(spec.grid_level);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  const dycore::DycoreConfig& cfg = spec.dyn;
  const ResultLayout lay = ResultLayout::compute(
      spec.nranks, mesh.ncells, mesh.nedges, cfg.nlev, ntracers);
  parallel::ShmRegion ctl =
      parallel::ShmRegion::attach(spec.segment + "-ctl", lay.total);
  auto* base = static_cast<std::uint8_t*>(ctl.payload());
  auto* c = reinterpret_cast<CtlBlock*>(base);
  const std::vector<double*> area = stateArea(lay, base);

  // Read the parent's global initial state and scatter this rank's slice.
  // The global copy is a temporary, so only the slice outlives
  // construction. The constructor's halo round is collective, so every
  // peer has read the area before any gather writes to it.
  auto transport = std::make_shared<parallel::ShmTransport>(spec.segment,
                                                            spec.nranks, rank);
  RankProcessModel model(mesh, trsk, cfg, spec.nranks, rank,
                         stateFrom(area, mesh, cfg.nlev, ntracers), transport);

  std::uint32_t last = 0;
  for (;;) {
    std::uint32_t s = c->cmd_seq.load(std::memory_order_acquire);
    while (s == last) {
      parallel::futexWait(&c->cmd_seq, s, 0.5);
      s = c->cmd_seq.load(std::memory_order_acquire);
      // Orphan guard: if the parent vanished without a stop command, exit
      // instead of idling on a leaked segment forever.
      if (s == last && ::getppid() == 1) return 3;
    }
    const std::uint32_t cmd = c->cmd;
    switch (cmd) {
      case kCmdStep:
        model.setWireLatency(c->wire_latency);
        model.run(c->nsteps);
        break;
      case kCmdGather:
        model.local().writeOwned(area.data());
        reinterpret_cast<std::uint64_t*>(base + lay.hashes_off)[rank] =
            model.local().ownedHash();
        if (rank == 0) {
          const parallel::CommStats st = model.commStats();
          c->messages = st.messages;
          c->bytes = st.bytes;
          c->exchanges = st.exchanges;
        }
        break;
      case kCmdStop:
      default:
        break;
    }
    last = s;
    // Counting ack barrier: the last rank to finish this command publishes
    // the ack (its acquire fetch_add orders every peer's writes before the
    // parent's acquire load of ack_seq).
    if (c->done_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint32_t>(spec.nranks)) {
      c->done_count.store(0, std::memory_order_relaxed);
      c->ack_seq.store(s, std::memory_order_release);
      parallel::futexWake(&c->ack_seq, INT_MAX);
    }
    if (cmd == kCmdStop) return 0;
  }
}

} // namespace

namespace {

/// One numeric worker operand: the whole token inside [lo, hi], or a
/// message naming the operand and the token.
template <typename T>
bool operand(const char* name, const char* token, T lo, T hi, T& out) {
  if (const std::optional<T> v = grist::parseNumber<T>(token, lo, hi)) {
    out = *v;
    return true;
  }
  std::fprintf(stderr, "%s: invalid %s '%s'\n", kWorkerFlag, name, token);
  return false;
}

} // namespace

std::optional<int> maybeRunWorker(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], kWorkerFlag) != 0) return std::nullopt;
  if (argc != 15) {
    std::fprintf(stderr, "%s: expected 13 operands, got %d\n", kWorkerFlag,
                 argc - 2);
    return 2;
  }
  RunSpec spec;
  spec.segment = argv[2];
  Index rank = 0;
  int ntracers = 0;
  dycore::DycoreConfig& dyn = spec.dyn;
  constexpr Index kMaxIndex = std::numeric_limits<Index>::max();
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr double kMinPositive = std::numeric_limits<double>::min();
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  if (!operand<Index>("nranks", argv[3], 1, kMaxIndex, spec.nranks) ||
      !operand<Index>("rank", argv[4], 0, spec.nranks - 1, rank) ||
      !operand("grid_level", argv[5], 0, kMaxInt, spec.grid_level) ||
      !operand("nlev", argv[6], 2, kMaxInt, dyn.nlev) ||
      !operand("dt", argv[7], kMinPositive, kMaxDouble, dyn.dt) ||
      !operand("ntracers", argv[8], 0, kMaxInt, ntracers)) {
    return 2;
  }
  if (std::strcmp(argv[9], "dp") == 0) {
    dyn.ns = precision::NsMode::kDouble;
  } else if (std::strcmp(argv[9], "mix") == 0) {
    dyn.ns = precision::NsMode::kSingle;
  } else {
    std::fprintf(stderr, "%s: invalid ns '%s' (want dp or mix)\n", kWorkerFlag,
                 argv[9]);
    return 2;
  }
  if (!operand("div_damp", argv[10], 0.0, kMaxDouble, dyn.div_damp) ||
      !operand("diff_coef", argv[11], 0.0, kMaxDouble, dyn.diff_coef) ||
      !operand("w_damp_tau", argv[12], 0.0, kMaxDouble, dyn.w_damp_tau) ||
      !operand("ptop", argv[13], kMinPositive, kMaxDouble, dyn.ptop) ||
      !operand("p_surface", argv[14], dyn.ptop, kMaxDouble, dyn.p_surface)) {
    return 2;
  }
  try {
    return workerMain(spec, rank, ntracers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[grist shm worker rank %d] %s\n",
                 static_cast<int>(rank), e.what());
    return 1;
  }
}

// ---------------------------------------------------------------------------
// Parent side

MpSession::MpSession(RunSpec spec, const dycore::State& initial)
    : spec_(std::move(spec)), mesh_(grid::buildHexMesh(spec_.grid_level)) {
  if (spec_.nranks <= 0) {
    throw std::invalid_argument("MpSession: need at least one rank");
  }
  const char* bad = initial.nlev != spec_.dyn.nlev             ? "nlev"
                    : initial.delp.entities() != mesh_.ncells ? "cell count"
                    : initial.u.entities() != mesh_.nedges    ? "edge count"
                                                              : nullptr;
  if (bad) {
    throw std::invalid_argument(std::string("MpSession: initial state ") +
                                bad + " disagrees with the spec");
  }
  if (spec_.segment.empty()) spec_.segment = parallel::makeSegmentName();
  const int ntracers = static_cast<int>(initial.tracers.size());
  layout_ = ResultLayout::compute(spec_.nranks, mesh_.ncells, mesh_.nedges,
                                  spec_.dyn.nlev, ntracers);
  hashes_.assign(static_cast<std::size_t>(spec_.nranks), 0);

  // Doubles travel as %.17g, which round-trips every value exactly.
  const auto exact = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  const dycore::DycoreConfig& dyn = spec_.dyn;
  const auto argv_for = [&](Index r) {
    return std::vector<std::string>{
        "grist-shm-worker",
        kWorkerFlag,
        spec_.segment,
        std::to_string(spec_.nranks),
        std::to_string(r),
        std::to_string(spec_.grid_level),
        std::to_string(dyn.nlev),
        exact(dyn.dt),
        std::to_string(ntracers),
        nsName(dyn.ns),
        exact(dyn.div_damp),
        exact(dyn.diff_coef),
        exact(dyn.w_damp_tau),
        exact(dyn.ptop),
        exact(dyn.p_surface)};
  };

  // The control/result segment is parent-created; it carries the initial
  // state to the workers, which attach by the derived "-ctl" name once it
  // is ready. The TRANSPORT segment is created by rank 0 inside planLocal
  // (it knows the message sizes); the parent only unlinks it at teardown.
  ctl_ = parallel::ShmRegion::create(spec_.segment + "-ctl", layout_.total);
  try {
    copyState(initial, stateArea(layout_, ctl_.payload()));
    ctl_.markReady();
    pids_ = parallel::spawnRanks(spec_.nranks, spec_.pin, argv_for);
  } catch (...) {
    // A throwing constructor gets no destructor: unlink here. spawnRanks
    // has reaped every rank it started, but rank 0 may have created the
    // transport segments first.
    parallel::ShmTransport::unlinkSegments(spec_.segment);
    parallel::ShmRegion::unlink(spec_.segment + "-ctl");
    throw;
  }
  exit_codes_.assign(pids_.size(), -1);
}

MpSession::~MpSession() {
  if (!failed_) {
    try {
      command(kCmdStop, 0);
    } catch (...) {
      // failSession already tore the fleet down; fall through to unlink.
    }
  }
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (exit_codes_[i] < 0) ::waitpid(pids_[i], nullptr, 0);
  }
  parallel::ShmTransport::unlinkSegments(spec_.segment);
  parallel::ShmRegion::unlink(spec_.segment + "-ctl");
}

void MpSession::probeChildren() {
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (exit_codes_[i] >= 0) continue;
    int status = 0;
    const pid_t w = ::waitpid(pids_[i], &status, WNOHANG);
    if (w == 0) continue;
    int code = 1;
    if (w == pids_[i]) {
      if (WIFEXITED(status)) {
        code = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        code = 128 + WTERMSIG(status);
      }
    }
    exit_codes_[i] = code;
    // ANY exit while a command is outstanding is fatal -- even a clean one
    // means the rank can never ack.
    failSession("rank " + std::to_string(i) + " (pid " +
                std::to_string(pids_[i]) + ") exited with code " +
                std::to_string(code) + " mid-command");
  }
}

void MpSession::failSession(const std::string& why) {
  failed_ = true;
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (exit_codes_[i] < 0) ::kill(pids_[i], SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    while (exit_codes_[i] < 0) {
      int status = 0;
      if (::waitpid(pids_[i], &status, WNOHANG) != 0) {
        exit_codes_[i] = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pids_[i], SIGKILL);
        ::waitpid(pids_[i], &status, 0);
        exit_codes_[i] = 137;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  parallel::ShmTransport::unlinkSegments(spec_.segment);
  parallel::ShmRegion::unlink(spec_.segment + "-ctl");
  throw std::runtime_error("MpSession: " + why);
}

void MpSession::command(std::uint32_t cmd, int nsteps) {
  if (failed_) throw std::logic_error("MpSession: session already failed");
  auto* c = static_cast<CtlBlock*>(ctl_.payload());
  c->cmd = cmd;
  c->nsteps = nsteps;
  c->wire_latency = spec_.wire_latency;
  const std::uint32_t s = ++seq_;
  c->cmd_seq.store(s, std::memory_order_release);
  parallel::futexWake(&c->cmd_seq, INT_MAX);
  for (;;) {
    const std::uint32_t a = c->ack_seq.load(std::memory_order_acquire);
    if (a == s) return;
    parallel::futexWait(&c->ack_seq, a, 0.05);
    if (cmd != kCmdStop) probeChildren();
  }
}

void MpSession::run(int nsteps) { command(kCmdStep, nsteps); }

void MpSession::refreshResults() {
  const auto* base = static_cast<const std::uint8_t*>(ctl_.payload());
  const auto* c = reinterpret_cast<const CtlBlock*>(base);
  const auto* h = reinterpret_cast<const std::uint64_t*>(base + layout_.hashes_off);
  for (Index r = 0; r < spec_.nranks; ++r) {
    hashes_[static_cast<std::size_t>(r)] = h[r];
  }
  stats_.messages = c->messages;
  stats_.bytes = c->bytes;
  stats_.exchanges = c->exchanges;
}

dycore::State MpSession::gather() {
  command(kCmdGather, 0);
  refreshResults();
  return stateFrom(stateArea(layout_, ctl_.payload()), mesh_, spec_.dyn.nlev,
                   layout_.ntracers);
}

parallel::CommStats MpSession::commStats() {
  command(kCmdGather, 0);
  refreshResults();
  return stats_;
}

} // namespace grist::core::mp
