#include "grist/parallel/exchange.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "grist/grid/hex_mesh.hpp"

namespace grist::parallel {
namespace {

// A recognizable global value: f(global_id, comp).
double marker(Index global, int comp) { return 1000.0 * global + comp; }

// One exchange round of the post/wait protocol driven from this thread:
// bind `lists`, post every rank, then wait on every rank (every message is
// published before any wait, so no wait can block on an unposted one).
void exchangeRound(Communicator& comm, std::vector<ExchangeList>& lists) {
  comm.plan(lists);
  const Index nranks = static_cast<Index>(lists.size());
  for (Index r = 0; r < nranks; ++r) comm.post(r);
  for (Index r = 0; r < nranks; ++r) comm.wait(r);
}

class ExchangeRanks : public ::testing::TestWithParam<Index> {
 protected:
  grid::HexMesh mesh_ = grid::buildHexMesh(3);
  Decomposition d_ = decompose(mesh_, GetParam());
};

TEST_P(ExchangeRanks, HaloReceivesOwnerValues) {
  const int nlev = 4;
  std::vector<Field> cell_fields, edge_fields;
  std::vector<ExchangeList> lists(d_.nranks);
  for (Index r = 0; r < d_.nranks; ++r) {
    const LocalDomain& dom = d_.domains[r];
    cell_fields.emplace_back(dom.mesh.ncells, nlev, -1.0);
    edge_fields.emplace_back(dom.mesh.nedges, nlev, -1.0);
  }
  for (Index r = 0; r < d_.nranks; ++r) {
    const LocalDomain& dom = d_.domains[r];
    // Fill owned entities only; halos stay at the -1 sentinel.
    for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
      for (int k = 0; k < nlev; ++k) cell_fields[r](lc, k) = marker(dom.cell_global[lc], k);
    }
    for (Index le = 0; le < dom.nedges_owned; ++le) {
      for (int k = 0; k < nlev; ++k) edge_fields[r](le, k) = marker(dom.edge_global[le], k);
    }
    lists[r].addCellField(cell_fields[r]);
    lists[r].addEdgeField(edge_fields[r]);
  }

  Communicator comm(d_);
  exchangeRound(comm, lists);

  for (Index r = 0; r < d_.nranks; ++r) {
    const LocalDomain& dom = d_.domains[r];
    for (Index lc = 0; lc < dom.mesh.ncells; ++lc) {
      for (int k = 0; k < nlev; ++k) {
        EXPECT_DOUBLE_EQ(cell_fields[r](lc, k), marker(dom.cell_global[lc], k))
            << "rank " << r << " cell " << lc;
      }
    }
    for (Index le = 0; le < dom.mesh.nedges; ++le) {
      for (int k = 0; k < nlev; ++k) {
        EXPECT_DOUBLE_EQ(edge_fields[r](le, k), marker(dom.edge_global[le], k))
            << "rank " << r << " edge " << le;
      }
    }
  }
}

TEST_P(ExchangeRanks, BatchingKeepsMessageCountAtNeighborPairs) {
  // The paper's point (section 3.1.3): gathering all variables into one
  // exchange round keeps the message count at the number of neighbor
  // pairs, independent of how many variables are queued.
  const Index nranks = d_.nranks;
  if (nranks == 1) GTEST_SKIP() << "no communication with one rank";

  std::vector<Field> many_fields;
  std::vector<ExchangeList> lists(nranks);
  for (Index r = 0; r < nranks; ++r) {
    for (int v = 0; v < 6; ++v) {
      many_fields.emplace_back(d_.domains[r].mesh.ncells, 3, 0.0);
    }
  }
  for (Index r = 0; r < nranks; ++r) {
    for (int v = 0; v < 6; ++v) lists[r].addCellField(many_fields[r * 6 + v]);
  }
  Communicator comm(d_);
  exchangeRound(comm, lists);
  const CommStats one_call = comm.stats();
  EXPECT_EQ(one_call.exchanges, 1);
  EXPECT_EQ(one_call.messages, static_cast<std::int64_t>(d_.patterns.size()));

  // Exchanging the six variables one at a time costs 6x the messages.
  comm.resetStats();
  for (int v = 0; v < 6; ++v) {
    std::vector<ExchangeList> single(nranks);
    for (Index r = 0; r < nranks; ++r) single[r].addCellField(many_fields[r * 6 + v]);
    exchangeRound(comm, single);
  }
  EXPECT_EQ(comm.stats().messages, 6 * one_call.messages);
  // Byte volume is identical either way.
  EXPECT_EQ(comm.stats().bytes, one_call.bytes);
}

TEST_P(ExchangeRanks, StatsCountBytesExactly) {
  if (d_.nranks == 1) GTEST_SKIP();
  const int nlev = 5;
  std::vector<Field> fields;
  std::vector<ExchangeList> lists(d_.nranks);
  for (Index r = 0; r < d_.nranks; ++r) {
    fields.emplace_back(d_.domains[r].mesh.ncells, nlev, 0.0);
  }
  for (Index r = 0; r < d_.nranks; ++r) lists[r].addCellField(fields[r]);
  Communicator comm(d_);
  exchangeRound(comm, lists);
  std::int64_t expected = 0;
  for (const ExchangePattern& pat : d_.patterns) {
    expected += static_cast<std::int64_t>(pat.send_cells.size()) * nlev * 8;
  }
  EXPECT_EQ(comm.stats().bytes, expected);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExchangeRanks, ::testing::Values(1, 2, 4, 9));

TEST(Exchange, WrongListCountThrows) {
  const grid::HexMesh mesh = grid::buildHexMesh(2);
  const Decomposition d = decompose(mesh, Index{4});
  Communicator comm(d);
  std::vector<ExchangeList> lists(2);
  EXPECT_THROW(exchangeRound(comm, lists), std::invalid_argument);
}

TEST(Exchange, MismatchedShapesThrowNamingRankAndVar) {
  const grid::HexMesh mesh = grid::buildHexMesh(2);
  const Decomposition d = decompose(mesh, Index{2});
  Communicator comm(d);
  std::vector<Field> fields;
  for (Index r = 0; r < 2; ++r) {
    fields.emplace_back(d.domains[r].mesh.ncells, 3, 0.0);
  }
  // Rank 1 queues a different component count for cell var 0.
  std::vector<ExchangeList> lists(2);
  lists[0].addCellVar(fields[0].data(), 3);
  lists[1].addCellVar(fields[1].data(), 5);
  try {
    exchangeRound(comm, lists);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cell var 0"), std::string::npos) << msg;
  }
  // Differing list lengths are also named.
  std::vector<ExchangeList> uneven(2);
  uneven[0].addCellVar(fields[0].data(), 3);
  EXPECT_THROW(exchangeRound(comm, uneven), std::invalid_argument);
}

// Hand-built decomposition with IRREGULAR patterns: non-contiguous,
// unsorted send/recv maps, different entity counts per rank, a rank pair
// exchanging in one direction only, and a rank with no traffic at all.
// Exercises the packed pack -> transfer -> unpack round trip directly
// through post()/wait().
class IrregularPacking : public ::testing::Test {
 protected:
  static constexpr int kComp = 3;

  void SetUp() override {
    d_.nranks = 3;
    ExchangePattern p01;  // rank 0 -> rank 1, cells only
    p01.from = 0;
    p01.to = 1;
    p01.send_cells = {7, 2, 5};
    p01.recv_cells = {1, 6, 3};
    ExchangePattern p10;  // rank 1 -> rank 0, cells and edges
    p10.from = 1;
    p10.to = 0;
    p10.send_cells = {0, 4};
    p10.recv_cells = {9, 8};
    p10.send_edges = {5, 1, 3};
    p10.recv_edges = {0, 2, 4};
    d_.patterns = {p01, p10};
    for (ExchangePattern& pat : d_.patterns) {
      pat.nsend_cells = static_cast<Index>(pat.send_cells.size());
      pat.nsend_edges = static_cast<Index>(pat.send_edges.size());
    }
    // Rank 2 has no patterns (no traffic), but still participates in
    // every post/wait round.
    cells_ = {Field(10, kComp), Field(8, kComp), Field(4, kComp)};
    edges_ = {Field(6, kComp), Field(7, kComp), Field(2, kComp)};
    lists_.resize(3);
    for (int r = 0; r < 3; ++r) {
      lists_[r].addCellField(cells_[r]);
      lists_[r].addEdgeField(edges_[r]);
    }
  }

  // Distinct fill per (rank, entity, comp); sender values are what the
  // receiver must end up with.
  void fill(double salt) {
    for (int r = 0; r < 3; ++r) {
      for (Index c = 0; c < cells_[r].entities(); ++c) {
        for (int k = 0; k < kComp; ++k) {
          cells_[r](c, k) = salt + 100.0 * r + 10.0 * c + k;
        }
      }
      for (Index e = 0; e < edges_[r].entities(); ++e) {
        for (int k = 0; k < kComp; ++k) {
          edges_[r](e, k) = -(salt + 100.0 * r + 10.0 * e + k);
        }
      }
    }
  }

  void checkRoundTrip(double salt) {
    // Receiver halos hold the sender's values...
    for (const ExchangePattern& pat : d_.patterns) {
      for (std::size_t i = 0; i < pat.send_cells.size(); ++i) {
        for (int k = 0; k < kComp; ++k) {
          EXPECT_EQ(cells_[pat.to](pat.recv_cells[i], k),
                    salt + 100.0 * pat.from + 10.0 * pat.send_cells[i] + k);
        }
      }
      for (std::size_t i = 0; i < pat.send_edges.size(); ++i) {
        for (int k = 0; k < kComp; ++k) {
          EXPECT_EQ(edges_[pat.to](pat.recv_edges[i], k),
                    -(salt + 100.0 * pat.from + 10.0 * pat.send_edges[i] + k));
        }
      }
    }
    // ...and every non-halo entry is untouched (pack/unpack touched only
    // the mapped rows). Rank 2 is entirely untouched.
    for (Index c = 0; c < cells_[2].entities(); ++c) {
      for (int k = 0; k < kComp; ++k) {
        EXPECT_EQ(cells_[2](c, k), salt + 200.0 + 10.0 * c + k);
      }
    }
  }

  Decomposition d_;
  std::vector<Field> cells_, edges_;
  std::vector<ExchangeList> lists_;
};

TEST_F(IrregularPacking, CollectiveExchangeRoundTrips) {
  // One collective round -- plan, then post and wait on every rank, the
  // single batched exchange call of a model stage.
  Communicator comm(d_);
  fill(1.0);
  exchangeRound(comm, lists_);
  checkRoundTrip(1.0);
  // Exact byte accounting: (3 send cells + 2 send cells + 3 send edges)
  // rows of kComp doubles.
  EXPECT_EQ(comm.stats().bytes, (3 + 2 + 3) * kComp * 8);
  EXPECT_EQ(comm.stats().messages, 2);
}

TEST_F(IrregularPacking, PostWaitRoundTripsAcrossRounds) {
  Communicator comm(d_);
  comm.plan(lists_);
  // Several rounds with fresh values each time: sequence numbers must
  // advance and no round may see a stale buffer.
  for (int round = 0; round < 3; ++round) {
    const double salt = 1.0 + 7.0 * round;
    fill(salt);
    for (Index r = 0; r < 3; ++r) comm.post(r);
    for (Index r = 0; r < 3; ++r) comm.wait(r);
    checkRoundTrip(salt);
  }
  EXPECT_EQ(comm.stats().exchanges, 3);  // one per post round
  // Exact accounting: per round (3 send cells + 2 send cells + 3 send
  // edges) rows of kComp doubles in 2 messages (one per pattern).
  EXPECT_EQ(comm.stats().bytes, 3 * (3 + 2 + 3) * kComp * 8);
  EXPECT_EQ(comm.stats().messages, 3 * 2);
}

TEST_F(IrregularPacking, PostBeforePlanThrows) {
  Communicator comm(d_);
  EXPECT_THROW(comm.post(0), std::logic_error);
}

TEST_F(IrregularPacking, WireLatencyDelaysDeliveryButRoundTrips) {
  // Emulated interconnect latency must not change the delivered data, and
  // a round with no work between post and wait must stall at least one
  // latency window.
  Communicator comm(d_);
  const double tau = 500e-6;
  comm.setWireLatency(tau);
  EXPECT_DOUBLE_EQ(comm.wireLatency(), tau);

  fill(3.0);
  const auto t0 = std::chrono::steady_clock::now();
  exchangeRound(comm, lists_);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  checkRoundTrip(3.0);
  EXPECT_GE(elapsed, tau);

  // Delivery deadlines are per message and survive a replan; data still
  // exact on the next round.
  fill(4.0);
  exchangeRound(comm, lists_);
  checkRoundTrip(4.0);
}

} // namespace
} // namespace grist::parallel
