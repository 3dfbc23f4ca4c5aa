// Simulated MPI communicator tests.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace wasp::mpi {
namespace {

using sim::Engine;
using sim::Task;

TEST(Comm, TopologyQueries) {
  Engine eng;
  Comm comm(eng, {0, 0, 1, 1, 2, 2}, NetParams{});
  EXPECT_EQ(comm.size(), 6);
  EXPECT_EQ(comm.num_nodes(), 3);
  EXPECT_EQ(comm.node_of(3), 1);
  EXPECT_EQ(comm.node_leader(3), 2);
  EXPECT_TRUE(comm.is_node_leader(2));
  EXPECT_FALSE(comm.is_node_leader(3));
  EXPECT_EQ(comm.ranks_on_node(2), (std::vector<int>{4, 5}));
}

TEST(Comm, BarrierReleasesAllAtLastArrival) {
  Engine eng;
  Comm comm(eng, {0, 0, 1, 1}, NetParams{12.5e9, 1 * sim::kUs});
  std::vector<sim::Time> released;
  auto rank_prog = [](Engine& e, Comm& c, int rank,
                      std::vector<sim::Time>& out) -> Task<void> {
    co_await sim::Delay(e, static_cast<sim::Time>(rank) * sim::kMs);
    co_await c.barrier();
    out.push_back(e.now());
  };
  for (int r = 0; r < 4; ++r) eng.spawn(rank_prog(eng, comm, r, released));
  eng.run();
  ASSERT_EQ(released.size(), 4u);
  // Everyone releases at last arrival (3ms) + log2(4)*1us tree latency.
  for (auto t : released) EXPECT_EQ(t, 3 * sim::kMs + 2 * sim::kUs);
}

TEST(Comm, BarrierGenerationsDoNotMix) {
  Engine eng;
  Comm comm(eng, {0, 0}, NetParams{});
  int phase_counter = 0;
  auto prog = [](Comm& c, int& counter) -> Task<void> {
    co_await c.barrier();
    ++counter;
    co_await c.barrier();
    ++counter;
  };
  eng.spawn(prog(comm, phase_counter));
  eng.spawn(prog(comm, phase_counter));
  eng.run();
  EXPECT_EQ(phase_counter, 4);
}

TEST(Comm, BcastChargesNonRootsBandwidth) {
  Engine eng;
  Comm comm(eng, {0, 1}, NetParams{1e9, 0});
  std::vector<sim::Time> done(2);
  auto prog = [](Engine& e, Comm& c, int rank,
                 std::vector<sim::Time>& out) -> Task<void> {
    co_await c.bcast(rank, 0, 1'000'000'000ULL);  // 1GB over 1GB/s
    out[static_cast<std::size_t>(rank)] = e.now();
  };
  eng.spawn(prog(eng, comm, 0, done));
  eng.spawn(prog(eng, comm, 1, done));
  eng.run();
  EXPECT_LT(done[0], done[1]);
  EXPECT_NEAR(sim::to_seconds(done[1]), 1.0, 1e-3);
}

TEST(Comm, SendRecvDeliversInOrder) {
  Engine eng;
  Comm comm(eng, {0, 1}, NetParams{1e12, 0});
  std::vector<int> got;
  auto sender = [](Engine& e, Comm& c) -> Task<void> {
    co_await c.send(0, 1, 10, /*tag=*/7);
    co_await sim::Delay(e, 1 * sim::kMs);
    co_await c.send(0, 1, 20, 7);
  };
  auto receiver = [](Comm& c, std::vector<int>& out) -> Task<void> {
    auto a = co_await c.recv(1, /*from=*/0, 7);
    out.push_back(static_cast<int>(a.bytes));
    auto b = co_await c.recv(1, 0, 7);
    out.push_back(static_cast<int>(b.bytes));
  };
  eng.spawn(sender(eng, comm));
  eng.spawn(receiver(comm, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

TEST(Comm, RecvBlocksUntilSendArrives) {
  Engine eng;
  Comm comm(eng, {0, 1}, NetParams{1e12, 0});
  sim::Time recv_done = 0;
  auto sender = [](Engine& e, Comm& c) -> Task<void> {
    co_await sim::Delay(e, 5 * sim::kSec);
    co_await c.send(0, 1, 1, 0);
  };
  auto receiver = [](Engine& e, Comm& c, sim::Time& out) -> Task<void> {
    co_await c.recv(1);
    out = e.now();
  };
  eng.spawn(receiver(eng, comm, recv_done));
  eng.spawn(sender(eng, comm));
  eng.run();
  EXPECT_GE(recv_done, 5 * sim::kSec);
}

TEST(Comm, RecvWildcardMatchesAnySender) {
  Engine eng;
  Comm comm(eng, {0, 1, 2}, NetParams{1e12, 0});
  int from = -2;
  auto sender = [](Comm& c, int rank) -> Task<void> {
    co_await c.send(rank, 0, 1, 0);
  };
  auto receiver = [](Comm& c, int& out) -> Task<void> {
    auto m = co_await c.recv(0, -1, 0);
    out = m.from;
  };
  eng.spawn(receiver(comm, from));
  eng.spawn(sender(comm, 2));
  eng.run();
  EXPECT_EQ(from, 2);
}

TEST(Comm, PendingCountsQueuedMessages) {
  Engine eng;
  Comm comm(eng, {0, 1}, NetParams{});
  auto sender = [](Comm& c) -> Task<void> {
    co_await c.send(0, 1, 1, 3);
    co_await c.send(0, 1, 1, 3);
  };
  eng.spawn(sender(comm));
  eng.run();
  EXPECT_EQ(comm.pending(1, 3), 2u);
  EXPECT_EQ(comm.pending(1, 0), 0u);
}

TEST(Comm, AllreduceSynchronizes) {
  Engine eng;
  Comm comm(eng, {0, 1, 2, 3}, NetParams{1e9, 1 * sim::kUs});
  std::vector<sim::Time> done;
  auto prog = [](Engine& e, Comm& c, int rank,
                 std::vector<sim::Time>& out) -> Task<void> {
    co_await sim::Delay(e, static_cast<sim::Time>(rank) * sim::kMs);
    co_await c.allreduce(1024);
    out.push_back(e.now());
  };
  for (int r = 0; r < 4; ++r) eng.spawn(prog(eng, comm, r, done));
  eng.run();
  ASSERT_EQ(done.size(), 4u);
  for (auto t : done) EXPECT_GE(t, 3 * sim::kMs);
}

// The last arriver resumes first (it releases the others), then the parked
// ranks wake at the same instant in the order they arrived.
TEST(Comm, BarrierReleasesInArrivalOrder) {
  Engine eng;
  Comm comm(eng, {0, 0, 0, 0}, NetParams{12.5e9, 1 * sim::kUs});
  const std::vector<sim::Time> arrive = {2 * sim::kMs, 4 * sim::kMs,
                                         1 * sim::kMs, 3 * sim::kMs};
  std::vector<int> order;
  std::vector<sim::Time> at;
  auto prog = [](Engine& e, Comm& c, int rank, sim::Time delay,
                 std::vector<int>& out,
                 std::vector<sim::Time>& when) -> Task<void> {
    co_await sim::Delay(e, delay);
    co_await c.barrier();
    out.push_back(rank);
    when.push_back(e.now());
  };
  for (int r = 0; r < 4; ++r) {
    eng.spawn(prog(eng, comm, r, arrive[static_cast<std::size_t>(r)], order,
                   at));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
  for (auto t : at) EXPECT_EQ(t, 4 * sim::kMs + comm.tree_latency());
}

// Many generations back to back on one comm: each releases everyone at its
// own last arrival + latency, and a released rank that enters the next
// barrier at once parks behind no stale waiter.
TEST(Comm, BackToBackGenerationsOnOneComm) {
  Engine eng;
  Comm comm(eng, {0, 0, 1}, NetParams{12.5e9, 1 * sim::kUs});
  constexpr int kRounds = 20;
  std::vector<std::vector<sim::Time>> released(
      kRounds, std::vector<sim::Time>(3, 0));
  auto prog = [](Engine& e, Comm& c, int rank,
                 std::vector<std::vector<sim::Time>>& out) -> Task<void> {
    for (int round = 0; round < kRounds; ++round) {
      // Rotate who arrives last; whoever draws slot 0 does not suspend, so
      // the rank released first sometimes re-enters before the others run.
      const auto slot = static_cast<sim::Time>((rank + round) % 3);
      co_await sim::Delay(e, slot * sim::kUs);
      co_await c.barrier();
      out[static_cast<std::size_t>(round)][static_cast<std::size_t>(rank)] =
          e.now();
    }
  };
  for (int r = 0; r < 3; ++r) eng.spawn(prog(eng, comm, r, released));
  eng.run();
  EXPECT_TRUE(eng.all_roots_done());
  sim::Time prev = 0;
  for (const auto& round : released) {
    EXPECT_EQ(round[0], round[1]);
    EXPECT_EQ(round[1], round[2]);
    EXPECT_GT(round[0], prev);
    prev = round[0];
  }
}

// With no latency to charge, the last arriver never suspends: a size-1 comm
// costs no event at all, and a wider comm costs only the parked ranks'
// wake-ups.
TEST(Comm, ZeroLatencyBarrierDoesNotSuspendTheLastArriver) {
  {
    Engine eng;
    Comm solo(eng, {0}, NetParams{12.5e9, 0});
    ASSERT_EQ(solo.tree_latency(), 0u);
    bool done = false;
    auto prog = [](Comm& c, bool& out) -> Task<void> {
      co_await c.barrier();
      co_await c.barrier();
      out = true;
    };
    eng.spawn(prog(solo, done));
    eng.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eng.events_processed(), 1u);  // the spawn itself
    EXPECT_EQ(eng.now(), 0u);
  }
  {
    Engine eng;
    Comm comm(eng, {0, 0, 1, 1}, NetParams{12.5e9, 0});
    std::vector<int> order;
    auto prog = [](Engine& e, Comm& c, int rank,
                   std::vector<int>& out) -> Task<void> {
      co_await sim::Delay(e, static_cast<sim::Time>(rank) * sim::kUs);
      co_await c.barrier();
      out.push_back(rank);
    };
    for (int r = 0; r < 4; ++r) eng.spawn(prog(eng, comm, r, order));
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2}));
    // 4 spawns + 3 delays (rank 0's is zero) + 3 wake-ups.
    EXPECT_EQ(eng.events_processed(), 10u);
    EXPECT_EQ(eng.now(), 3 * sim::kUs);
  }
}

// A size-1 comm with a latency still pays it, alone: one suspension.
TEST(Comm, SizeOneBarrierPaysOnlyTheTreeLatency) {
  Engine eng;
  Comm solo(eng, {0}, NetParams{12.5e9, 1 * sim::kUs});
  auto prog = [](Comm& c) -> Task<void> { co_await c.barrier(); };
  eng.spawn(prog(solo));
  eng.run();
  EXPECT_EQ(eng.now(), solo.tree_latency());
  EXPECT_EQ(eng.events_processed(), 2u);
}

// The collectives built on the barrier still hold every rank until the
// last arrives, then charge their own transfer term on top.
TEST(Comm, CollectivesSynchronizeOnTheLastArrival) {
  const NetParams net{1e9, 1 * sim::kUs};
  constexpr util::Bytes kN = 1'000'000;  // 1 ms at 1 GB/s
  const sim::Time last = 3 * sim::kMs;
  enum class Op { kBcast, kGather, kAllreduce };
  for (const Op op : {Op::kBcast, Op::kGather, Op::kAllreduce}) {
    Engine eng;
    Comm comm(eng, {0, 0, 1, 1}, net);
    std::vector<sim::Time> done(4, 0);
    auto prog = [](Engine& e, Comm& c, Op which, int rank,
                   std::vector<sim::Time>& out) -> Task<void> {
      co_await sim::Delay(e, static_cast<sim::Time>(rank) * sim::kMs);
      switch (which) {
        case Op::kBcast:
          co_await c.bcast(rank, 0, kN);
          break;
        case Op::kGather:
          co_await c.gather(rank, 0, kN);
          break;
        case Op::kAllreduce:
          co_await c.allreduce(kN);
          break;
      }
      out[static_cast<std::size_t>(rank)] = e.now();
    };
    for (int r = 0; r < 4; ++r) eng.spawn(prog(eng, comm, op, r, done));
    eng.run();
    const sim::Time lat = comm.tree_latency();  // log2(4) * 1 us
    const sim::Time synced = last + lat;
    switch (op) {
      case Op::kBcast:
        EXPECT_EQ(done[0], synced);  // the root sends nothing
        for (int r = 1; r < 4; ++r) {
          EXPECT_EQ(done[static_cast<std::size_t>(r)],
                    synced + lat + sim::kMs);
        }
        break;
      case Op::kGather:
        EXPECT_EQ(done[0], synced + lat + 4 * sim::kMs);  // all four pieces
        for (int r = 1; r < 4; ++r) {
          EXPECT_EQ(done[static_cast<std::size_t>(r)],
                    synced + lat + sim::kMs);
        }
        break;
      case Op::kAllreduce:
        for (auto t : done) EXPECT_EQ(t, synced + lat + 2 * sim::kMs);
        break;
    }
  }
}

// A per-node barrier storm, CosmoFlow's shape: 2 nodes x 4 ranks, each node
// on its own comm, 8 rounds of (rank-skewed compute, node barrier). Per
// node and round: 4 delay events, the last arriver's latency event and 3
// wake-ups; plus the 8 spawns. The count is the engine's contract with
// every trace and digest, so it is pinned, not bounded.
TEST(Comm, PerNodeBarrierStormEventCountIsPinned) {
  Engine eng;
  const NetParams net{12.5e9, 1 * sim::kUs};
  Comm node0(eng, {0, 0, 0, 0}, net);
  Comm node1(eng, {0, 0, 0, 0}, net);
  auto prog = [](Engine& e, Comm& c, int local) -> Task<void> {
    for (int round = 0; round < 8; ++round) {
      co_await sim::Delay(e, static_cast<sim::Time>(local + 1) * 10 * sim::kUs);
      co_await c.barrier();
    }
  };
  for (int r = 0; r < 4; ++r) {
    eng.spawn(prog(eng, node0, r));
    eng.spawn(prog(eng, node1, r));
  }
  eng.run();
  EXPECT_TRUE(eng.all_roots_done());
  EXPECT_EQ(eng.events_processed(), 8u + 2u * 8u * (4u + 1u + 3u));
  EXPECT_EQ(eng.events_processed(), 136u);
  EXPECT_EQ(eng.now(), 8 * (40 * sim::kUs + 2 * sim::kUs));
}

}  // namespace
}  // namespace wasp::mpi
