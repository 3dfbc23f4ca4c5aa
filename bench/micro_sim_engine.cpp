// google-benchmark microbenchmarks for the DES core: event throughput,
// synchronization primitives, fork/join fan-out, and queue/frame-pool
// stress shapes parameterized over the event-queue kind (0 = heap oracle,
// 1 = timer wheel) so the two cores are directly comparable.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/link.hpp"
#include "sim/sync.hpp"
#include "sim/waitgroup.hpp"

namespace {

using namespace wasp;

sim::Engine::Options queue_opts(std::int64_t kind) {
  sim::Engine::Options opts;
  opts.queue = kind == 0 ? sim::Engine::QueueKind::kHeap
                         : sim::Engine::QueueKind::kWheel;
  return opts;
}

sim::Task<void> delay_chain(sim::Engine& eng, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim::Delay(eng, 100);
  }
}

void BM_EngineDelayEvents(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(delay_chain(eng, n));
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineDelayEvents)->Arg(1000)->Arg(100000);

void BM_EngineManyProcesses(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int p = 0; p < procs; ++p) eng.spawn(delay_chain(eng, 16));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * procs * 16);
}
BENCHMARK(BM_EngineManyProcesses)->Arg(128)->Arg(2048);

sim::Task<void> resource_user(sim::Engine& eng, sim::Resource& res, int n) {
  for (int i = 0; i < n; ++i) {
    auto guard = co_await res.acquire();
    co_await sim::Delay(eng, 10);
  }
}

void BM_ResourceContention(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::Resource res(eng, 4);
    for (int p = 0; p < procs; ++p) {
      eng.spawn(resource_user(eng, res, 32));
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * procs * 32);
}
BENCHMARK(BM_ResourceContention)->Arg(64)->Arg(512);

sim::Task<void> fanout_root(sim::Engine& eng, int width) {
  sim::WaitGroup wg(eng);
  for (int i = 0; i < width; ++i) {
    wg.launch(delay_chain(eng, 4));
  }
  co_await wg.wait();
}

void BM_WaitGroupFanout(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(fanout_root(eng, width));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_WaitGroupFanout)->Arg(64)->Arg(1024);

sim::Task<void> link_user(sim::SharedLink& link, int n) {
  for (int i = 0; i < n; ++i) {
    co_await link.transfer(1 << 20);
  }
}

void BM_SharedLinkTransfers(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::SharedLink::Config cfg;
    cfg.capacity_bps = 10e9;
    cfg.per_stream_bps = 2e9;
    cfg.max_streams = 64;
    sim::SharedLink link(eng, cfg);
    for (int s = 0; s < streams; ++s) eng.spawn(link_user(link, 16));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * streams * 16);
}
BENCHMARK(BM_SharedLinkTransfers)->Arg(16)->Arg(256);

// Queue churn: many long-lived processes sleeping pseudo-random intervals,
// so the queue stays deep and every push lands at a different timestamp —
// the heap's worst case (log-depth sift through cold cache lines) and the
// wheel's bucketed case. Deterministic per-process LCG keeps both queue
// kinds replaying the identical schedule.
sim::Task<void> churn_proc(sim::Engine& eng, std::uint32_t seed, int n) {
  std::uint32_t x = seed * 2654435761u + 1u;
  for (int i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    co_await sim::Delay(eng, 1 + (x % 4096));
  }
}

void BM_EngineQueueChurn(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng(queue_opts(state.range(1)));
    for (int p = 0; p < procs; ++p) {
      eng.spawn(churn_proc(eng, static_cast<std::uint32_t>(p), 64));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * procs * 64);
}
BENCHMARK(BM_EngineQueueChurn)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

// Spawn storm: short-lived children created in waves, all finishing at the
// same instant — the barrier/allreduce shape HPC workloads generate. This
// is the FIFO fast lane's case and the frame pool's case (every wave
// recycles the previous wave's frames).
sim::Task<void> storm_child(sim::Engine& eng) { co_await sim::Delay(eng, 50); }

sim::Task<void> storm_root(sim::Engine& eng, int waves, int width) {
  for (int w = 0; w < waves; ++w) {
    sim::WaitGroup wg(eng);
    for (int i = 0; i < width; ++i) wg.launch(storm_child(eng));
    co_await wg.wait();
  }
}

void BM_EngineSpawnStorm(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng(queue_opts(state.range(1)));
    eng.spawn(storm_root(eng, 32, width));
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 32 * width);
}
BENCHMARK(BM_EngineSpawnStorm)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

// Barrier storm: N persistent ranks stepping in lockstep — the whole
// cohort wakes at the same instant every round, without frame turnover
// (isolates queue cost from pool cost).
sim::Task<void> barrier_rank(sim::Engine& eng, int rounds) {
  for (int r = 0; r < rounds; ++r) co_await sim::Delay(eng, 100);
}

void BM_EngineBarrierStorm(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng(queue_opts(state.range(1)));
    for (int p = 0; p < ranks; ++p) eng.spawn(barrier_rank(eng, 64));
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * ranks * 64);
}
BENCHMARK(BM_EngineBarrierStorm)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

// mpi::Comm barriers in CosmoFlow's shape: one comm per node of 4 ranks,
// every rank looping over its node barrier. Unlike BM_EngineBarrierStorm
// this goes through Comm::barrier(): the waiter list, the last arriver's
// tree-latency wait and the release at one instant.
sim::Task<void> comm_barrier_rank(mpi::Comm& comm, int rounds) {
  for (int r = 0; r < rounds; ++r) co_await comm.barrier();
}

void BM_CommBarrier(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  constexpr int kRanksPerNode = 4;
  constexpr int kRounds = 64;
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<std::unique_ptr<mpi::Comm>> comms;
    for (int n = 0; n < nodes; ++n) {
      comms.push_back(std::make_unique<mpi::Comm>(
          eng, std::vector<int>(kRanksPerNode, 0), mpi::NetParams{}));
      for (int r = 0; r < kRanksPerNode; ++r) {
        eng.spawn(comm_barrier_rank(*comms.back(), kRounds));
      }
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * nodes * kRanksPerNode *
                          kRounds);
}
BENCHMARK(BM_CommBarrier)->Arg(8)->Arg(128);

// One histogram sample on the calling thread's shard: the cost every
// replayed op pays for its replay.op_ns.<kind> sample.
void BM_HistogramAdd(benchmark::State& state) {
  const obs::Histogram h =
      obs::Registry::instance().histogram("bench.micro.histogram_add");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.add(v);
    v = v * 6364136223846793005ull + 1442695040888963407ull;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

// Raw frame-pool hit path: allocate/free one canonical-size frame.
void BM_FramePoolAllocFree(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = sim::FramePool::allocate(bytes);
    benchmark::DoNotOptimize(p);
    sim::FramePool::deallocate(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FramePoolAllocFree)->Arg(128)->Arg(512)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
