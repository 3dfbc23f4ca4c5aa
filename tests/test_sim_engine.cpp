// Unit tests for the discrete-event engine, Task coroutines, and the
// synchronization primitives they rest on.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/spec.hpp"
#include "runtime/proc.hpp"
#include "runtime/simulation.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/link.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/waitgroup.hpp"

namespace wasp::sim {
namespace {

Task<void> delay_then_mark(Engine& eng, Time d, std::vector<Time>& out) {
  co_await Delay(eng, d);
  out.push_back(eng.now());
}

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Engine, DelayAdvancesSimulatedClock) {
  Engine eng;
  std::vector<Time> marks;
  eng.spawn(delay_then_mark(eng, 5 * kSec, marks));
  eng.run();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0], 5 * kSec);
  EXPECT_TRUE(eng.all_roots_done());
}

TEST(Engine, ZeroDelayDoesNotSuspend) {
  Engine eng;
  std::vector<Time> marks;
  eng.spawn(delay_then_mark(eng, 0, marks));
  eng.run();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0], 0u);
}

TEST(Engine, EventsAtSameInstantRunInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  auto proc = [](Engine& e, int id, std::vector<int>& ord) -> Task<void> {
    co_await Delay(e, 1 * kMs);
    ord.push_back(id);
  };
  for (int i = 0; i < 8; ++i) eng.spawn(proc(eng, i, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, InterleavesByTimestamp) {
  Engine eng;
  std::vector<Time> marks;
  eng.spawn(delay_then_mark(eng, 3 * kSec, marks));
  eng.spawn(delay_then_mark(eng, 1 * kSec, marks));
  eng.spawn(delay_then_mark(eng, 2 * kSec, marks));
  eng.run();
  EXPECT_EQ(marks, (std::vector<Time>{1 * kSec, 2 * kSec, 3 * kSec}));
}

Task<int> child_value(Engine& eng) {
  co_await Delay(eng, 10);
  co_return 42;
}

Task<void> parent_await(Engine& eng, int& out) {
  out = co_await child_value(eng);
}

TEST(Task, NestedAwaitPropagatesValue) {
  Engine eng;
  int value = 0;
  eng.spawn(parent_await(eng, value));
  eng.run();
  EXPECT_EQ(value, 42);
}

Task<void> thrower(Engine& eng) {
  co_await Delay(eng, 1);
  throw std::runtime_error("boom");
}

Task<void> catcher(Engine& eng, bool& caught) {
  try {
    co_await thrower(eng);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Engine eng;
  bool caught = false;
  eng.spawn(catcher(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Task, ExceptionEscapingRootRethrownFromRun) {
  Engine eng;
  eng.spawn(thrower(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine eng;
  std::vector<Time> marks;
  eng.spawn(delay_then_mark(eng, 1 * kSec, marks));
  eng.spawn(delay_then_mark(eng, 10 * kSec, marks));
  EXPECT_FALSE(eng.run_until(5 * kSec));
  EXPECT_EQ(marks.size(), 1u);
  EXPECT_EQ(eng.now(), 5 * kSec);
  EXPECT_FALSE(eng.all_roots_done());
  EXPECT_TRUE(eng.run_until(20 * kSec));
  EXPECT_EQ(marks.size(), 2u);
}

TEST(Event, BroadcastWakesAllWaiters) {
  Engine eng;
  Event ev(eng);
  std::vector<Time> woke;
  auto waiter = [](Engine& e, Event& event, std::vector<Time>& w) -> Task<void> {
    co_await event.wait();
    w.push_back(e.now());
  };
  auto setter = [](Engine& e, Event& event) -> Task<void> {
    co_await Delay(e, 7 * kSec);
    event.set();
  };
  for (int i = 0; i < 3; ++i) eng.spawn(waiter(eng, ev, woke));
  eng.spawn(setter(eng, ev));
  eng.run();
  EXPECT_EQ(woke, (std::vector<Time>{7 * kSec, 7 * kSec, 7 * kSec}));
}

TEST(Event, WaitOnSetEventIsImmediate) {
  Engine eng;
  Event ev(eng);
  ev.set();
  Time woke = 123;
  auto waiter = [](Engine& e, Event& event, Time& w) -> Task<void> {
    co_await event.wait();
    w = e.now();
  };
  eng.spawn(waiter(eng, ev, woke));
  eng.run();
  EXPECT_EQ(woke, 0u);
}

// ---------------------------------------------------------------------------
// WaitGroup: one parked waiter, woken by the last child to finish.

TEST(WaitGroup, ChildrenDoneBeforeWaitDoNotSuspend) {
  Engine eng;
  Time waited_at = 0;
  auto child = [](Engine& e, Time d) -> Task<void> { co_await Delay(e, d); };
  auto parent = [&child](Engine& e, Time& out) -> Task<void> {
    WaitGroup wg(e);
    wg.launch(child(e, 0));  // finishes inside launch()
    wg.launch(child(e, 3));
    wg.launch(child(e, 5));
    co_await Delay(e, 10);  // both timed children finish meanwhile
    EXPECT_EQ(wg.outstanding(), 0u);
    co_await wg.wait();
    out = e.now();
  };
  eng.spawn(parent(eng, waited_at));
  eng.run();
  EXPECT_EQ(waited_at, 10u);
  EXPECT_EQ(eng.events_processed(), 4u);  // spawn + 2 child delays + 1
}

TEST(WaitGroup, ParkedWaiterWakesAtTheLastChild) {
  Engine eng;
  Time woke = 0;
  auto child = [](Engine& e, Time d) -> Task<void> { co_await Delay(e, d); };
  auto parent = [&child](Engine& e, Time& out) -> Task<void> {
    WaitGroup wg(e);
    for (const Time d : {Time{3}, Time{7}, Time{5}}) wg.launch(child(e, d));
    co_await wg.wait();
    out = e.now();
  };
  eng.spawn(parent(eng, woke));
  eng.run();
  EXPECT_EQ(woke, 7u);
  EXPECT_EQ(eng.events_processed(), 5u);  // spawn + 3 delays + 1 wake-up
}

TEST(WaitGroup, PropagatesAChildExceptionOnceThenIsReusable) {
  Engine eng;
  int caught = 0;
  bool second_clean = false;
  auto bad = [](Engine& e, Time d) -> Task<void> {
    co_await Delay(e, d);
    throw std::runtime_error("child failed");
  };
  auto ok = [](Engine& e) -> Task<void> { co_await Delay(e, 2); };
  auto parent = [&](Engine& e) -> Task<void> {
    WaitGroup wg(e);
    wg.launch(bad(e, 0));  // throws before wait() is even reached
    wg.launch(ok(e));
    try {
      co_await wg.wait();
    } catch (const std::runtime_error&) {
      ++caught;
    }
    wg.launch(ok(e));
    wg.launch(bad(e, 1));  // throws while the waiter is parked
    try {
      co_await wg.wait();
    } catch (const std::runtime_error&) {
      ++caught;
    }
    wg.launch(ok(e));
    co_await wg.wait();  // the errors were consumed
    second_clean = true;
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_EQ(caught, 2);
  EXPECT_TRUE(second_clean);
}

TEST(WaitGroup, SecondConcurrentWaiterIsAnError) {
  Engine eng;
  WaitGroup wg(eng);
  bool rejected = false;
  auto waiter = [](WaitGroup& g, bool& out) -> Task<void> {
    try {
      co_await g.wait();
    } catch (const util::SimError&) {
      out = true;
    }
  };
  wg.launch([](Engine& e) -> Task<void> { co_await Delay(e, 5); }(eng));
  eng.spawn(waiter(wg, rejected));
  eng.spawn(waiter(wg, rejected));
  eng.run();
  EXPECT_TRUE(rejected);
}

// ---------------------------------------------------------------------------
// Proc::compute / gpu_compute: awaiters that record at resume.

TEST(ComputeSpan, ZeroDurationStillRecordsWithoutSuspending) {
  runtime::Simulation sim(cluster::lassen(1));
  const auto app = sim.tracer().register_app("t");
  auto prog = [](runtime::Simulation& s, std::uint16_t a) -> Task<void> {
    runtime::Proc p(s, a, 0, 0);
    co_await p.compute(0);
    co_await p.gpu_compute(0);
    co_await p.compute(4 * kMs);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();
  const auto& recs = sim.tracer().records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].iface, trace::Iface::kCpu);
  EXPECT_EQ(recs[1].iface, trace::Iface::kGpu);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].op, trace::Op::kCompute);
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].tstart, 0u);
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].tend, 0u);
  }
  EXPECT_EQ(recs[2].tstart, 0u);
  EXPECT_EQ(recs[2].tend, 4 * kMs);
  EXPECT_EQ(sim.engine().events_processed(), 2u);  // spawn + the 4 ms span
}

Task<void> hold_resource(Engine& eng, Resource& res, Time hold,
                         std::vector<Time>& acquired) {
  auto guard = co_await res.acquire();
  acquired.push_back(eng.now());
  co_await Delay(eng, hold);
}

TEST(Resource, SerializesBeyondCapacity) {
  Engine eng;
  Resource res(eng, 2);
  std::vector<Time> acquired;
  for (int i = 0; i < 4; ++i) {
    eng.spawn(hold_resource(eng, res, 10 * kSec, acquired));
  }
  eng.run();
  // Two admitted at t=0, the next two after the first pair releases.
  EXPECT_EQ(acquired,
            (std::vector<Time>{0, 0, 10 * kSec, 10 * kSec}));
  EXPECT_EQ(res.available(), 2u);
}

TEST(Resource, FifoOrderUnderContention) {
  Engine eng;
  Resource res(eng, 1);
  std::vector<int> order;
  auto proc = [](Engine& e, Resource& r, int id,
                 std::vector<int>& ord) -> Task<void> {
    // Stagger arrival so queue order is well defined.
    co_await Delay(e, static_cast<Time>(id));
    auto guard = co_await r.acquire();
    ord.push_back(id);
    co_await Delay(e, 1 * kSec);
  };
  for (int i = 0; i < 5; ++i) eng.spawn(proc(eng, res, i, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Resource, TokenTransferredDirectlyToWaiterNotStolen) {
  Engine eng;
  Resource res(eng, 1);
  std::vector<int> order;
  auto holder = [](Engine& e, Resource& r, std::vector<int>& ord) -> Task<void> {
    auto g = co_await r.acquire();
    co_await Delay(e, 10);
    ord.push_back(0);
  };
  auto waiter = [](Engine& e, Resource& r, std::vector<int>& ord) -> Task<void> {
    co_await Delay(e, 1);  // arrives while holder owns the token
    auto g = co_await r.acquire();
    ord.push_back(1);
  };
  auto late = [](Engine& e, Resource& r, std::vector<int>& ord) -> Task<void> {
    co_await Delay(e, 10);  // arrives exactly when holder releases
    auto g = co_await r.acquire();
    ord.push_back(2);
  };
  eng.spawn(holder(eng, res, order));
  eng.spawn(waiter(eng, res, order));
  eng.spawn(late(eng, res, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(res.available(), 1u);
}

TEST(SharedLink, SingleStreamGetsPerStreamCap) {
  Engine eng;
  SharedLink::Config cfg;
  cfg.capacity_bps = 100e9;
  cfg.per_stream_bps = 1e9;
  cfg.latency = 0;
  SharedLink link(eng, cfg);
  auto xfer = [](SharedLink& l) -> Task<void> {
    co_await l.transfer(1'000'000'000ULL);
  };
  eng.spawn(xfer(link));
  eng.run();
  EXPECT_NEAR(to_seconds(eng.now()), 1.0, 1e-6);
}

TEST(SharedLink, ConcurrentStreamsShareCapacity) {
  Engine eng;
  SharedLink::Config cfg;
  cfg.capacity_bps = 1e9;
  cfg.per_stream_bps = 1e9;
  cfg.max_streams = 16;
  SharedLink link(eng, cfg);
  auto xfer = [](SharedLink& l) -> Task<void> {
    co_await l.transfer(500'000'000ULL);
  };
  // Both start at t=0; snapshot fair share gives the first transfer the full
  // rate (it is alone when it starts) and the second half rate.
  eng.spawn(xfer(link));
  eng.spawn(xfer(link));
  eng.run();
  EXPECT_GE(to_seconds(eng.now()), 0.99);
  EXPECT_EQ(link.bytes_moved(), 1'000'000'000ULL);
  EXPECT_EQ(link.peak_streams(), 2u);
}

TEST(SharedLink, SmallTransfersPayEfficiencyPenalty) {
  Engine eng;
  SharedLink::Config cfg;
  cfg.capacity_bps = 1e9;
  cfg.per_stream_bps = 1e9;
  cfg.efficiency_bytes = 1024 * 1024;
  SharedLink link(eng, cfg);
  const double small = link.snapshot_rate(4096);
  const double large = link.snapshot_rate(64ull * 1024 * 1024);
  EXPECT_LT(small, 0.01 * large);
}

TEST(SharedLink, QueueingBeyondMaxStreams) {
  Engine eng;
  SharedLink::Config cfg;
  cfg.capacity_bps = 1e9;
  cfg.per_stream_bps = 1e9;
  cfg.max_streams = 1;
  SharedLink link(eng, cfg);
  auto xfer = [](SharedLink& l) -> Task<void> {
    co_await l.transfer(1'000'000'000ULL);
  };
  eng.spawn(xfer(link));
  eng.spawn(xfer(link));
  eng.run();
  // Strictly serialized: 1s + 1s.
  EXPECT_NEAR(to_seconds(eng.now()), 2.0, 1e-6);
}

TEST(Engine, ManyProcessesScale) {
  Engine eng;
  std::vector<Time> marks;
  marks.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    eng.spawn(delay_then_mark(eng, static_cast<Time>(i) * kUs, marks));
  }
  eng.run();
  EXPECT_EQ(marks.size(), 2000u);
  EXPECT_TRUE(eng.all_roots_done());
}

TEST(Engine, SchedulingIntoThePastIsAnError) {
  Engine eng;
  auto proc = [](Engine& e) -> Task<void> {
    co_await Delay(e, 1 * kSec);
    // Force an illegal schedule directly.
    EXPECT_THROW(e.schedule(0, std::noop_coroutine()), wasp::util::SimError);
  };
  eng.spawn(proc(eng));
  eng.run();
}

// ---------------------------------------------------------------------------
// EngineQueue: the timer wheel against the heap oracle (`ctest -L engine`).

constexpr Engine::QueueKind kBothKinds[] = {Engine::QueueKind::kHeap,
                                            Engine::QueueKind::kWheel};

Engine::Options opts_for(Engine::QueueKind kind) {
  Engine::Options o;
  o.queue = kind;
  return o;
}

using MarkLog = std::vector<std::pair<int, Time>>;

Task<void> mark_after(Engine& eng, Time d, int id, MarkLog& log) {
  co_await Delay(eng, d);
  log.emplace_back(id, eng.now());
}

// One pseudo-random process: a fixed-seed LCG picks dense (FIFO-lane),
// medium, and sparse (multi-level) delays, with occasional child spawns —
// the schedule is a pure function of the seed, so both queue kinds replay
// the identical program.
Task<void> prop_proc(Engine& eng, int id, std::uint32_t seed, int steps,
                     MarkLog& log) {
  std::uint32_t x = seed;
  for (int s = 0; s < steps; ++s) {
    x = x * 1664525u + 1013904223u;
    const std::uint32_t kind = x >> 28;
    Time d;
    if (kind < 6) {
      d = x % 64;  // dense: same-instant / level-0 traffic
    } else if (kind < 13) {
      d = x % 100000;
    } else {
      d = x % (Time{1} << 26);  // sparse: lands levels deep
    }
    co_await Delay(eng, d);
    log.emplace_back(id, eng.now());
    if (kind == 15) {
      eng.spawn(mark_after(eng, x % 1000, id + 1000, log));
    }
  }
}

struct ProgramResult {
  MarkLog log;
  std::uint64_t events = 0;
  Time end = 0;
  bool operator==(const ProgramResult&) const = default;
};

ProgramResult run_program(Engine::QueueKind kind, std::uint32_t seed) {
  Engine eng(opts_for(kind));
  ProgramResult r;
  for (int p = 0; p < 16; ++p) {
    eng.spawn(prop_proc(eng, p, seed ^ (static_cast<std::uint32_t>(p) *
                                        2654435761u),
                        40, r.log));
  }
  eng.run();
  r.events = eng.events_processed();
  r.end = eng.now();
  EXPECT_TRUE(eng.all_roots_done());
  return r;
}

TEST(EngineQueue, RandomInterleavingsMatchHeapOracle) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const ProgramResult heap = run_program(Engine::QueueKind::kHeap, seed);
    const ProgramResult wheel = run_program(Engine::QueueKind::kWheel, seed);
    ASSERT_EQ(heap.events, wheel.events) << "seed " << seed;
    ASSERT_EQ(heap.end, wheel.end) << "seed " << seed;
    ASSERT_EQ(heap.log, wheel.log) << "seed " << seed;
  }
}

TEST(EngineQueue, SameInstantOrderMatchesScheduleOrderOnBothKinds) {
  for (Engine::QueueKind kind : kBothKinds) {
    Engine eng(opts_for(kind));
    MarkLog log;
    for (int i = 0; i < 64; ++i) eng.spawn(mark_after(eng, 1 * kMs, i, log));
    eng.run();
    ASSERT_EQ(log.size(), 64u);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(log[static_cast<std::size_t>(i)],
                (std::pair<int, Time>{i, 1 * kMs}));
    }
  }
}

TEST(EngineQueue, OverflowTierPreservesOrderBeyondHorizon) {
  // Delays past the wheel's 2^48 ns span land in the overflow tier and come
  // back through reseeds — order and tie-breaks must survive the detour.
  const Time far = WheelEventQueue::kHorizon;
  Engine eng(opts_for(Engine::QueueKind::kWheel));
  MarkLog log;
  eng.spawn(mark_after(eng, 3 * far + 5, 3, log));
  eng.spawn(mark_after(eng, far + 123, 1, log));
  eng.spawn(mark_after(eng, 10, 0, log));
  eng.spawn(mark_after(eng, 2 * far + 7, 2, log));
  eng.spawn(mark_after(eng, far + 123, 4, log));  // ties with id 1, FIFO after
  eng.run();
  const MarkLog want = {{0, 10},
                        {1, far + 123},
                        {4, far + 123},
                        {2, 2 * far + 7},
                        {3, 3 * far + 5}};
  EXPECT_EQ(log, want);
  EXPECT_GT(eng.wheel_stats().overflow_pushes, 0u);
  EXPECT_GE(eng.wheel_stats().overflow_reseeds, 1u);
}

TEST(EngineQueue, RunUntilThenScheduleIntoGapStaysOrdered) {
  // run_until must not advance the wheel cursor past its limit: events
  // scheduled afterwards into the (limit, next-event) gap still run first.
  for (Engine::QueueKind kind : kBothKinds) {
    Engine eng(opts_for(kind));
    MarkLog log;
    eng.spawn(mark_after(eng, 10 * kSec, 1, log));
    EXPECT_FALSE(eng.run_until(1 * kSec));
    EXPECT_EQ(eng.now(), 1 * kSec);
    EXPECT_TRUE(log.empty());
    eng.spawn(mark_after(eng, 2 * kSec, 0, log));  // absolute t = 3s
    EXPECT_TRUE(eng.run_until(20 * kSec));
    const MarkLog want = {{0, 3 * kSec}, {1, 10 * kSec}};
    EXPECT_EQ(log, want);
    EXPECT_TRUE(eng.all_roots_done());
  }
}

TEST(EngineQueue, ScheduleIntoPastThrowsSimErrorOnBothKinds) {
  // The schedule contract (at >= now) holds for either queue: release
  // builds throw SimError; debug builds additionally assert.
  for (Engine::QueueKind kind : kBothKinds) {
    Engine eng(opts_for(kind));
    auto proc = [](Engine& e) -> Task<void> {
      co_await Delay(e, 1 * kSec);
      EXPECT_THROW(e.schedule(e.now() - 1, std::noop_coroutine()),
                   wasp::util::SimError);
    };
    eng.spawn(proc(eng));
    eng.run();
    EXPECT_EQ(eng.pending_events(), 0u);
  }
}

TEST(EngineQueue, DeepChurnKeepsWheelStatsConsistent) {
  Engine eng(opts_for(Engine::QueueKind::kWheel));
  MarkLog log;
  for (int p = 0; p < 8; ++p) {
    eng.spawn(prop_proc(eng, p, 77u + static_cast<std::uint32_t>(p), 64, log));
  }
  eng.run();
  const auto& st = eng.wheel_stats();
  // Delays stay under the horizon, so no overflow traffic; every placement
  // (direct push or cascade re-placement) lands in the lane or a bucket
  // exactly once, and every pushed event is eventually popped.
  EXPECT_EQ(st.overflow_pushes, 0u);
  EXPECT_EQ(st.fifo_pushes + st.bucket_pushes,
            eng.events_processed() + st.cascaded_events);
  EXPECT_GT(st.cascades, 0u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// FramePool: the freelist arena behind Task frame allocation.

TEST(FramePool, RecyclesCanonicalBlocks) {
  FramePool::trim_thread_cache();
  const auto before = FramePool::thread_stats();
  void* a = FramePool::allocate(200);
  FramePool::deallocate(a);
  void* b = FramePool::allocate(200);  // same 64-byte bucket
  EXPECT_EQ(a, b);
  FramePool::deallocate(b);
  const auto after = FramePool::thread_stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.returns - before.returns, 2u);
  EXPECT_GT(after.cached_bytes, 0u);
}

TEST(FramePool, DistinctBucketsDoNotAlias) {
  FramePool::trim_thread_cache();
  void* small = FramePool::allocate(40);
  void* big = FramePool::allocate(1000);
  EXPECT_NE(small, big);
  FramePool::deallocate(small);
  FramePool::deallocate(big);
  // Each comes back from its own bucket.
  EXPECT_EQ(FramePool::allocate(1000), big);
  EXPECT_EQ(FramePool::allocate(40), small);
  FramePool::deallocate(small);
  FramePool::deallocate(big);
  FramePool::trim_thread_cache();
  EXPECT_EQ(FramePool::thread_stats().cached_bytes, 0u);
}

TEST(FramePool, OversizeRequestsBypassTheCache) {
  FramePool::trim_thread_cache();
  const auto before = FramePool::thread_stats();
  void* p = FramePool::allocate(FramePool::kMaxPooled + 1);
  FramePool::deallocate(p);
  const auto after = FramePool::thread_stats();
  EXPECT_EQ(after.oversize - before.oversize, 1u);
  EXPECT_EQ(after.returns - before.returns, 0u);
  EXPECT_EQ(after.cached_bytes, 0u);
}

TEST(FramePool, CrossThreadFreeJoinsTheFreeingThreadsCache) {
  // Blocks carry no thread affinity: frames allocated here may be freed on
  // another thread (its cache adopts them) and vice versa.
  std::vector<void*> blocks;
  for (int i = 0; i < 32; ++i) blocks.push_back(FramePool::allocate(256));
  std::thread t([&blocks] {
    const auto before = FramePool::thread_stats();
    for (void* p : blocks) FramePool::deallocate(p);
    const auto after = FramePool::thread_stats();
    EXPECT_EQ(after.returns - before.returns, 32u);
    // Reuse them on this thread, then hand fresh ones back to main.
    for (void*& p : blocks) p = FramePool::allocate(256);
    FramePool::trim_thread_cache();
  });
  t.join();
  for (void* p : blocks) FramePool::deallocate(p);
  FramePool::trim_thread_cache();
}

TEST(FramePool, TaskFramesHitTheCacheAfterWarmup) {
  MarkLog log;
  // Root frames return to the cache when their Engine is destroyed, so the
  // first scoped run warms the bucket and the second must recycle it.
  {
    Engine eng;
    for (int i = 0; i < 100; ++i) eng.spawn(mark_after(eng, 1, i, log));
    eng.run();
  }
  const auto warm = FramePool::thread_stats();
  {
    Engine eng;
    for (int i = 0; i < 100; ++i) eng.spawn(mark_after(eng, 1, i, log));
    eng.run();
  }
  const auto after = FramePool::thread_stats();
  EXPECT_GE(after.hits - warm.hits, 100u);
  EXPECT_EQ(after.misses - warm.misses, 0u);
  EXPECT_EQ(after.oversize - warm.oversize, 0u);
}

}  // namespace
}  // namespace wasp::sim
