// TraceStore backend contract: the spill-to-disk columnar store must serve
// the exact bytes the in-memory store serves — profiles byte-identical at
// every job count — while keeping the
// resident set bounded by chunk_rows * (max_resident_chunks + cursors + 1):
// K cached/in-flight chunks, one buffer per concurrent cursor (a pin or an
// in-flight demand load), plus the one double-buffered prefetch load.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "profile_test_util.hpp"
#include "trace/log_io.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;
using trace::synthetic_records;

std::string spill_dir(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Simulate a test-scale Montage run (multi-app, shared + fpp files) and
/// leave the trace in the Simulation's tracer.
void populate(runtime::Simulation& sim) {
  workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});
}

TEST(SpillStore, RoundTripsRowsThroughChunkFiles) {
  const auto records = synthetic_records(10007);

  analysis::SpillColumnStore store(
      {.dir = spill_dir("roundtrip.spill"),
       .chunk_rows = 100,
       .max_resident_chunks = 2});
  // Odd-sized appends so batch boundaries never line up with chunks.
  std::size_t pos = 0, batch = 1;
  while (pos < records.size()) {
    const std::size_t n = std::min(batch, records.size() - pos);
    store.append(std::span<const trace::Record>(records.data() + pos, n));
    pos += n;
    batch = batch % 7 + 1;
  }
  store.finalize();

  ASSERT_EQ(store.size(), records.size());
  EXPECT_EQ(store.spilled_chunks(), (records.size() - 1) / 100 + 1);
  EXPECT_EQ(store.num_chunks(), store.spilled_chunks());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(store.row(i) == records[i]) << "row " << i;
  }
  // A full sequential scan through row() keeps residency bounded by the
  // cap plus one transiently pinned chunk plus the prefetch double-buffer.
  EXPECT_LE(store.peak_resident_chunks(), 2u + 2u);
  EXPECT_GT(store.chunk_evictions(), 0u);
  // (No prefetch_issued assertion here: on a busy machine the demand loads
  // of a tight row() loop can win every race against the prefetch thread;
  // SequentialScanPrefetchesNextChunk covers prefetch deterministically.)
  const auto io = store.io_stats();
  EXPECT_GT(io.bytes_written, 0u);
  EXPECT_GT(io.bytes_read, 0u);
  // Compressed chunks must beat the raw column footprint on this trace.
  EXPECT_LT(io.bytes_written, io.raw_bytes);
}

TEST(SpillStore, ProfileMatchesMemoryBackendAcrossJobCounts) {
  runtime::Simulation sim(cluster::lassen(4));
  populate(sim);
  const auto& records = sim.tracer().records();

  // Analysis grain deliberately misaligned with the storage chunking: the
  // map-reduce boundaries must not depend on how storage slices the trace.
  ASSERT_GT(records.size(), 100u);

  analysis::Analyzer::Options o1;
  o1.jobs = 1;
  o1.chunk_rows = 23;
  analysis::Analyzer::Options o8 = o1;
  o8.jobs = 8;

  const auto mem1 = analysis::Analyzer(o1).analyze(sim.tracer());
  const auto mem8 = analysis::Analyzer(o8).analyze(sim.tracer());
  expect_profiles_identical(mem1, mem8);

  const std::size_t kMaxResident = 3;
  {
    analysis::SpillColumnStore store({.dir = spill_dir("jobs1.spill"),
                                      .chunk_rows = 17,
                                      .max_resident_chunks = kMaxResident});
    store.append(records);
    store.finalize();
    ASSERT_GT(store.num_chunks(), kMaxResident);
    const auto spill1 = analysis::Analyzer(o1).analyze(
        analysis::tracer_input(sim.tracer(), &store));
    expect_profiles_identical(mem1, spill1);
    // Acceptance bound: K cached/in-flight + 1 cursor + 1 prefetch buffer.
    EXPECT_LE(store.peak_resident_chunks(), kMaxResident + 1 + 1);
    EXPECT_GT(store.chunk_loads(), 0u);
  }
  {
    analysis::SpillColumnStore store({.dir = spill_dir("jobs8.spill"),
                                      .chunk_rows = 17,
                                      .max_resident_chunks = kMaxResident});
    store.append(records);
    store.finalize();
    const auto spill8 = analysis::Analyzer(o8).analyze(
        analysis::tracer_input(sim.tracer(), &store));
    expect_profiles_identical(mem1, spill8);
    // W concurrent cursors can each keep one evicted chunk pinned, and the
    // prefetcher may hold one more in flight.
    EXPECT_LE(store.peak_resident_chunks(), kMaxResident + 8 + 1);
  }
}

TEST(SpillStore, SingleResidentChunkForcesEvictionsButNotDivergence) {
  runtime::Simulation sim(cluster::lassen(4));
  populate(sim);

  analysis::Analyzer::Options opts;
  opts.jobs = 1;
  opts.chunk_rows = 29;
  const auto mem = analysis::Analyzer(opts).analyze(sim.tracer());

  analysis::SpillColumnStore store({.dir = spill_dir("evict.spill"),
                                    .chunk_rows = 16,
                                    .max_resident_chunks = 1});
  store.append(sim.tracer().records());
  store.finalize();
  const auto spill = analysis::Analyzer(opts).analyze(
      analysis::tracer_input(sim.tracer(), &store));
  expect_profiles_identical(mem, spill);

  // K=1 cursor=1 prefetch=1: the cap still bounds the cache itself, but a
  // pinned chunk plus the prefetch double-buffer can coexist with it.
  EXPECT_LE(store.peak_resident_chunks(), 1u + 1u + 1u);
  EXPECT_GT(store.chunk_evictions(), 0u);
  // The analyzer makes several passes; with one resident chunk every pass
  // re-loads, so loads must exceed the chunk count.
  EXPECT_GT(store.chunk_loads(), store.spilled_chunks());
}

TEST(SpillStore, TracerMidRunFlushMatchesUnspilledRun) {
  const auto make = [] {
    return workloads::make_montage_mpi(workloads::MontageMpiParams::test());
  };
  analysis::Analyzer::Options opts;
  opts.jobs = 2;
  opts.chunk_rows = 41;

  runtime::Simulation mem_sim(cluster::lassen(4));
  const auto mem =
      workloads::run_with(mem_sim, make(), advisor::RunConfig{}, opts);
  const std::size_t n = mem_sim.tracer().records().size();
  ASSERT_GT(n, 100u);

  runtime::SpillPolicy policy;
  policy.dir = spill_dir("midrun");
  policy.flush_rows = 32;  // tiny, so the tracer flushes many times mid-run
  policy.chunk_rows = 32;
  policy.max_resident_chunks = 2;
  runtime::Simulation spill_sim(cluster::lassen(4));
  const auto spill = workloads::run_spilled(spill_sim, make(),
                                            advisor::RunConfig{}, opts,
                                            policy, "montage-midrun");

  EXPECT_GT(spill_sim.tracer().spilled_records(), 0u);
  EXPECT_LT(spill_sim.tracer().records().size(), n);
  EXPECT_EQ(spill_sim.tracer().total_records(), n);
  EXPECT_EQ(mem.job_seconds, spill.job_seconds);
  EXPECT_EQ(mem.engine_events, spill.engine_events);
  expect_profiles_identical(mem.profile, spill.profile);
}

TEST(SpillStore, RunManyHonorsRunnerSpillPolicy) {
  std::vector<workloads::Scenario> scenarios;
  for (int nodes : {2, 4}) {
    workloads::Scenario s;
    s.name = "hacc-" + std::to_string(nodes);
    s.spec = cluster::lassen(nodes);
    s.make = [] { return workloads::make_hacc(workloads::HaccParams::test()); };
    scenarios.push_back(std::move(s));
  }
  const auto mem = workloads::run_many(scenarios, 2);

  runtime::SpillPolicy policy;
  policy.dir = spill_dir("runmany");
  policy.flush_rows = 64;
  policy.chunk_rows = 64;
  runtime::ScenarioRunner runner(2);
  runner.set_spill(policy);
  const auto spill = workloads::run_many(scenarios, runner);

  ASSERT_EQ(spill.size(), mem.size());
  for (std::size_t i = 0; i < mem.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    EXPECT_EQ(mem[i].job_seconds, spill[i].job_seconds);
    expect_profiles_identical(mem[i].profile, spill[i].profile);
  }
}

TEST(SpillStore, OfflineLogStreamsThroughAuxColumns) {
  runtime::Simulation sim(cluster::lassen(4));
  populate(sim);
  const std::string path =
      std::string(::testing::TempDir()) + "/offline_spill.wtrc";
  trace::write_log(path, sim.tracer());

  analysis::Analyzer::Options opts;
  opts.jobs = 4;
  opts.chunk_rows = 37;
  const auto baseline =
      analysis::Analyzer(opts).analyze(trace::read_log(path));

  // The wasp_analyze --backend spill path: stream the log into an aux
  // store, then analyze through it.
  trace::LogReader reader(path);
  const auto& h = reader.header();
  analysis::SpillColumnStore store({.dir = spill_dir("offline.spill"),
                                    .chunk_rows = 19,
                                    .max_resident_chunks = 4});
  std::vector<trace::Record> batch;
  std::vector<std::uint32_t> path_idx;
  std::vector<std::uint64_t> file_sizes;
  while (reader.remaining() > 0) {
    batch.clear();
    path_idx.clear();
    file_sizes.clear();
    ASSERT_GT(reader.next_chunk(50, batch, path_idx, file_sizes), 0u);
    store.append(batch, path_idx, file_sizes);
  }
  store.finalize();
  ASSERT_TRUE(store.has_aux());
  ASSERT_EQ(store.size(), h.num_records);

  analysis::TraceInput input;
  input.store = &store;
  input.app_names = h.apps;
  input.path_at = [&](std::size_t i) {
    return h.path_table[store.path_idx_at(i)];
  };
  input.size_at = [&](std::size_t i) { return store.file_size_at(i); };
  input.fs_shared = [&](std::int16_t fs) {
    return fs < 0 || static_cast<std::size_t>(fs) >= h.fs_shared.size() ||
           h.fs_shared[fs];
  };
  expect_profiles_identical(baseline,
                            analysis::Analyzer(opts).analyze(input));
  std::remove(path.c_str());
}

TEST(SpillStore, MisuseFailsLoudly) {
  const std::vector<trace::Record> one(1);
  {
    analysis::SpillColumnStore store({.dir = spill_dir("misuse1.spill")});
    store.append(one);
    EXPECT_THROW(store.chunk(0), util::SimError);  // not finalized
    store.finalize();
    EXPECT_THROW(store.append(one), util::SimError);  // sealed
  }
  {
    analysis::SpillColumnStore store({.dir = spill_dir("misuse2.spill")});
    const std::vector<std::uint32_t> idx(1, 0);
    const std::vector<std::uint64_t> sz(1, 0);
    store.append(one, idx, sz);  // decides aux
    EXPECT_THROW(store.append(one), util::SimError);  // aux mixing
  }
}

// Regression: a chunk that fails validation mid-load must not decrement the
// residency counter it never incremented (the ChunkData destructor used to
// decrement unconditionally, so a corrupt file would underflow the count and
// wreck the eviction bound for the rest of the run).
TEST(SpillStore, CorruptChunkFailsLoudlyWithoutResidencyUnderflow) {
  const auto records = synthetic_records(350);
  analysis::SpillColumnStore store({.dir = spill_dir("corrupt.spill"),
                                    .chunk_rows = 100,
                                    .max_resident_chunks = 2,
                                    .prefetch = false});
  store.append(records);
  store.finalize();
  ASSERT_EQ(store.spilled_chunks(), 4u);

  // Truncate a middle chunk to a few header bytes.
  const std::string victim = store.chunk_file_path(1);
  {
    std::ifstream in(victim, std::ios::binary);
    ASSERT_TRUE(in.good());
  }
  std::filesystem::resize_file(victim, 12);

  EXPECT_THROW(store.row(150), util::SimError);
  // The failed load must leave no phantom resident chunk behind.
  EXPECT_EQ(store.resident_chunks(), 0u);
  // And the failure is not sticky for other chunks...
  EXPECT_TRUE(store.row(0) == records[0]);
  EXPECT_TRUE(store.row(250) == records[250]);
  // ...while re-demanding the corrupt chunk still throws (not cached).
  EXPECT_THROW(store.row(150), util::SimError);
  EXPECT_LE(store.resident_chunks(), 2u);
}

// Regression: every chunk except the last must hold exactly chunk_rows rows.
// A short non-final chunk used to load "successfully" and silently misalign
// every row index after it (view_of computes base = chunk_index * chunk_rows).
TEST(SpillStore, ShortNonFinalChunkRejected) {
  const auto records = synthetic_records(250);  // chunks of 100, 100, 50
  analysis::SpillColumnStore store({.dir = spill_dir("shortchunk.spill"),
                                    .chunk_rows = 100,
                                    .max_resident_chunks = 4,
                                    .prefetch = false});
  store.append(records);
  store.finalize();
  ASSERT_EQ(store.spilled_chunks(), 3u);

  // Overwrite the middle chunk with the (valid but short) final chunk file.
  std::filesystem::copy_file(store.chunk_file_path(2),
                             store.chunk_file_path(1),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(store.row(100), util::SimError);
  // Overwrite the final chunk with a full-size one: also a count mismatch.
  std::filesystem::copy_file(store.chunk_file_path(0),
                             store.chunk_file_path(2),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(store.row(200), util::SimError);
  // Chunk 0 is untouched and still loads.
  EXPECT_TRUE(store.row(0) == records[0]);
}

// Regression: two stores pointed at the same --spill-dir used to write the
// same chunk_000000.wspc paths and corrupt each other. Each instance now
// gets a unique subdirectory.
TEST(SpillStore, TwoStoresShareOneSpillDirWithoutCollision) {
  const std::string dir = spill_dir("shared.spill");
  const auto a_records = synthetic_records(1009);
  auto b_records = synthetic_records(1013);
  for (auto& r : b_records) r.offset += 7;  // make the traces distinguishable

  auto a = std::make_unique<analysis::SpillColumnStore>(
      analysis::SpillColumnStore::Options{
          .dir = dir, .chunk_rows = 64, .max_resident_chunks = 2});
  analysis::SpillColumnStore b({.dir = dir,
                                .chunk_rows = 64,
                                .max_resident_chunks = 2});
  ASSERT_NE(a->spill_dir(), b.spill_dir());

  // Interleave appends, then read both back in full.
  std::size_t pa = 0, pb = 0;
  while (pa < a_records.size() || pb < b_records.size()) {
    if (pa < a_records.size()) {
      const std::size_t n = std::min<std::size_t>(33, a_records.size() - pa);
      a->append(std::span<const trace::Record>(a_records.data() + pa, n));
      pa += n;
    }
    if (pb < b_records.size()) {
      const std::size_t n = std::min<std::size_t>(41, b_records.size() - pb);
      b.append(std::span<const trace::Record>(b_records.data() + pb, n));
      pb += n;
    }
  }
  a->finalize();
  b.finalize();
  for (std::size_t i = 0; i < a_records.size(); ++i) {
    ASSERT_TRUE(a->row(i) == a_records[i]) << "store a row " << i;
  }
  // Destroying one store must not take the other's chunk files with it.
  a.reset();
  for (std::size_t i = 0; i < b_records.size(); ++i) {
    ASSERT_TRUE(b.row(i) == b_records[i]) << "store b row " << i;
  }
}

// Property: compressed chunks decode to the input records, and store fewer
// bytes than the raw columns they hold.
TEST(SpillStore, CompressedAndRawChunksDecodeIdentically) {
  const auto records = synthetic_records(5003);
  analysis::SpillColumnStore store({.dir = spill_dir("prop.spill"),
                                    .chunk_rows = 128,
                                    .max_resident_chunks = 4});
  store.append(records);
  store.finalize();

  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(store.row(i) == records[i]) << "row " << i;
  }
  const auto io = store.io_stats();
  // Raw size: the twelve non-aux columns at their fixed widths, 58 B a row.
  EXPECT_EQ(io.raw_bytes, records.size() * 58);
  EXPECT_LT(io.bytes_written, io.raw_bytes);
  // Monotone time columns should delta-compress dramatically.
  for (const auto& c : io.columns) {
    if (std::string(c.name) == "tstart") {
      EXPECT_LT(c.stored_bytes * 2, c.raw_bytes);
    }
  }
}

/// A fixed trace whose columns exercise every chunk encoding and both
/// tie-breaks: long runs (app: RLE), runs of two (node: delta and RLE tie,
/// delta wins), random one-byte enums (op: delta ties raw, raw wins),
/// sequential segments (offset, count: delta/RLE), monotone times (delta)
/// and random sizes (raw).
std::vector<trace::Record> golden_records(std::size_t n) {
  auto records = synthetic_records(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& r = records[i];
    r.app = static_cast<std::uint16_t>((i / 3001) % 4);
    r.node = static_cast<std::int32_t>(((i / 2) % 2) * 3 + 1);
    if ((i / 500) % 2 == 0) {
      r.iface = static_cast<trace::Iface>((i / 7) % 3);
      r.offset = (i % 500) * 4096;
      r.count = 1;
    }
  }
  return records;
}

// Chunk files are a persistent format: every chunk file the store writes
// for a fixed trace must match the committed digests byte for byte, at
// several chunkings, with and without the aux columns.
TEST(SpillStore, ChunkFilesMatchGoldenDigests) {
  struct Golden {
    std::size_t chunk_rows;
    bool aux;
    std::size_t chunks;
    std::uint64_t bytes;
    std::uint64_t digest;  ///< FNV-1a over all chunk files, in chunk order
  };
  const Golden golden[] = {
      {65536, false, 3, 2715512, 0x6e9b7833fc8894c8},
      {65536, true, 3, 3265936, 0x459a7944b749375a},
      {1000, false, 136, 2734989, 0x3b8d8e0bbe31abd2},
      {1000, true, 136, 3288107, 0xedbbc6f8b93fa96b},
      {97, false, 1396, 2847827, 0xdc48db177e143b59},
      {97, true, 1396, 3426537, 0x740c71cf24afcebd},
  };
  const auto records = golden_records(2 * 65536 + 4321);
  std::vector<std::uint32_t> path_idx(records.size());
  std::vector<std::uint64_t> file_sizes(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    path_idx[i] = records[i].file.file % 97;
    file_sizes[i] = (1ull << 30) + path_idx[i] * 4096;
  }
  for (const Golden& g : golden) {
    SCOPED_TRACE("chunk_rows " + std::to_string(g.chunk_rows) +
                 (g.aux ? " aux" : ""));
    analysis::SpillColumnStore store({.dir = spill_dir("golden.spill"),
                                      .chunk_rows = g.chunk_rows,
                                      .prefetch = false});
    // Uneven batches, so batch and chunk boundaries never line up.
    for (std::size_t pos = 0; pos < records.size(); pos += 4099) {
      const std::size_t n = std::min<std::size_t>(4099, records.size() - pos);
      const std::span<const trace::Record> batch(records.data() + pos, n);
      if (g.aux) {
        store.append(batch, {path_idx.data() + pos, n},
                     {file_sizes.data() + pos, n});
      } else {
        store.append(batch);
      }
    }
    store.finalize();
    std::uint64_t digest = testutil::kFnvOffset;
    std::uint64_t bytes = 0;
    for (std::size_t c = 0; c < store.spilled_chunks(); ++c) {
      std::ifstream in(store.chunk_file_path(c), std::ios::binary);
      const std::string file((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      digest = testutil::fnv1a(digest, file);
      bytes += file.size();
    }
    EXPECT_EQ(store.spilled_chunks(), g.chunks);
    EXPECT_EQ(bytes, g.bytes);
    EXPECT_EQ(store.io_stats().bytes_written, g.bytes);
    EXPECT_EQ(digest, g.digest) << std::hex << "digest 0x" << digest;
  }
}

/// Append a native-endian u64 to a hand-built chunk file.
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A WSPCHK02 chunk of `rows` rows: the app column RLE-encoded as one run
/// of `app`, every other column raw zeros.
std::string hand_built_chunk(std::size_t rows, std::uint64_t app) {
  std::string f = "WSPCHK02";
  put_u64(f, 2);
  put_u64(f, rows);
  put_u64(f, 0);  // no aux columns
  std::string rle;
  for (std::uint64_t v : {std::uint64_t{rows}, app}) {
    while (v >= 0x80) {
      rle.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    rle.push_back(static_cast<char>(v));
  }
  f.push_back(2);  // kRle
  put_u64(f, rle.size());
  f += rle;
  // rank node iface op fs file offset size count tstart tend
  for (std::size_t width : {4, 4, 1, 1, 2, 8, 8, 8, 4, 8, 8}) {
    f.push_back(0);  // kRaw
    put_u64(f, rows * width);
    f.append(rows * width, '\0');
  }
  return f;
}

// A decoded value that does not fit its column type is corruption: 70000 in
// the uint16 app column must be rejected with the chunk's path, not loaded
// truncated to 4464. So are bytes after the last column and a chunk in the
// raw WSPCHK01 layout.
TEST(SpillStore, HandBuiltCorruptChunksRejected) {
  const auto records = synthetic_records(300);
  analysis::SpillColumnStore store({.dir = spill_dir("range.spill"),
                                    .chunk_rows = 100,
                                    .max_resident_chunks = 1,
                                    .prefetch = false});
  store.append(records);
  store.finalize();
  const std::string victim = store.chunk_file_path(1);
  const auto overwrite = [&](const std::string& bytes) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  // Control: the hand-built layout itself loads when the value fits.
  overwrite(hand_built_chunk(100, 7));
  EXPECT_EQ(store.row(150).app, 7);
  EXPECT_EQ(store.row(150).tend, 0u);
  (void)store.row(0);  // evict chunk 1 (one resident chunk)

  overwrite(hand_built_chunk(100, 70000));
  try {
    (void)store.row(150);
    FAIL() << "loaded an out-of-range app value";
  } catch (const util::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
    EXPECT_NE(msg.find(victim), std::string::npos) << msg;
  }
  EXPECT_TRUE(store.row(250) == records[250]);

  overwrite(hand_built_chunk(100, 7) + '\0');
  EXPECT_THROW(store.row(150), util::SimError);

  // The raw WSPCHK01 layout (version 1, bare column arrays) is not a chunk
  // format the store writes or reads.
  std::string v1 = "WSPCHK01";
  put_u64(v1, 1);
  put_u64(v1, 100);
  put_u64(v1, 0);  // no aux columns
  v1.append(100 * 58, '\0');
  overwrite(v1);
  try {
    (void)store.row(150);
    FAIL() << "loaded a WSPCHK01 chunk";
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("bad spill chunk magic"),
              std::string::npos)
        << e.what();
  }
}

// Chunks are written by the store's background thread while appends go on.
// A disk error on a non-final chunk must surface from append() or
// finalize() with the usual diagnostic, the partial chunk removed, and the
// store must still destruct promptly.
TEST(SpillStore, WriterFailureSurfacesAndRemovesPartialChunk) {
  std::error_code ec;
  if (!std::filesystem::is_character_file("/dev/full", ec)) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const auto records = synthetic_records(1000);
  {
    analysis::SpillColumnStore store({.dir = spill_dir("writer_fail.spill"),
                                      .chunk_rows = 100});
    const std::string victim = store.chunk_file_path(3);
    std::filesystem::create_symlink("/dev/full", victim);
    std::string msg;
    try {
      for (std::size_t pos = 0; pos < records.size(); pos += 30) {
        const std::size_t n = std::min<std::size_t>(30, records.size() - pos);
        store.append(std::span<const trace::Record>(records.data() + pos, n));
      }
      store.finalize();
      FAIL() << "chunk write to /dev/full succeeded";
    } catch (const util::SimError& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("short write to spill chunk"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find(victim), std::string::npos) << msg;
    // The failure is sticky: the store cannot be sealed for reading.
    if (!store.finalized()) {
      EXPECT_THROW(store.finalize(), util::SimError);
    }
    EXPECT_FALSE(
        std::filesystem::exists(std::filesystem::symlink_status(victim)));
  }
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
}

// The background prefetcher must turn a sequential chunk scan into cache
// hits. Polling chunk_cached() makes the assertion deterministic even on a
// single-CPU machine.
TEST(SpillStore, SequentialScanPrefetchesNextChunk) {
  const auto records = synthetic_records(20 * 100);
  analysis::SpillColumnStore store({.dir = spill_dir("prefetch.spill"),
                                    .chunk_rows = 100,
                                    .max_resident_chunks = 2});
  store.append(records);
  store.finalize();
  ASSERT_EQ(store.num_chunks(), 20u);

  const auto wait_cached = [&](std::size_t index) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!store.chunk_cached(index) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return store.chunk_cached(index);
  };

  for (std::size_t k = 0; k + 1 < store.num_chunks(); ++k) {
    auto h = store.chunk(k);  // schedules prefetch of k+1
    ASSERT_EQ(h.cols.rows, 100u);
    ASSERT_TRUE(wait_cached(k + 1)) << "prefetch of chunk " << k + 1;
  }
  const auto io = store.io_stats();
  EXPECT_GT(io.prefetch_issued, 0u);
  // Every chunk after the first was already resident when demanded.
  EXPECT_GE(io.prefetch_hits, store.num_chunks() - 2);
  EXPECT_LE(store.peak_resident_chunks(), 2u + 1u + 1u);
}

// Several readers arriving while one prefetch load is in flight share that
// load, and it counts as at most one prefetch hit — not one per waiter.
TEST(SpillStore, ReadersWaitingOnOnePrefetchCountOneHit) {
  constexpr std::size_t kRows = 1 << 15;  // slow enough to decode to catch
  constexpr std::size_t kChunks = 6;
  constexpr int kReaders = 4;
  const auto records = synthetic_records(kRows * kChunks);
  analysis::SpillColumnStore store({.dir = spill_dir("prefetch_wait.spill"),
                                    .chunk_rows = kRows,
                                    .max_resident_chunks = 4});
  store.append(records);
  store.finalize();

  for (std::size_t k = 0; k + 1 < kChunks; ++k) {
    (void)store.chunk(k);  // schedules the prefetch of k+1
    // Give the prefetch thread time to claim the load, then pile on.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&store, k] {
        const auto h = store.chunk(k + 1);
        EXPECT_EQ(h.cols.base, (k + 1) * kRows);
      });
    }
    for (auto& th : readers) th.join();
  }
  const auto io = store.io_stats();
  EXPECT_GT(io.prefetch_issued, 0u);
  EXPECT_LE(io.prefetch_hits, io.prefetch_issued);
  // Waiters share the in-flight load: every chunk was read exactly once.
  EXPECT_EQ(io.chunk_loads, kChunks);
}

// Many cursors hammering a one-chunk cache: exercises the off-lock loader,
// the in-flight load sharing, and eviction under contention. Runs under the
// "sanitize" label in the WASP_SANITIZE=thread build.
TEST(SpillStoreStress, ConcurrentCursorsTinyCache) {
  const auto records = synthetic_records(10007);
  analysis::SpillColumnStore store({.dir = spill_dir("stress.spill"),
                                    .chunk_rows = 64,
                                    .max_resident_chunks = 1});
  store.append(records);
  store.finalize();

  constexpr int kThreads = 8;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      analysis::Cursor cs(store);
      // Stagger starting offsets so threads fight over different chunks.
      const std::size_t start = static_cast<std::size_t>(t) * 1237;
      for (std::size_t k = 0; k < records.size(); ++k) {
        const std::size_t i = (start + k) % records.size();
        if (cs.op(i) != records[i].op || cs.size_col(i) != records[i].size ||
            cs.tstart(i) != records[i].tstart ||
            cs.offset(i) != records[i].offset) {
          errors[t] = "row mismatch at " + std::to_string(i);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  EXPECT_LE(store.peak_resident_chunks(),
            1u + static_cast<std::size_t>(kThreads) + 1u);
  EXPECT_GT(store.chunk_evictions(), 0u);
}

// The background writer under churn: single-row appends into three-row
// chunks hand a sealed chunk over on every third row, and stores destroyed
// mid-ingest must join the writer and clean up. Runs under the "sanitize"
// label in the WASP_SANITIZE=thread build.
TEST(SpillStoreStress, WriterOverlapsTinyChunks) {
  const auto records = synthetic_records(3001);
  std::vector<std::uint32_t> path_idx(records.size());
  std::vector<std::uint64_t> file_sizes(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    path_idx[i] = static_cast<std::uint32_t>(i % 13);
    file_sizes[i] = i * 7;
  }
  {
    analysis::SpillColumnStore store({.dir = spill_dir("writer_churn.spill"),
                                      .chunk_rows = 3,
                                      .max_resident_chunks = 2});
    for (std::size_t i = 0; i < records.size(); ++i) {
      store.append({&records[i], 1}, {&path_idx[i], 1}, {&file_sizes[i], 1});
    }
    store.finalize();
    ASSERT_EQ(store.spilled_chunks(), 1001u);
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(store.row(i) == records[i]) << "row " << i;
      ASSERT_EQ(store.path_idx_at(i), path_idx[i]) << "row " << i;
      ASSERT_EQ(store.file_size_at(i), file_sizes[i]) << "row " << i;
    }
  }
  for (std::size_t rows : {4u, 50u, 301u, 2000u}) {
    std::string dir;
    {
      analysis::SpillColumnStore store({.dir = spill_dir("writer_drop.spill"),
                                        .chunk_rows = 3});
      dir = store.spill_dir();
      store.append(std::span<const trace::Record>(records.data(), rows));
    }  // destroyed without finalize()
    EXPECT_FALSE(std::filesystem::exists(dir)) << rows << " rows";
  }
}

// Scale test (off by default; opt in with `ctest -C scale -L scale` or
// WASP_SCALE=1): a trace 4x larger than the cache's row capacity must scan
// and analyze with residency bounded and the prefetcher doing real work.
TEST(SpillScale, LargerThanCacheBoundedScan) {
  if (std::getenv("WASP_SCALE") == nullptr) {
    GTEST_SKIP() << "set WASP_SCALE=1 (or ctest -C scale -L scale) to run";
  }
  constexpr std::size_t kChunkRows = 8192;
  constexpr std::size_t kMaxResident = 4;
  const std::size_t rows = 4 * kMaxResident * kChunkRows;
  const auto records = synthetic_records(rows);

  analysis::SpillColumnStore store({.dir = spill_dir("scale.spill"),
                                    .chunk_rows = kChunkRows,
                                    .max_resident_chunks = kMaxResident});
  store.append(records);
  store.finalize();
  ASSERT_GE(store.num_chunks(), 4 * kMaxResident);

  // Sequential cursor scan over everything.
  analysis::Cursor cs(store);
  std::uint64_t checksum = 0, expected = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    checksum += cs.offset(i) + cs.tstart(i);
    expected += records[i].offset + records[i].tstart;
  }
  EXPECT_EQ(checksum, expected);

  const auto io = store.io_stats();
  EXPECT_GT(io.prefetch_issued, 0u);
  EXPECT_GT(io.prefetch_hits, 0u);
  EXPECT_LT(io.bytes_written, io.raw_bytes);
  // Peak residency stays bounded: K + 1 cursor + 1 prefetch buffer.
  EXPECT_LE(store.peak_resident_chunks(), kMaxResident + 1 + 1);
  EXPECT_GT(store.chunk_evictions(), 0u);
}

}  // namespace
}  // namespace wasp
