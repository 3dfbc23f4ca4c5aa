// The batched columnar scan kernels vs the scalar reference row loop: the
// two map steps must produce byte-identical profiles — same doubles, same
// ordering, same everything — on both store backends, at every job count,
// and for analysis chunk sizes that deliberately misalign with the storage
// chunking (so spans get clipped at both kinds of boundary). The matrix
// also runs a trace whose start times go backwards and tie across chunk
// boundaries, checked against a global stable sort by start time: the
// order the reduce's k-way merge of per-chunk I/O runs must reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/scan_kernel.hpp"
#include "analysis/spill_store.hpp"
#include "profile_test_util.hpp"
#include "trace/synthetic.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;

std::string spill_dir(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Synthetic records that hit every kernel path: all interfaces (CPU/GPU
/// compute spans included), all ops (data, meta, compute, communication),
/// and file-less rows.
std::vector<trace::Record> kernel_coverage_records(std::size_t n) {
  trace::SyntheticOpts o;
  o.ifaces = 7;
  o.ops = 14;
  o.files_per_invalid = 5;
  return trace::synthetic_records(n, o);
}

/// Coverage records with start times that go backwards and repeat: rows
/// come in blocks of 2500, 10 s apart, and each row starts at one of 1001
/// slots 1 ms apart inside its block. Chunks hold unsorted rows, equal
/// starts recur within and across chunks, and the 9 s gaps between blocks
/// split every app's I/O into several phases. Durations are kept.
std::vector<trace::Record> out_of_order_records(std::size_t n) {
  auto records = kernel_coverage_records(n);
  for (std::size_t i = 0; i < records.size(); ++i) {
    trace::Record& r = records[i];
    const sim::Time dur = r.tend - r.tstart;
    r.tstart = (1ull << 40) + (i / 2500) * 10 * sim::kSec +
               ((i * 7919) % 1001) * sim::kMs;
    r.tend = r.tstart + dur;
  }
  return records;
}

/// TraceInput over raw records with row-dependent path/size callbacks: a
/// file's resolved path and size depend on its *first* row, so a kernel
/// that gets file_first_row wrong produces a visibly different profile
/// instead of silently resolving the same constant string.
analysis::TraceInput synthetic_input(std::span<const trace::Record> records) {
  analysis::TraceInput input;
  input.records = records;
  input.app_names = {"alpha", "beta", "gamma", "delta", "epsilon"};
  input.path_at = [](std::size_t i) { return "/row/" + std::to_string(i); };
  input.size_at = [](std::size_t i) -> fs::Bytes { return (i * 131) + 1; };
  // fs 0 shared, fs 1 node-local: both ScopedFile scoping branches run.
  input.fs_shared = [](std::int16_t f) { return f == 0; };
  return input;
}

analysis::WorkloadProfile profile_of(const analysis::TraceInput& input,
                                     int jobs, std::size_t chunk_rows,
                                     bool reference) {
  analysis::Analyzer::Options opts;
  opts.jobs = jobs;
  opts.chunk_rows = chunk_rows;
  opts.reference_scan = reference;
  return analysis::Analyzer(opts).analyze(input);
}

/// The matrix's traces: time-ordered coverage rows, and the same rows with
/// start times out of order and tied.
std::vector<std::vector<trace::Record>> matrix_traces() {
  return {kernel_coverage_records(10007), out_of_order_records(10007)};
}

TEST(ScanKernel, MatchesReferenceOnMemoryBackend) {
  for (const auto& records : matrix_traces()) {
    const auto input = synthetic_input(records);

    // chunk_rows values chosen to misalign with everything: 1000 splits the
    // trace mid-pattern, 97 makes every analysis chunk straddle boundaries.
    for (const std::size_t chunk_rows : {1000ul, 97ul}) {
      for (const int jobs : {1, 4}) {
        const auto ref = profile_of(input, jobs, chunk_rows, true);
        const auto ker = profile_of(input, jobs, chunk_rows, false);
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     " chunk_rows=" + std::to_string(chunk_rows));
        expect_profiles_identical(ref, ker);
      }
    }

    // And the kernels stay bit-identical to themselves across job counts /
    // chunkings that share chunk_rows (the existing determinism contract).
    expect_profiles_identical(profile_of(input, 1, 1000, false),
                              profile_of(input, 4, 1000, false));
  }
}

TEST(ScanKernel, MatchesReferenceOnSpillBackend) {
  for (const auto& records : matrix_traces()) {
    // Storage chunks of 128 rows vs analysis chunks of 1000/97 rows: spans
    // clip at storage boundaries mid-analysis-chunk and vice versa.
    analysis::SpillColumnStore store({.dir = spill_dir("scan_kernel.spill"),
                                      .chunk_rows = 128,
                                      .max_resident_chunks = 3});
    store.append(records);
    store.finalize();
    ASSERT_GT(store.num_chunks(), 3u);

    auto input = synthetic_input(records);
    input.store = &store;

    const auto mem_ref = profile_of(synthetic_input(records), 1, 1000, true);
    for (const std::size_t chunk_rows : {1000ul, 97ul}) {
      for (const int jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     " chunk_rows=" + std::to_string(chunk_rows));
        const auto ker = profile_of(input, jobs, chunk_rows, false);
        expect_profiles_identical(profile_of(input, jobs, chunk_rows, true),
                                  ker);
        if (chunk_rows == 1000) {
          // Same rows => same profile as the in-memory reference too.
          expect_profiles_identical(mem_ref, ker);
        }
      }
    }
  }
}

// The phase sweep and the interval unions must see the I/O rows in exactly
// the order a global stable sort by tstart gives. Recompute both from such
// a sort, straight from the records, and compare bit for bit.
TEST(ScanKernel, StartOrderMatchesGlobalStableSort) {
  const auto records = out_of_order_records(10007);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (trace::is_io(records[i].op)) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records[a].tstart < records[b].tstart;
                   });

  const analysis::Analyzer::Options defaults;
  std::vector<std::pair<sim::Time, sim::Time>> io_iv;
  std::map<std::uint16_t, std::vector<analysis::Phase>> by_app;
  std::map<std::uint16_t, sim::Time> phase_end;
  for (const std::size_t i : order) {
    const trace::Record& r = records[i];
    if (!analysis::is_compute_span(r.iface)) io_iv.emplace_back(r.tstart, r.tend);
    auto& phases = by_app[r.app];
    sim::Time& end = phase_end[r.app];
    if (phases.empty() || r.tstart > end + defaults.phase_gap) {
      phases.emplace_back();
      phases.back().t0 = r.tstart;
      phases.back().t1 = r.tend;
      end = r.tend;
    }
    phases.back().t1 = std::max(phases.back().t1, r.tend);
    end = std::max(end, r.tend);
    analysis::add_op(phases.back().ops, r.op, r.count, r.total_bytes(),
                     r.duration_sec());
  }

  for (const int jobs : {1, 4}) {
    for (const std::size_t chunk_rows : {1000ul, 97ul}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " chunk_rows=" + std::to_string(chunk_rows));
      const auto p =
          profile_of(synthetic_input(records), jobs, chunk_rows, false);
      EXPECT_EQ(p.io_time_fraction, analysis::Analyzer::union_seconds(io_iv) /
                                        p.job_runtime_sec);
      std::size_t n_phases = 0;
      for (const auto& ph : p.phases) {
        const auto& want = by_app.at(ph.app);
        const auto it = std::find_if(
            want.begin(), want.end(),
            [&](const analysis::Phase& w) { return w.t0 == ph.t0; });
        ASSERT_NE(it, want.end()) << "app " << ph.app << " t0 " << ph.t0;
        EXPECT_EQ(ph.t1, it->t1);
        testutil::expect_ops_identical(ph.ops, it->ops);
        ++n_phases;
      }
      std::size_t want_phases = 0;
      for (const auto& [app, phs] : by_app) want_phases += phs.size();
      EXPECT_EQ(n_phases, want_phases);
      EXPECT_GT(want_phases, by_app.size());  // the gaps really split phases
    }
  }
}

// Only the map step reads the store: the later passes work from the chunks'
// I/O runs, and the resolve pass walks the store front to back. With a
// cache smaller than the store, that is at most two loads per chunk.
// Read-ahead is off: racing a parallel scan, it can occasionally reload an
// evicted chunk, which is the store's prefetch policy, not an extra pass.
TEST(ScanKernel, AnalyzeLoadsEachSpillChunkAtMostTwice) {
  trace::SyntheticOpts o;
  o.files = 1u << 20;  // first touches spread through the whole trace
  const auto records = trace::synthetic_records(16 * 1000, o);
  std::vector<std::uint32_t> path_idx(records.size());
  std::vector<std::uint64_t> file_sizes(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    path_idx[i] = static_cast<std::uint32_t>(records[i].file.file);
    file_sizes[i] = i;
  }
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    analysis::SpillColumnStore store({.dir = spill_dir("pass_count.spill"),
                                      .chunk_rows = 1000,
                                      .max_resident_chunks = 4,
                                      .prefetch = false});
    store.append(records, path_idx, file_sizes);
    store.finalize();
    const std::size_t k = store.num_chunks();
    ASSERT_EQ(k, 16u);

    analysis::TraceInput input;
    input.store = &store;
    input.app_names = {"a", "b", "c", "d", "e"};
    input.path_at = [&store](std::size_t i) {
      return "/f/" + std::to_string(store.path_idx_at(i));
    };
    input.size_at = [&store](std::size_t i) { return store.file_size_at(i); };
    input.fs_shared = [](std::int16_t) { return true; };
    const auto p = profile_of(input, jobs, 1000, false);
    EXPECT_GT(p.files.size(), 1000u);
    EXPECT_LE(store.io_stats().chunk_loads, 2 * k);
  }
}

TEST(ScanKernel, MatchesReferenceOnSimulatedWorkload) {
  // A real multi-app trace (shared + fpp files, CPU spans, barriers) rather
  // than synthetic noise: the montage test workload.
  runtime::Simulation sim(cluster::lassen(4));
  workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});

  for (const int jobs : {1, 4}) {
    analysis::Analyzer::Options ref_opts;
    ref_opts.jobs = jobs;
    ref_opts.chunk_rows = 23;  // many tiny chunks, lots of merge traffic
    analysis::Analyzer::Options ker_opts = ref_opts;
    ref_opts.reference_scan = true;
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_profiles_identical(
        analysis::Analyzer(ref_opts).analyze(sim.tracer()),
        analysis::Analyzer(ker_opts).analyze(sim.tracer()));
  }
}

}  // namespace
}  // namespace wasp
