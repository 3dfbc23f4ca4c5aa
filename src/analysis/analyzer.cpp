#include "analysis/analyzer.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <type_traits>
#include <unordered_map>

#include "analysis/dense.hpp"
#include "analysis/scan_kernel.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

// The analyze() pipeline is a deterministic map-reduce, mirroring the
// paper's parquet + DASK task-parallel analysis: the trace is split into
// fixed row chunks (boundaries depend only on trace size and chunk_rows,
// never on the job count), each chunk is scanned independently into a
// ChunkState, and the partials are merged on one thread in chunk-index
// order. Integer aggregates are order-insensitive anyway; floating-point
// sums get a fixed association order from the chunk-ordered merge, so the
// profile is bit-identical at jobs=1 and jobs=N.
//
// Only the map step reads the trace, through a TraceStore Cursor, never
// through raw vectors: the analysis chunking above is independent of the
// store's storage chunking, so the in-memory and spill backends walk
// identical value sequences and produce byte-identical profiles. What the
// later passes need leaves the map step as each chunk's IoRun; the resolve
// pass's callbacks are the only other reads, made in ascending row order.

namespace wasp::analysis {
namespace {

/// Analyzer telemetry: per-pass wall time (TimerGuard — timing-gated) plus
/// the rows-processed counter that rows/sec derives from. Spans with the
/// same names mark the passes on the trace timeline.
struct AnalyzerMetrics {
  obs::Counter rows = obs::Registry::instance().counter("analyze.rows");
  obs::Counter total_ns = obs::Registry::instance().counter("analyze.ns");
  obs::Counter scan_ns =
      obs::Registry::instance().counter("analyze.scan_ns");
  obs::Counter merge_ns =
      obs::Registry::instance().counter("analyze.merge_ns");
  obs::Counter resolve_ns =
      obs::Registry::instance().counter("analyze.resolve_ns");
  obs::Counter unions_ns =
      obs::Registry::instance().counter("analyze.unions_ns");
  obs::Counter phases_ns =
      obs::Registry::instance().counter("analyze.phases_ns");
  obs::Counter timeline_ns =
      obs::Registry::instance().counter("analyze.timeline_ns");
};

const AnalyzerMetrics& analyzer_metrics() {
  static const AnalyzerMetrics m;
  return m;
}

/// Append ids from `from` that `into` lacks, preserving first-seen order.
void merge_app_ids(std::vector<std::uint16_t>& into,
                   const std::vector<std::uint16_t>& from) {
  for (const auto id : from) {
    if (std::find(into.begin(), into.end(), id) == into.end()) {
      into.push_back(id);
    }
  }
}

// ---------------------------------------------------------------------------
// Sorted-vector reduction. ChunkState carries its large keyed state as
// key-sorted vectors, so the reduce folds each chunk into the global state
// with linear two-pointer merges — no per-key tree walks, no node
// allocations. The fold still runs left-to-right in chunk-index order, so
// every colliding key combines its per-chunk values in exactly the order
// the map-based reduce used; floating-point sums keep their association
// order and the profile stays bit-identical.

/// Fold a chunk's sorted (key, value) vector into the global one; `combine`
/// resolves key collisions (global value first, chunk value second).
template <typename K, typename V, typename Combine>
void merge_sorted(std::vector<std::pair<K, V>>& global,
                  std::vector<std::pair<K, V>>&& chunk, Combine combine) {
  if (chunk.empty()) return;
  if (global.empty()) {
    global = std::move(chunk);
    return;
  }
  std::vector<std::pair<K, V>> out;
  out.reserve(global.size() + chunk.size());
  auto g = global.begin();
  auto c = chunk.begin();
  while (g != global.end() && c != chunk.end()) {
    if (g->first < c->first) {
      out.push_back(std::move(*g++));
    } else if (c->first < g->first) {
      out.push_back(std::move(*c++));
    } else {
      combine(g->second, c->second);
      out.push_back(std::move(*g++));
      ++c;
    }
  }
  out.insert(out.end(), std::make_move_iterator(g),
             std::make_move_iterator(global.end()));
  out.insert(out.end(), std::make_move_iterator(c),
             std::make_move_iterator(chunk.end()));
  global = std::move(out);
}

/// Set-union of ascending id vectors, in place on `into`.
void union_ids(std::vector<std::int32_t>& into,
               const std::vector<std::int32_t>& from) {
  if (from.empty()) return;
  if (into.empty()) {
    into = from;
    return;
  }
  std::vector<std::int32_t> out;
  out.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                 std::back_inserter(out));
  into = std::move(out);
}

/// Size of the union of two ascending id vectors, without materializing it.
std::size_t union_size(const std::vector<std::int32_t>& a,
                       const std::vector<std::int32_t>& b) {
  std::size_t n = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++i;
      ++j;
    }
    ++n;
  }
  return n + static_cast<std::size_t>(a.end() - i) +
         static_cast<std::size_t>(b.end() - j);
}

/// K-way merge of per-chunk sorted sequences: `visit(chunk, j)` sees every
/// entry in (key, chunk, j) order, where `size(chunk)` is a sequence's
/// length and `key(chunk, j)` its j-th key. Ties pop in chunk-index order,
/// so each key's entries arrive left to right across chunks — the order a
/// chunk-by-chunk fold would feed them in, with every entry visited once.
/// Sequences overlap mostly near their edges, so the head just popped
/// keeps draining while it stays ahead of the heap, and most entries cost
/// one comparison instead of a heap round-trip.
template <typename SizeFn, typename KeyFn, typename Visit>
void kway_merge(std::size_t chunks, SizeFn size, KeyFn key, Visit visit) {
  using Key = std::decay_t<decltype(key(std::size_t{0}, std::size_t{0}))>;
  struct Head {
    Key k;
    std::size_t chunk;
    std::size_t j;
  };
  // Heap comparator: true when `a` pops after `b`.
  auto later = [](const Head& a, const Head& b) {
    if (b.k < a.k) return true;
    if (a.k < b.k) return false;
    return a.chunk > b.chunk;
  };
  std::vector<Head> heap;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (size(c) > 0) heap.push_back({key(c, 0), c, 0});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head h = heap.back();
    heap.pop_back();
    const std::size_t n = size(h.chunk);
    for (;;) {
      visit(h.chunk, h.j);
      if (++h.j == n) break;
      h.k = key(h.chunk, h.j);
      if (!heap.empty() && later(h, heap.front())) {
        heap.push_back(h);
        std::push_heap(heap.begin(), heap.end(), later);
        break;
      }
    }
  }
}

/// Merge every chunk's FileAgg vector into one global sorted vector.
std::vector<FileAgg> merge_files(std::vector<ChunkState>& parts) {
  std::vector<FileAgg> out;
  std::size_t widest = 0;
  for (const ChunkState& c : parts) widest = std::max(widest, c.files.size());
  out.reserve(widest);
  kway_merge(
      parts.size(), [&](std::size_t c) { return parts[c].files.size(); },
      [&](std::size_t c, std::size_t j) { return parts[c].files[j].sf; },
      [&](std::size_t c, std::size_t j) {
        FileAgg& fa = parts[c].files[j];
        if (out.empty() || out.back().sf < fa.sf) {
          out.push_back(std::move(fa));
          return;
        }
        FileAgg& g = out.back();
        FileStats& gs = g.stats;
        const FileStats& cs = fa.stats;
        gs.first_access = std::min(gs.first_access, cs.first_access);
        gs.last_access = std::max(gs.last_access, cs.last_access);
        gs.ops.merge(cs.ops);
        merge_app_ids(gs.producer_apps, cs.producer_apps);
        merge_app_ids(gs.consumer_apps, cs.consumer_apps);
        // first_row: the first chunk touching the file wins — keep global's.
        union_ids(g.readers, fa.readers);
        union_ids(g.writers, fa.writers);
      });
  return out;
}

using StreamKey = std::pair<ScopedFile, std::int32_t>;

/// Settle every stream's deferred head ops across chunks: the first chunk
/// to touch a stream counts its head op as sequential, each later chunk
/// counts its head if it continues where the previous chunk's tail left
/// off. Consumes each stream's chunk entries in chunk order; nothing else
/// reads the stream state, so no global table is kept.
std::uint64_t settle_streams(std::vector<ChunkState>& parts) {
  std::uint64_t seq_ops = 0;
  bool have_prev = false;
  StreamKey prev_key{};
  fs::Bytes prev_end = 0;
  kway_merge(
      parts.size(), [&](std::size_t c) { return parts[c].streams.size(); },
      [&](std::size_t c, std::size_t j) {
        const StreamEntry& e = parts[c].streams[j];
        return StreamKey{e.sf, e.rank};
      },
      [&](std::size_t c, std::size_t j) {
        const StreamEntry& e = parts[c].streams[j];
        const StreamKey k{e.sf, e.rank};
        if (!have_prev || prev_key < k) {
          ++seq_ops;  // stream's first touch across all chunks
        } else if (prev_end == e.state.first_offset) {
          ++seq_ops;
        }
        have_prev = true;
        prev_key = k;
        prev_end = e.state.last_end;
      });
  return seq_ops;
}

/// Visit every run's rows in (tstart, row) order — what a stable sort of
/// the whole trace by tstart would give — without sorting: a k-way merge of
/// the runs' start orders. Ties go to the lower chunk, and within a chunk
/// by_start is stable.
template <typename Visit>
void for_each_by_start(const std::vector<IoRun>& runs, Visit visit) {
  kway_merge(
      runs.size(), [&](std::size_t r) { return runs[r].rows(); },
      [&](std::size_t r, std::size_t j) {
        return runs[r].tstart[runs[r].start_order(j)];
      },
      [&](std::size_t r, std::size_t j) {
        visit(runs[r], runs[r].start_order(j));
      });
}

/// Running union length of [t0, t1] intervals fed in start order — the
/// sweep union_seconds() runs after its sort. The covered length is an
/// integer, and ties in t0 may arrive in any order without changing it
/// (t1 >= t0), so a (tstart, row) feed matches a (tstart, tend) sort.
struct Coverage {
  bool open = false;
  sim::Time lo = 0;
  sim::Time hi = 0;
  sim::Time covered = 0;

  void add(sim::Time t0, sim::Time t1) {
    if (!open) {
      open = true;
      lo = t0;
      hi = t1;
    } else if (t0 > hi) {
      covered += hi - lo;
      lo = t0;
      hi = t1;
    } else {
      hi = std::max(hi, t1);
    }
  }
  double seconds() const {
    return open ? sim::to_seconds(covered + (hi - lo)) : 0.0;
  }
};

/// One app's phase extraction: a sequential sweep over its I/O rows in
/// (tstart, row) order, closing a phase at every gap wider than `gap`.
class PhaseSweep {
 public:
  PhaseSweep(std::uint16_t app, sim::Time gap) : app_(app), gap_(gap) {}

  std::uint16_t app() const noexcept { return app_; }

  void add(const IoRun& run, std::size_t k) {
    const sim::Time t0 = run.tstart[k];
    const sim::Time t1 = run.tend[k];
    const trace::Op op = run.op[k];
    const std::uint32_t cnt = run.count[k];
    const fs::Bytes sz = run.size[k];
    if (!open_ || t0 > phase_end_ + gap_) {
      flush();
      cur_ = Phase{};
      cur_.app = app_;
      cur_.t0 = t0;
      cur_.t1 = t1;
      open_ = true;
      phase_end_ = t1;
    }
    cur_.t1 = std::max(cur_.t1, t1);
    phase_end_ = std::max(phase_end_, t1);
    add_op(cur_.ops, op, cnt, sz * static_cast<fs::Bytes>(cnt),
           sim::to_seconds(t1 - t0));
    if (trace::is_data(op)) {
      size_counts_[sz] += cnt;
    }
    ranks_.insert(run.rank[k]);
  }

  /// Close the open phase (if any) and hand back every phase, in order.
  std::vector<Phase> finish() {
    flush();
    return std::move(out_);
  }

 private:
  void flush() {
    if (!open_) return;
    // The size-count map only feeds the dominant-size pick, which scans
    // sizes ascending — sorting the surviving keys here reproduces an
    // ordered map's iteration exactly, without its per-row tree walks.
    fs::Bytes dom = 0;
    std::uint64_t dom_n = 0;
    auto sizes = size_counts_.items();
    std::sort(sizes.begin(), sizes.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [sz, n] : sizes) {
      if (n > dom_n && sz > 0) {
        dom_n = n;
        dom = sz;
      }
    }
    cur_.dominant_size = dom;
    cur_.ops_per_rank =
        ranks_.empty() ? 0.0
                       : static_cast<double>(cur_.ops.total_ops()) /
                             static_cast<double>(ranks_.size());
    out_.push_back(cur_);
    size_counts_.clear();
    ranks_.clear();
    open_ = false;
  }

  std::uint16_t app_;
  sim::Time gap_;
  std::vector<Phase> out_;
  Phase cur_;
  // Dense per-phase state, cleared (capacity kept) at each flush.
  dense::FlatMap64<std::uint64_t> size_counts_;
  dense::IdSet ranks_;
  bool open_ = false;
  sim::Time phase_end_ = 0;
};

}  // namespace

void OpsBreakdown::merge(const OpsBreakdown& o) noexcept {
  read_ops += o.read_ops;
  write_ops += o.write_ops;
  meta_ops += o.meta_ops;
  read_bytes += o.read_bytes;
  write_bytes += o.write_bytes;
  data_sec += o.data_sec;
  meta_sec += o.meta_sec;
}

std::string Phase::frequency_label() const {
  const std::string gran = util::format_bytes(dominant_size);
  if (ops_per_rank <= 1.5) return "1 op";
  if (ops_per_rank < 20.0) {
    return std::to_string(static_cast<int>(ops_per_rank + 0.5)) + " ops/rank";
  }
  // Long phases with ops spread through them are iterative input pipelines;
  // short dense phases are bulk transfers.
  if (runtime_sec() > 60.0) return "Iterative (" + gran + ")";
  return "Bulk (" + gran + ")";
}

const AppStats* WorkloadProfile::app_by_name(const std::string& name) const {
  for (const auto& a : apps) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const AppStats* WorkloadProfile::app_by_id(std::uint16_t app) const {
  for (const auto& a : apps) {
    if (a.app == app) return &a;
  }
  return nullptr;
}

const std::string& WorkloadProfile::app_name(std::uint16_t app) const {
  static const std::string kUnknown = "?";
  const AppStats* a = app_by_id(app);
  return a != nullptr ? a->name : kUnknown;
}

const Phase* WorkloadProfile::first_phase(std::uint16_t app) const {
  const Phase* best = nullptr;
  for (const auto& ph : phases) {
    if (ph.app == app && (best == nullptr || ph.t0 < best->t0)) best = &ph;
  }
  return best;
}

double Analyzer::union_seconds(
    std::vector<std::pair<sim::Time, sim::Time>> iv) {
  if (!std::is_sorted(iv.begin(), iv.end())) std::sort(iv.begin(), iv.end());
  Coverage c;
  for (const auto& [t0, t1] : iv) c.add(t0, t1);
  return c.seconds();
}

TraceInput tracer_input(const trace::Tracer& tracer, const TraceStore* store) {
  TraceInput input;
  if (store != nullptr) {
    input.store = store;
  } else {
    input.records = tracer.records();
  }
  for (std::size_t a = 0; a < tracer.num_apps(); ++a) {
    input.app_names.push_back(tracer.app_name(static_cast<std::uint16_t>(a)));
  }
  // Per-row resolution (serial, post-merge): fetch the record from the
  // store when rows were spilled out of the tracer's buffer.
  auto record_at = [&tracer, store](std::size_t i) {
    return store != nullptr ? store->row(i) : tracer.records()[i];
  };
  input.path_at = [&tracer, record_at](std::size_t i) {
    const trace::Record r = record_at(i);
    return tracer.path_of(r.file, r.node);
  };
  input.size_at = [&tracer, record_at](std::size_t i) -> fs::Bytes {
    const trace::Record r = record_at(i);
    if (!r.file.valid()) return 0;
    auto& fsys = tracer.filesystem(r.file.fs);
    auto& ns = fsys.ns(fs::ProcSite{fsys.shared() ? 0 : r.node, 0});
    if (r.file.file < ns.inodes().size()) {
      return ns.inodes()[r.file.file].size;
    }
    return 0;
  };
  input.fs_shared = [&tracer](std::int16_t idx) {
    return tracer.filesystem(idx).shared();
  };
  return input;
}

WorkloadProfile Analyzer::analyze(const trace::Tracer& tracer) const {
  return analyze(tracer_input(tracer));
}

WorkloadProfile Analyzer::analyze(const trace::LogData& log) const {
  TraceInput input;
  input.records = log.records;
  input.app_names = log.apps;
  input.path_at = [&log](std::size_t i) { return log.paths[i]; };
  input.size_at = [&log](std::size_t i) -> fs::Bytes {
    return i < log.file_sizes.size() ? log.file_sizes[i] : 0;
  };
  input.fs_shared = [&log](std::int16_t idx) {
    const auto u = static_cast<std::size_t>(idx);
    return u >= log.fs_shared.size() || log.fs_shared[u];
  };
  return analyze(input);
}

WorkloadProfile Analyzer::analyze(const TraceInput& input) const {
  if (input.store != nullptr) return analyze_store(*input.store, input);
  const int jobs = util::resolve_jobs(opts_.jobs);
  ColumnStore cs = ColumnStore::from_records(input.records, jobs);
  cs.set_chunk_rows(opts_.chunk_rows > 0 ? opts_.chunk_rows : 65536);
  return analyze_store(cs, input);
}

WorkloadProfile Analyzer::analyze_store(const TraceStore& store,
                                        const TraceInput& input) const {
  WorkloadProfile p;
  const int jobs = util::resolve_jobs(opts_.jobs);
  const std::size_t grain = opts_.chunk_rows > 0 ? opts_.chunk_rows : 65536;
  if (store.size() == 0) return p;
  WASP_OBS_SPAN("analyze");
  const AnalyzerMetrics& om = analyzer_metrics();
  obs::TimerGuard total_timer(om.total_ns);
  om.rows.add(store.size());
  util::ThreadPool pool(jobs - 1);

  // Filesystem-shared lookup table, resolved up front on this thread: the
  // callback may touch lazily-built filesystem namespaces, which must not
  // happen concurrently from chunk workers. Backends that track the max fs
  // index during append answer in O(1); for a spill store that avoids a
  // full serial pass over every chunk file.
  const std::int16_t max_fs = store.max_fs();
  std::vector<char> fs_is_shared(static_cast<std::size_t>(max_fs + 1), 1);
  for (std::int16_t f = 0; f <= max_fs; ++f) {
    fs_is_shared[static_cast<std::size_t>(f)] =
        input.fs_shared(f) ? 1 : 0;
  }

  // --- Map: scan chunks in parallel -------------------------------------
  // The batched columnar kernels (scan_chunk) are the default; the scalar
  // row loop (scan_chunk_reference) is the equivalence oracle tests pit
  // against them — both produce byte-identical ChunkStates.
  std::vector<ChunkState> parts;
  {
    WASP_OBS_SPAN("analyze.scan");
    obs::TimerGuard t(om.scan_ns);
    const bool ref = opts_.reference_scan;
    parts = pool.map_chunks(
        store.size(), grain, [&](const util::ChunkRange& range) {
          return ref ? scan_chunk_reference(store, range, input.app_names,
                                            fs_is_shared)
                     : scan_chunk(store, range, input.app_names, fs_is_shared);
        });
  }

  // --- Reduce: merge partials in chunk-index order ----------------------
  // Large keyed state folds with linear two-pointer merges over the
  // chunks' key-sorted vectors (see the helpers above); small keyed state
  // merges into ordered containers the classic way.
  sim::Time job_t0 = parts.front().job_t0;
  sim::Time job_t1 = parts.front().job_t1;
  std::map<std::uint16_t, AppStats> apps;
  std::vector<FileAgg> files;  // sorted by ScopedFile
  std::vector<std::pair<std::uint64_t, double>> rank_io_sec;  // sorted
  std::set<std::pair<std::uint16_t, std::int32_t>> procs;
  std::set<std::int32_t> nodes;
  std::map<std::pair<std::uint16_t, trace::Iface>, std::uint64_t> iface_ops;
  std::uint64_t seq_ops = 0;
  std::uint64_t pattern_ops = 0;
  std::vector<std::pair<fs::Bytes, std::uint64_t>> size_counts_global;
  // Each chunk's I/O rows, kept in chunk-index order for the phase, union
  // and timeline passes — they never go back to the store.
  std::vector<IoRun> runs;
  runs.reserve(parts.size());

  {
  WASP_OBS_SPAN("analyze.merge");
  obs::TimerGuard t(om.merge_ns);
  for (ChunkState& c : parts) {
    job_t0 = std::min(job_t0, c.job_t0);
    job_t1 = std::max(job_t1, c.job_t1);
    p.totals.merge(c.totals);
    for (auto& [id, capp] : c.apps) {
      auto [it, fresh] = apps.try_emplace(id);
      if (fresh) {
        it->second = std::move(capp);
      } else {
        AppStats& g = it->second;
        g.first_event = std::min(g.first_event, capp.first_event);
        g.last_event = std::max(g.last_event, capp.last_event);
        g.cpu_sec += capp.cpu_sec;
        g.gpu_sec += capp.gpu_sec;
        g.ops.merge(capp.ops);
      }
    }
    merge_sorted(rank_io_sec, std::move(c.rank_io_sec),
                 [](double& g, double v) { g += v; });
    procs.insert(c.procs.begin(), c.procs.end());
    nodes.insert(c.nodes.begin(), c.nodes.end());
    for (const auto& [k, n] : c.iface_ops) iface_ops[k] += n;
    seq_ops += c.seq_ops;
    pattern_ops += c.pattern_ops;
    merge_sorted(size_counts_global, std::move(c.size_counts),
                 [](std::uint64_t& g, std::uint64_t n) { g += n; });
    p.read_hist.merge(c.read_hist);
    p.write_hist.merge(c.write_hist);
    runs.push_back(std::move(c.io));
  }
  // The two ScopedFile-keyed reductions go through k-way heap merges over
  // the chunks' sorted vectors (entries per key still combine in
  // chunk-index order — see kway_merge).
  files = merge_files(parts);
  seq_ops += settle_streams(parts);
  parts.clear();
  }
  p.job_runtime_sec = sim::to_seconds(job_t1 - job_t0);

  {
  WASP_OBS_SPAN("analyze.resolve");
  obs::TimerGuard t(om.resolve_ns);
  // Resolve per-file paths and sizes from each file's first record — these
  // callbacks may touch lazily-built filesystem state, so they run here,
  // serially, not in the chunk workers. Files are visited grouped by the
  // storage chunk holding their first row, chunks ascending: that walks a
  // spill store front to back, loading each chunk at most once, and keeps
  // ScopedFile order (the callbacks' own table order) inside each chunk.
  {
    const std::size_t rows_per_chunk = store.chunk_rows();
    std::vector<std::size_t> next(store.num_chunks() + 1, 0);
    for (const FileAgg& fa : files) ++next[fa.first_row / rows_per_chunk + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    std::vector<FileAgg*> by_chunk(files.size());
    for (FileAgg& fa : files) {
      by_chunk[next[fa.first_row / rows_per_chunk]++] = &fa;
    }
    for (FileAgg* fa : by_chunk) {
      fa->stats.path = input.path_at(fa->first_row);
      fa->stats.size = std::max(fa->stats.size, input.size_at(fa->first_row));
    }
  }

  // Resolve per-file sharing. The rank vectors are ascending, so the
  // accessor count is a two-pointer union size — no set materialization.
  for (FileAgg& fa : files) {
    FileStats& fstat = fa.stats;
    fstat.reader_ranks = static_cast<std::uint32_t>(fa.readers.size());
    fstat.writer_ranks = static_cast<std::uint32_t>(fa.writers.size());
    fstat.accessor_ranks =
        static_cast<std::uint32_t>(union_size(fa.readers, fa.writers));
    if (fstat.shared()) {
      ++p.shared_files;
    } else {
      ++p.fpp_files;
    }
  }

  // Per-app file sharing counts + dominant interface: each task writes only
  // its own app and reads the (now frozen) file map.
  {
    std::vector<AppStats*> app_ptrs;
    app_ptrs.reserve(apps.size());
    for (auto& [id, app] : apps) {
      (void)id;
      app_ptrs.push_back(&app);
    }
    pool.run(app_ptrs.size(), [&](std::size_t a) {
      AppStats& app = *app_ptrs[a];
      const std::uint16_t id = app.app;
      for (const FileAgg& fa : files) {
        const FileStats& fstat = fa.stats;
        const bool touches =
            std::find(fstat.producer_apps.begin(), fstat.producer_apps.end(),
                      id) != fstat.producer_apps.end() ||
            std::find(fstat.consumer_apps.begin(), fstat.consumer_apps.end(),
                      id) != fstat.consumer_apps.end();
        if (!touches) continue;
        if (fstat.shared()) {
          ++app.shared_files;
        } else {
          ++app.fpp_files;
        }
      }
      std::uint64_t best = 0;
      for (const auto& [key, n] : iface_ops) {
        if (key.first == id && n > best) {
          best = n;
          app.interface = key.second;
        }
      }
    });
  }

  // Count procs per app.
  for (const auto& [aid, rank] : procs) {
    (void)rank;
    ++apps[aid].num_procs;
  }
  p.num_procs = static_cast<int>(procs.size());
  p.num_nodes = static_cast<int>(nodes.size());
  }

  // I/O-time fractions: wall-clock coverage (Table I) and per-rank mean.
  // One sweep over the I/O rows in start order feeds the global union and
  // one union per histogram bucket.
  {
    WASP_OBS_SPAN("analyze.unions");
    obs::TimerGuard t(om.unions_ns);
    const std::size_t nb = p.read_hist.num_buckets();
    Coverage all;
    std::vector<Coverage> read_cov(nb);
    std::vector<Coverage> write_cov(nb);
    for_each_by_start(runs, [&](const IoRun& run, std::size_t k) {
      if (is_compute_span(run.iface[k])) return;
      const sim::Time t0 = run.tstart[k];
      const sim::Time t1 = run.tend[k];
      all.add(t0, t1);
      const trace::Op op = run.op[k];
      if (op == trace::Op::kRead) {
        read_cov[p.read_hist.bucket_index(run.size[k])].add(t0, t1);
      } else if (op == trace::Op::kWrite) {
        write_cov[p.write_hist.bucket_index(run.size[k])].add(t0, t1);
      }
    });
    if (p.job_runtime_sec > 0) {
      p.io_time_fraction = all.seconds() / p.job_runtime_sec;
      double sum = 0;
      for (const auto& [k, v] : rank_io_sec) {
        (void)k;
        sum += v;
      }
      if (!procs.empty()) {
        p.io_busy_fraction =
            sum / static_cast<double>(procs.size()) / p.job_runtime_sec;
      }
    }
    for (std::size_t b = 0; b < nb; ++b) {
      p.read_hist.add_seconds(b, read_cov[b].seconds());
      p.write_hist.add_seconds(b, write_cov[b].seconds());
    }
  }

  // --- Phases (per app, over I/O records in start order) ----------------
  // The same start-order walk, dispatched to one sweep per app; each app
  // sees its own rows in (tstart, row) order. Phases concatenate in app-id
  // order, then sort by start.
  {
    WASP_OBS_SPAN("analyze.phases");
    obs::TimerGuard t(om.phases_ns);
    std::vector<PhaseSweep> sweeps;
    std::vector<std::int32_t> sweep_of;  // app id -> index into sweeps
    for_each_by_start(runs, [&](const IoRun& run, std::size_t k) {
      const std::uint16_t aid = run.app[k];
      if (aid >= sweep_of.size()) sweep_of.resize(aid + 1u, -1);
      if (sweep_of[aid] < 0) {
        sweep_of[aid] = static_cast<std::int32_t>(sweeps.size());
        sweeps.emplace_back(aid, opts_.phase_gap);
      }
      sweeps[static_cast<std::size_t>(sweep_of[aid])].add(run, k);
    });
    std::sort(sweeps.begin(), sweeps.end(),
              [](const PhaseSweep& a, const PhaseSweep& b) {
                return a.app() < b.app();
              });
    for (PhaseSweep& sw : sweeps) {
      const std::vector<Phase> phs = sw.finish();
      p.phases.insert(p.phases.end(), phs.begin(), phs.end());
    }
    std::sort(p.phases.begin(), p.phases.end(),
              [](const Phase& a, const Phase& b) { return a.t0 < b.t0; });
  }

  // --- App dependency edges ---------------------------------------------
  {
    std::map<std::pair<std::uint16_t, std::uint16_t>, AppEdge> edges;
    for (const FileAgg& fa : files) {
      const FileStats& fstat = fa.stats;
      for (auto prod : fstat.producer_apps) {
        for (auto cons : fstat.consumer_apps) {
          if (prod == cons) continue;
          auto& e = edges[{prod, cons}];
          e.producer = prod;
          e.consumer = cons;
          e.bytes += fstat.size;
          ++e.files;
        }
      }
    }
    for (auto& [k, e] : edges) {
      (void)k;
      p.app_edges.push_back(e);
    }
  }

  // --- Timeline ----------------------------------------------------------
  // Needs the job extent, so it runs after the merge: per-chunk bin vectors
  // from each chunk's run, walked in row order, added together in
  // chunk-index order.
  {
    WASP_OBS_SPAN("analyze.timeline");
    obs::TimerGuard t(om.timeline_ns);
    sim::Time bin = opts_.timeline_bin;
    const sim::Time span = job_t1 - job_t0;
    if (span / bin + 1 > opts_.max_timeline_bins) {
      bin = span / opts_.max_timeline_bins + 1;
    }
    const auto nbins = static_cast<std::size_t>(span / bin) + 1;
    p.timeline.bin_width = bin;
    p.timeline.read_bps.assign(nbins, 0.0);
    p.timeline.write_bps.assign(nbins, 0.0);
    using Bins = std::pair<std::vector<double>, std::vector<double>>;
    std::vector<Bins> chunk_bins(runs.size());
    pool.run(runs.size(), [&](std::size_t c) {
      const IoRun& run = runs[c];
      Bins& local = chunk_bins[c];
      local.first.assign(nbins, 0.0);
      local.second.assign(nbins, 0.0);
      for (std::size_t k = 0; k < run.rows(); ++k) {
        const trace::Op op = run.op[k];
        if (!trace::is_data(op)) continue;
        const double bytes = static_cast<double>(
            run.size[k] * static_cast<fs::Bytes>(run.count[k]));
        if (bytes <= 0) continue;
        const sim::Time t0 = run.tstart[k] - job_t0;
        const sim::Time t1 = std::max(run.tend[k] - job_t0, t0 + 1);
        const auto b0 = static_cast<std::size_t>(t0 / bin);
        const auto b1 =
            std::min(static_cast<std::size_t>((t1 - 1) / bin), nbins - 1);
        const double per_bin = bytes / static_cast<double>(b1 - b0 + 1);
        auto& series = op == trace::Op::kRead ? local.first : local.second;
        for (std::size_t b = b0; b <= b1; ++b) series[b] += per_bin;
      }
    });
    for (const Bins& local : chunk_bins) {
      for (std::size_t b = 0; b < nbins; ++b) {
        p.timeline.read_bps[b] += local.first[b];
        p.timeline.write_bps[b] += local.second[b];
      }
    }
    const double bin_sec = sim::to_seconds(bin);
    for (auto& v : p.timeline.read_bps) v /= bin_sec;
    for (auto& v : p.timeline.write_bps) v /= bin_sec;
  }

  // Sequentiality + global size frequencies.
  p.sequential_fraction =
      pattern_ops > 0
          ? static_cast<double>(seq_ops) / static_cast<double>(pattern_ops)
          : 1.0;
  p.size_frequencies = std::move(size_counts_global);
  std::sort(p.size_frequencies.begin(), p.size_frequencies.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  // Materialize app/file vectors in stable order.
  p.apps.reserve(apps.size());
  for (auto& [id, app] : apps) {
    (void)id;
    p.apps.push_back(std::move(app));
  }
  p.files.reserve(files.size());
  for (FileAgg& fa : files) {
    p.files.push_back(std::move(fa.stats));
  }
  return p;
}

}  // namespace wasp::analysis
