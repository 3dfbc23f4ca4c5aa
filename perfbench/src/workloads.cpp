#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "advisor/rules.hpp"
#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "cluster/spec.hpp"
#include "core/characterizer.hpp"
#include "obs/obs.hpp"
#include "pattern/replayer.hpp"
#include "runtime/scenario_runner.hpp"
#include "runtime/simulation.hpp"
#include "trace/log_io.hpp"
#include "workloads/cosmoflow.hpp"
#include "workloads/montage_mpi.hpp"
#include "workloads/montage_pegasus.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace wasp;

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void put(Metrics& m, const std::string& name, double value,
         const char* unit) {
  m[name] = Metric{value, unit};
}

/// Fold the benchmark seed into every lane-group and DAG-stage rng seed.
/// Seed 0 leaves the pattern untouched, so it replays the committed traces.
void fold_seed(pattern::JobPattern& pat, std::uint64_t seed) {
  if (seed == 0) return;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;  // SplitMix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  for (auto& g : pat.groups) g.rng_seed ^= z;
  for (auto& s : pat.dag.stages) s.rng_seed ^= z;
}

/// The registry workload with its launch replaced by compile -> fold the
/// seed -> pattern::replay, timed as the workloads layer.
workloads::Workload seeded(workloads::Workload w, std::uint64_t seed,
                           SpanLog& log) {
  w.launch = [compile = w.compile, seed, &log](
                 runtime::Simulation& sim, const advisor::RunConfig& cfg) {
    Timed t(log, "workloads.launch");
    pattern::JobPattern pat = compile(sim, cfg);
    fold_seed(pat, seed);
    pattern::replay(sim, pat);
  };
  return w;
}

/// Registry deltas over one iteration (the counters are process-wide; the
/// closed loop runs one iteration at a time, so a delta is exact).
class RegistryWindow {
 public:
  RegistryWindow() : before_(obs::Registry::instance().snapshot()) {}
  obs::Snapshot delta() const {
    return obs::Registry::instance().snapshot().delta(before_);
  }

 private:
  obs::Snapshot before_;
};

/// Per-layer values read from the registry: thread pool and analyzer
/// passes, plus (when the iteration ran the engine) frame pool, queue depth
/// and replayed op counts.
void registry_layers(const obs::Snapshot& d, bool ran_engine, Metrics& m) {
  put(m, "runtime.pool_queue_wait_s",
      static_cast<double>(d.value("pool.queue_wait_ns")) * 1e-9, "s");
  put(m, "runtime.pool_task_run_s",
      static_cast<double>(d.value("pool.task_run_ns")) * 1e-9, "s");
  double passes = 0.0;
  for (const char* pass :
       {"scan", "merge", "resolve", "unions", "phases", "timeline"}) {
    const double s =
        static_cast<double>(
            d.value(std::string("analyze.") + pass + "_ns")) *
        1e-9;
    passes += s;
    put(m, std::string("analysis.") + pass + "_s", s, "s");
  }
  put(m, "analysis.pass_sum_s", passes, "s");
  if (!ran_engine) return;

  const double hits = static_cast<double>(d.value("engine.frame_pool.hits"));
  const double misses =
      static_cast<double>(d.value("engine.frame_pool.misses"));
  put(m, "sim.frame_pool_hit_ratio", ratio(hits, hits + misses), "ratio");
  // A gauge is not windowed: this is the deepest queue of the process so
  // far, which the warm-up iterations already reached.
  put(m, "sim.queue_depth_max",
      static_cast<double>(d.value("engine.queue_depth")), "count");
  constexpr std::string_view kPrefix = "replay.op_ns.";
  double total = 0.0;
  for (const auto& e : d.entries) {
    if (e.kind != obs::Snapshot::Kind::kHistogram ||
        e.name.compare(0, kPrefix.size(), kPrefix) != 0) {
      continue;
    }
    total += static_cast<double>(e.count);
    put(m, "pattern.ops." + e.name.substr(kPrefix.size()),
        static_cast<double>(e.count), "count");
  }
  put(m, "pattern.ops_total", total, "count");
  put(m, "mpi.collectives",
      static_cast<double>(d.hist_count("replay.op_ns.barrier") +
                          d.hist_count("replay.op_ns.allreduce")),
      "count");
}

/// Analyzer-side counts: I/O calls by class, and data ops on node-local
/// files (a node-local file has node_scope >= 0).
void profile_layers(const std::vector<const analysis::WorkloadProfile*>& ps,
                    Metrics& m) {
  double reads = 0, writes = 0, metas = 0, local = 0;
  for (const auto* p : ps) {
    reads += static_cast<double>(p->totals.read_ops);
    writes += static_cast<double>(p->totals.write_ops);
    metas += static_cast<double>(p->totals.meta_ops);
    for (const auto& f : p->files) {
      if (f.node_scope >= 0) local += static_cast<double>(f.ops.data_ops());
    }
  }
  put(m, "io.read_ops", reads, "count");
  put(m, "io.write_ops", writes, "count");
  put(m, "io.meta_ops", metas, "count");
  put(m, "fs.node_local.data_ops", local, "count");
}

void pfs_layers(const std::vector<fs::FsCounters>& cs, Metrics& m) {
  fs::FsCounters t;
  for (const auto& c : cs) {
    t.meta_ops += c.meta_ops;
    t.data_ops += c.data_ops;
    t.bytes_read += c.bytes_read;
    t.bytes_written += c.bytes_written;
    t.cache_hits += c.cache_hits;
  }
  put(m, "fs.pfs.meta_ops", static_cast<double>(t.meta_ops), "count");
  put(m, "fs.pfs.data_ops", static_cast<double>(t.data_ops), "count");
  put(m, "fs.pfs.bytes_read", static_cast<double>(t.bytes_read), "B");
  put(m, "fs.pfs.bytes_written", static_cast<double>(t.bytes_written), "B");
  put(m, "fs.pfs.cache_hit_ratio",
      ratio(static_cast<double>(t.cache_hits),
            static_cast<double>(t.data_ops)),
      "ratio");
}

/// Analyze-call split: analyze_s is the benchmark's span around the call,
/// the pass times come from the registry, the rest is unattributed.
void analysis_layers(double analyze_s, double rows, Metrics& m) {
  put(m, "analysis.rows_per_s", ratio(rows, analyze_s), "1/s");
  put(m, "analysis.unattributed_s", analyze_s - m["analysis.pass_sum_s"].value,
      "s");
}

void stage_untraced(runtime::Simulation& sim, const workloads::Workload& w) {
  sim.tracer().set_enabled(false);
  sim.engine().spawn(w.setup(sim));
  sim.engine().run();
  sim.tracer().set_enabled(true);
  sim.pfs().drop_client_caches();
}

// ---------------------------------------------------------------------------

/// One CosmoFlow job at paper scale per iteration, live-tracer analysis.
class CosmoflowJob final : public Workload {
 public:
  CosmoflowJob(const Config& cfg, SpanLog& log)
      : log_(log),
        spec_(cluster::lassen(32)),
        wl_(seeded(workloads::make_cosmoflow(
                       workloads::CosmoflowParams::paper()),
                   cfg.seed, log)) {
    opts_.jobs = cfg.thread_cap;
  }

  std::string threads() const override {
    return "analyzer_jobs=" + std::to_string(opts_.jobs);
  }
  Metrics prepare() override { return {}; }

  IterResult iterate(bool traced) override {
    IterResult r;
    const RegistryWindow reg;
    std::optional<runtime::Simulation> sim;
    {
      Timed t(log_, "runtime.sim_build");
      sim.emplace(spec_);
    }
    {
      Timed t(log_, "runtime.stage");
      stage_untraced(*sim, wl_);
    }
    wl_.launch(*sim, advisor::RunConfig{});
    const std::uint64_t staged = sim->engine().events_processed();
    {
      Timed t(log_, "sim.run");
      sim->engine().run();
      r.sim_s = t.stop();
    }
    if (!sim->engine().all_roots_done()) {
      throw std::runtime_error("cosmoflow job deadlocked");
    }
    const std::uint64_t events = sim->engine().events_processed();
    r.events = static_cast<double>(events - staged);
    r.rows = static_cast<double>(sim->tracer().total_records());
    analysis::WorkloadProfile profile;
    {
      Timed t(log_, "analysis.analyze");
      profile = analysis::Analyzer(opts_).analyze(sim->tracer());
      r.analyze_s = t.stop();
    }
    charz::WorkloadCharacterization ch;
    {
      Timed t(log_, "core.characterize");
      ch = charz::Characterizer().characterize(wl_.decl, spec_, profile);
    }
    std::vector<advisor::Recommendation> recs;
    {
      Timed t(log_, "advisor.evaluate");
      recs = advisor::RuleEngine().evaluate(ch);
    }
    if (traced) {
      Metrics& m = r.layers;
      registry_layers(reg.delta(), true, m);
      put(m, "sim.events", r.events, "count");
      put(m, "sim.ns_per_event", ratio(r.sim_s * 1e9, r.events), "ns");
      put(m, "trace.rows", r.rows, "count");
      put(m, "trace.rows_per_event", ratio(r.rows, r.events), "ratio");
      pfs_layers({sim->pfs().counters()}, m);
      profile_layers({&profile}, m);
      analysis_layers(r.analyze_s, r.rows, m);
      put(m, "advisor.recommendations", static_cast<double>(recs.size()),
          "count");
    }
    {
      Timed t(log_, "runtime.teardown");
      sim.reset();
    }
    Timed t(log_, "bench.check");
    r.outcome = {{"engine_events", exact(static_cast<double>(events))},
                 {"trace_rows", exact(r.rows)},
                 {"job_s", exact(profile.job_runtime_sec)},
                 {"charz_digest", digest(ch.to_yaml())}};
    return r;
  }

 private:
  SpanLog& log_;
  cluster::ClusterSpec spec_;
  workloads::Workload wl_;
  analysis::Analyzer::Options opts_;
};

// ---------------------------------------------------------------------------

/// The offline Vani path: each iteration streams a persisted CosmoFlow log
/// through a compressed spill store into the analyzer.
class TraceSpill final : public Workload {
 public:
  static constexpr std::size_t kChunkRows = 65536;
  static constexpr std::size_t kResidentChunks = 8;

  TraceSpill(const Config& cfg, SpanLog& log)
      : log_(log),
        spec_(cluster::lassen(32)),
        wl_(seeded(workloads::make_cosmoflow(
                       workloads::CosmoflowParams::paper()),
                   cfg.seed, log)),
        log_path_(cfg.work_dir + "/cosmoflow-seed" +
                  std::to_string(cfg.seed) + ".wtrc"),
        spill_dir_(cfg.work_dir + "/spill") {
    // The prefetch thread counts toward the cap.
    opts_.jobs = std::max(1, cfg.thread_cap - 1);
  }
  ~TraceSpill() override {
    std::error_code ec;
    std::filesystem::remove(log_path_, ec);
  }

  std::string threads() const override {
    return "analyzer_jobs=" + std::to_string(opts_.jobs) +
           " spill_prefetch_threads=1";
  }

  Metrics prepare() override {
    Metrics m;
    runtime::Simulation sim(spec_);
    stage_untraced(sim, wl_);
    wl_.launch(sim, advisor::RunConfig{});
    sim.engine().run();
    if (!sim.engine().all_roots_done()) {
      throw std::runtime_error("cosmoflow job deadlocked");
    }
    events_ = static_cast<double>(sim.engine().events_processed());
    {
      Timed t(log_, "trace.log_write");
      trace::write_log(log_path_, sim.tracer());
      put(m, "trace.log_write_s", t.stop(), "s");
    }
    log_bytes_ = static_cast<double>(std::filesystem::file_size(log_path_));
    return m;
  }

  IterResult iterate(bool traced) override {
    IterResult r;
    const RegistryWindow reg;
    std::optional<trace::LogReader> reader;
    std::optional<analysis::SpillColumnStore> store;
    double read_s = 0.0;
    double ingest_s = 0.0;
    {
      Timed t(log_, "trace.log_read");
      reader.emplace(log_path_);
      read_s += t.stop();
    }
    {
      Timed t(log_, "analysis.spill_ingest");
      analysis::SpillColumnStore::Options so;
      so.dir = spill_dir_;
      so.chunk_rows = kChunkRows;
      so.max_resident_chunks = kResidentChunks;
      store.emplace(so);
      ingest_s += t.stop();
    }
    std::vector<trace::Record> records;
    std::vector<std::uint32_t> path_idx;
    std::vector<std::uint64_t> file_sizes;
    for (;;) {
      records.clear();
      path_idx.clear();
      file_sizes.clear();
      std::size_t n = 0;
      {
        Timed t(log_, "trace.log_read");
        n = reader->next_chunk(kChunkRows, records, path_idx, file_sizes);
        read_s += t.stop();
      }
      if (n == 0) break;
      Timed t(log_, "analysis.spill_ingest");
      store->append(records, path_idx, file_sizes);
      ingest_s += t.stop();
    }
    {
      Timed t(log_, "analysis.spill_ingest");
      store->finalize();
      ingest_s += t.stop();
    }
    const trace::LogHeader& h = reader->header();
    const analysis::SpillColumnStore& s = *store;
    analysis::TraceInput input;
    input.store = &s;
    input.app_names = h.apps;
    input.path_at = [&h, &s](std::size_t i) {
      return h.path_table.empty() ? std::string()
                                  : h.path_table[s.path_idx_at(i)];
    };
    input.size_at = [&s](std::size_t i) { return s.file_size_at(i); };
    input.fs_shared = [&h](std::int16_t idx) {
      const auto u = static_cast<std::size_t>(idx);
      return u >= h.fs_shared.size() || h.fs_shared[u];
    };
    analysis::WorkloadProfile profile;
    double analyze_s = 0.0;
    {
      Timed t(log_, "analysis.analyze");
      profile = analysis::Analyzer(opts_).analyze(input);
      analyze_s = t.stop();
    }
    charz::WorkloadCharacterization ch;
    {
      Timed t(log_, "core.characterize");
      ch = charz::Characterizer().characterize(wl_.decl, spec_, profile);
    }
    r.rows = static_cast<double>(s.size());
    r.analyze_s = read_s + ingest_s + analyze_s;
    if (traced) {
      Metrics& m = r.layers;
      registry_layers(reg.delta(), false, m);
      put(m, "trace.rows", r.rows, "count");
      put(m, "trace.log_read_mb_per_s", ratio(log_bytes_ * 1e-6, read_s),
          "MB/s");
      profile_layers({&profile}, m);
      analysis_layers(analyze_s, r.rows, m);
      const analysis::IoStats io = s.io_stats();
      put(m, "analysis.spill.bytes_written",
          static_cast<double>(io.bytes_written), "B");
      put(m, "analysis.spill.bytes_read", static_cast<double>(io.bytes_read),
          "B");
      put(m, "analysis.spill.compressed_ratio", io.compressed_ratio(),
          "ratio");
      put(m, "analysis.spill.chunk_loads",
          static_cast<double>(io.chunk_loads), "count");
      put(m, "analysis.spill.cache_hit_ratio", io.hit_rate(), "ratio");
      put(m, "analysis.spill.evictions", static_cast<double>(io.evictions),
          "count");
      put(m, "analysis.spill.peak_resident_chunks",
          static_cast<double>(s.peak_resident_chunks()), "count");
      // Raw counts beside the ratio: hits can exceed issued loads, and the
      // ratio is reported as it is rather than clamped to 1.
      put(m, "analysis.spill.prefetch_issued",
          static_cast<double>(io.prefetch_issued), "count");
      put(m, "analysis.spill.prefetch_hits",
          static_cast<double>(io.prefetch_hits), "count");
      put(m, "analysis.spill.prefetch_useful_ratio",
          ratio(static_cast<double>(io.prefetch_hits),
                static_cast<double>(io.prefetch_issued)),
          "ratio");
    }
    {
      Timed t(log_, "runtime.teardown");
      store.reset();
      reader.reset();
    }
    Timed t(log_, "bench.check");
    r.outcome = {{"engine_events", exact(events_)},
                 {"trace_rows", exact(r.rows)},
                 {"job_s", exact(profile.job_runtime_sec)},
                 {"charz_digest", digest(ch.to_yaml())}};
    return r;
  }

 private:
  SpanLog& log_;
  cluster::ClusterSpec spec_;
  workloads::Workload wl_;
  analysis::Analyzer::Options opts_;
  std::string log_path_;
  std::string spill_dir_;
  double events_ = 0.0;
  double log_bytes_ = 0.0;
};

// ---------------------------------------------------------------------------

/// The Montage case study (Fig. 8) as an advise-and-verify sweep: baseline
/// scenarios, RuleEngine::configure, optimized scenarios, all through
/// workloads::run_many.
class MontageWhatif final : public Workload {
 public:
  MontageWhatif(const Config& cfg, SpanLog& log)
      : log_(log), seed_(cfg.seed), runner_(cfg.thread_cap) {
    for (int nodes : {32, 64, 128, 256}) {
      // Strong scaling with fig8_montage_opt's parameters.
      workloads::MontageMpiParams p = workloads::MontageMpiParams::paper();
      p.nodes = nodes;
      p.projected_per_node = p.projected_per_node * 32 / nodes;
      p.mosaic_per_node = p.mosaic_per_node * 32 / nodes;
      p.png_per_node = p.png_per_node * 32 / nodes;
      cases_.push_back({"montage-mpi-" + std::to_string(nodes),
                        cluster::lassen(nodes),
                        [p] { return workloads::make_montage_mpi(p); }});
    }
    cases_.push_back({"montage-pegasus-32", cluster::lassen(32), [] {
                        return workloads::make_montage_pegasus(
                            workloads::MontagePegasusParams::paper());
                      }});
  }

  std::string threads() const override {
    return "runner_jobs=" + std::to_string(runner_.jobs()) +
           " analyzer_jobs=1";
  }
  Metrics prepare() override { return {}; }

  IterResult iterate(bool traced) override {
    IterResult r;
    // run_many hides the engine and analyzer calls, so the sweep's
    // end-to-end rates come from the registry's timing counters, which
    // stay on for this workload in both runs.
    obs::Registry::set_timing_enabled(true);
    obs::SpanTracer& spans = obs::SpanTracer::instance();
    if (traced) {
      spans.clear();
      spans.set_enabled(true);
    }
    const RegistryWindow reg;
    std::vector<workloads::RunOutput> base;
    std::vector<workloads::RunOutput> opt;
    double sweep_s = 0.0;
    {
      Timed t(log_, "runtime.run_many");
      base = workloads::run_many(scenarios({}), runner_);
      sweep_s += t.stop();
    }
    std::vector<advisor::RunConfig> cfgs;
    {
      Timed t(log_, "advisor.configure");
      for (const auto& b : base) {
        cfgs.push_back(advisor::RuleEngine::configure(b.recommendations));
      }
    }
    {
      Timed t(log_, "runtime.run_many");
      opt = workloads::run_many(scenarios(cfgs), runner_);
      sweep_s += t.stop();
    }
    spans.set_enabled(false);
    const obs::Snapshot d = reg.delta();
    r.events = static_cast<double>(d.value("engine.events"));
    r.sim_s = static_cast<double>(d.value("engine.run_ns")) * 1e-9;
    r.rows = static_cast<double>(d.value("analyze.rows"));
    r.analyze_s = static_cast<double>(d.value("analyze.ns")) * 1e-9;

    if (traced) {
      Metrics& m = r.layers;
      registry_layers(d, true, m);
      double scen_sum = 0.0;
      double scen_max = 0.0;
      for (const obs::SpanAgg& a : spans.aggregate()) {
        if (a.name.rfind("scenario:", 0) != 0) continue;
        const double s = static_cast<double>(a.total_ns) * 1e-9;
        scen_sum += s;
        scen_max = std::max(scen_max, s);
      }
      spans.clear();
      put(m, "runtime.scenario_s_sum", scen_sum, "s");
      put(m, "runtime.scenario_s_max", scen_max, "s");
      put(m, "runtime.parallel_efficiency",
          ratio(scen_sum, runner_.jobs() * sweep_s), "ratio");
      put(m, "sim.run_s", r.sim_s, "s");
      put(m, "sim.events", r.events, "count");
      put(m, "sim.ns_per_event", ratio(r.sim_s * 1e9, r.events), "ns");
      put(m, "trace.rows", r.rows, "count");
      put(m, "trace.rows_per_event", ratio(r.rows, r.events), "ratio");
      put(m, "analysis.analyze_s", r.analyze_s, "s");
      std::vector<fs::FsCounters> pfs;
      std::vector<const analysis::WorkloadProfile*> profiles;
      double recs = 0.0;
      for (const auto* outs : {&base, &opt}) {
        for (const auto& o : *outs) {
          pfs.push_back(o.pfs_counters);
          profiles.push_back(&o.profile);
        }
      }
      for (const auto& b : base) {
        recs += static_cast<double>(b.recommendations.size());
      }
      pfs_layers(pfs, m);
      profile_layers(profiles, m);
      analysis_layers(r.analyze_s, r.rows, m);
      put(m, "advisor.recommendations", recs, "count");
    }

    Timed t(log_, "bench.check");
    r.outcome.push_back({"trace_rows", exact(r.rows)});
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      for (const auto& [suffix, out] :
           {std::pair{"", &base[i]}, std::pair{"-opt", &opt[i]}}) {
        const std::string key = cases_[i].name + suffix + ".";
        r.outcome.push_back(
            {key + "engine_events",
             exact(static_cast<double>(out->engine_events))});
        r.outcome.push_back({key + "job_s", exact(out->job_seconds)});
        r.outcome.push_back(
            {key + "charz_digest", digest(out->characterization.to_yaml())});
      }
      const double b_io = base[i].profile.io_time_fraction *
                          base[i].job_seconds;
      const double o_io = opt[i].profile.io_time_fraction *
                          opt[i].job_seconds;
      r.outcome.push_back({cases_[i].name + ".io_ratio",
                           exact(ratio(b_io, o_io))});
    }
    return r;
  }

 private:
  struct Case {
    std::string name;
    cluster::ClusterSpec spec;
    std::function<workloads::Workload()> make;
  };

  /// Baseline scenarios when `cfgs` is empty, else one optimized scenario
  /// per case with its configured RunConfig.
  std::vector<workloads::Scenario> scenarios(
      const std::vector<advisor::RunConfig>& cfgs) const {
    std::vector<workloads::Scenario> out;
    analysis::Analyzer::Options aopts;
    aopts.jobs = 1;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      workloads::Scenario s;
      s.name = cfgs.empty() ? c.name : c.name + "-opt";
      s.spec = c.spec;
      s.make = [make = c.make, seed = seed_, &log = log_] {
        return seeded(make(), seed, log);
      };
      if (!cfgs.empty()) s.cfg = cfgs[i];
      s.analyzer_opts = aopts;
      out.push_back(std::move(s));
    }
    return out;
  }

  SpanLog& log_;
  std::uint64_t seed_;
  runtime::ScenarioRunner runner_;
  std::vector<Case> cases_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cosmoflow-job", "trace-spill", "montage-whatif"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg, SpanLog& log) {
  if (name == "cosmoflow-job") return std::make_unique<CosmoflowJob>(cfg, log);
  if (name == "trace-spill") return std::make_unique<TraceSpill>(cfg, log);
  if (name == "montage-whatif") {
    return std::make_unique<MontageWhatif>(cfg, log);
  }
  return nullptr;
}

}  // namespace perfbench
