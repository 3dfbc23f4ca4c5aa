// wasp_perfbench — the repository benchmark: runs one pipeline workload as
// a closed loop for a fixed time and prints its metrics.
//
//   wasp_perfbench --workload cosmoflow-job|trace-spill|montage-whatif
//                  [--seed N] [--seconds S] [--trace 0|1] [--max-iters N]
//                  [--work-dir DIR] [--git-sha SHA]
//
// --trace 0 times the iterations with tracing off and prints the
// end-to-end metrics. --trace 1 alternates untraced and traced iterations;
// the traced ones record spans around each layer call and read the
// in-program counters, and the run prints the per-layer metrics plus the
// tracing overhead. Every iteration's output is checked; the last stdout
// line is one JSON object {correct, attempted, failed, metrics}, and the
// exit code is non-zero when any check failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "expected.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace obs = wasp::obs;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Host-speed probe: a dependent random walk over a table larger than the
/// last-level cache, timed before every set-up and iteration and once at
/// the end. It runs the benchmark's own code, never the library's, so a
/// change to the program cannot move it. On a shared host, memory
/// contention from other tenants slows both the probe and the pipeline
/// (per-iteration correlation 0.66 on the 4-thread container where the
/// benchmark was defined). Each set-up or iteration time is rescaled by
/// kProbeReferenceS / the mean of the probes just before and just after it.
class HostProbe {
 public:
  static constexpr std::uint32_t kEntries = 1u << 23;  // 32 MiB
  static constexpr int kSteps = 400000;

  HostProbe() : next_(kEntries) {
    // Sattolo's algorithm: one cycle through every entry, fixed seed.
    for (std::uint32_t i = 0; i < kEntries; ++i) next_[i] = i;
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (std::uint32_t k = kEntries - 1; k > 0; --k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next_[k], next_[(x >> 33) % k]);
    }
  }

  double seconds() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t i = 0;
    for (int k = 0; k < kSteps; ++k) i = next_[i];
    sink_ = i;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

 private:
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t sink_ = 0;
};

/// The probe's typical time on the host where the benchmark was defined,
/// so rescaled seconds read close to that host's raw seconds.
constexpr double kProbeReferenceS = 0.077;

/// The per-layer metrics the traced run reports, in BENCHMARK.json order.
/// A metric that does not apply to a workload reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"runtime.sim_build_s", "s"},
      {"runtime.stage_s", "s"},
      {"runtime.teardown_s", "s"},
      {"runtime.scenario_s_sum", "s"},
      {"runtime.scenario_s_max", "s"},
      {"runtime.parallel_efficiency", "ratio"},
      {"runtime.pool_queue_wait_s", "s"},
      {"runtime.pool_task_run_s", "s"},
      {"runtime.run_many_s", "s"},
      {"workloads.launch_s", "s"},
      {"pattern.ops_total", "count"},
      {"pattern.ops.open", "count"},
      {"pattern.ops.close", "count"},
      {"pattern.ops.read", "count"},
      {"pattern.ops.write", "count"},
      {"pattern.ops.pwrite_sync", "count"},
      {"pattern.ops.seek", "count"},
      {"pattern.ops.seek_batch", "count"},
      {"pattern.ops.stat", "count"},
      {"pattern.ops.compute", "count"},
      {"pattern.ops.gpu_compute", "count"},
      {"pattern.ops.barrier", "count"},
      {"pattern.ops.allreduce", "count"},
      {"pattern.ops.signal", "count"},
      {"pattern.ops.wait_event", "count"},
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.frame_pool_hit_ratio", "ratio"},
      {"sim.queue_depth_max", "count"},
      {"fs.pfs.meta_ops", "count"},
      {"fs.pfs.data_ops", "count"},
      {"fs.pfs.bytes_read", "B"},
      {"fs.pfs.bytes_written", "B"},
      {"fs.pfs.cache_hit_ratio", "ratio"},
      {"fs.node_local.data_ops", "count"},
      {"io.read_ops", "count"},
      {"io.write_ops", "count"},
      {"io.meta_ops", "count"},
      {"mpi.collectives", "count"},
      {"trace.rows", "count"},
      {"trace.rows_per_event", "ratio"},
      {"trace.log_read_s", "s"},
      {"trace.log_read_mb_per_s", "MB/s"},
      {"trace.log_write_s", "s"},
      {"analysis.analyze_s", "s"},
      {"analysis.rows_per_s", "1/s"},
      {"analysis.scan_s", "s"},
      {"analysis.merge_s", "s"},
      {"analysis.resolve_s", "s"},
      {"analysis.unions_s", "s"},
      {"analysis.phases_s", "s"},
      {"analysis.timeline_s", "s"},
      {"analysis.unattributed_s", "s"},
      {"analysis.spill_ingest_s", "s"},
      {"analysis.spill.bytes_written", "B"},
      {"analysis.spill.bytes_read", "B"},
      {"analysis.spill.compressed_ratio", "ratio"},
      {"analysis.spill.chunk_loads", "count"},
      {"analysis.spill.cache_hit_ratio", "ratio"},
      {"analysis.spill.prefetch_issued", "count"},
      {"analysis.spill.prefetch_hits", "count"},
      {"analysis.spill.prefetch_useful_ratio", "ratio"},
      {"analysis.spill.evictions", "count"},
      {"analysis.spill.peak_resident_chunks", "count"},
      {"core.characterize_s", "s"},
      {"advisor.evaluate_s", "s"},
      {"advisor.configure_s", "s"},
      {"advisor.recommendations", "count"},
      {"bench.check_s", "s"},
      {"bench.unaccounted_s", "s"},
      {"bench.tracing_overhead_frac", "ratio"},
      {"bench.host_probe_s", "s"},
  };
  return names;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int max_iters = 0;  ///< 0 = until --seconds elapse
  std::string work_dir = ".bench_work";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "wasp_perfbench: " << why << "\nusage: wasp_perfbench"
            << " --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
            << " [--max-iters N] [--work-dir DIR] [--git-sha SHA]\n"
            << "workloads:";
  for (const auto& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &used) != 0;
      } else if (flag == "--max-iters") {
        a.max_iters = std::stoi(v, &used);
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else if (flag == "--git-sha") {
        a.git_sha = v;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != v.size()) throw std::invalid_argument(v);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.max_iters < 0) usage("bad run length");
  return a;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples above it: the k-th
/// smallest of n samples, k = n - 10, reported as percentile floor(100k/n).
/// With ten samples or fewer no percentile qualifies; the maximum is
/// reported as p100.
std::pair<double, int> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), 100};
  const std::size_t k = n - 10;
  return {v[k - 1], static_cast<int>(100 * k / n)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Keys whose values differ between an outcome and its reference.
std::vector<std::string> mismatches(const Outcome& got, const Outcome& want) {
  std::vector<std::string> bad;
  for (const auto& [key, value] : want) {
    const auto it = std::find_if(got.begin(), got.end(),
                                 [&](const auto& kv) { return kv.first == key; });
    if (it == got.end()) {
      bad.push_back(key + " (missing; want " + value + ")");
    } else if (it->second != value) {
      bad.push_back(key + " = " + it->second + " (want " + value + ")");
    }
  }
  if (got.size() != want.size()) bad.push_back("outcome key count differs");
  return bad;
}

void print_metric_line(const std::string& name, double value,
                       const std::string& unit, const std::string& note) {
  std::printf("  %-40s %18.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const int nproc = online_cpus();
  Config cfg;
  cfg.seed = args.seed;
  cfg.thread_cap = std::min(nproc, 4);
  cfg.work_dir = args.work_dir;

  SpanLog log;
  log.set_enabled(args.trace);
  std::unique_ptr<Workload> wl;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    wl = make_workload(args.workload, cfg, log);
  } catch (const std::exception& e) {
    std::cerr << "wasp_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (wl == nullptr) usage("unknown workload " + args.workload);

  // Provenance, printed beside the results.
  std::vector<std::string> not_record;
#if !defined(__OPTIMIZE__)
  not_record.push_back("unoptimized build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  not_record.push_back("sanitizer build");
#endif
  if (nproc < 4) {
    not_record.push_back("fewer hardware threads (" + std::to_string(nproc) +
                         ") than the cap of 4");
  }
  {
    std::ostringstream p;
    p << "{\"git_sha\":" << json_string(args.git_sha)
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"nproc\":" << nproc << ",\"thread_cap\":" << cfg.thread_cap
      << ",\"threads\":" << json_string(wl->threads())
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS)
      << ",\"record\":" << (not_record.empty() ? "true" : "false")
      << ",\"not_record_because\":[";
    for (std::size_t i = 0; i < not_record.size(); ++i) {
      p << (i ? "," : "") << json_string(not_record[i]);
    }
    p << "]}";
    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("provenance %s\n", p.str().c_str());
  }

  // Reference outputs: the recorded values at seed 0; otherwise the first
  // set-up's warm-up iteration, which every later iteration must match.
  Outcome reference;
  bool have_reference = false;
  if (args.seed == 0) {
    const auto& table = expected_at_seed0();
    const auto it = table.find(args.workload);
    if (it != table.end()) {
      reference = it->second;
      have_reference = true;
    }
  }
  long attempted = 0;
  long failed = 0;
  auto check = [&](const Outcome& got, const char* what) {
    if (!have_reference) {
      reference = got;
      have_reference = true;
      return;
    }
    const auto bad = mismatches(got, reference);
    if (bad.empty()) return;
    ++failed;
    std::fprintf(stderr, "output check failed (%s):\n", what);
    for (const auto& b : bad) std::fprintf(stderr, "  %s\n", b.c_str());
  };

  // Set-up, several times; the iterations use the last one. Every time
  // below carries the rescale factor of the probe taken just before it.
  HostProbe probe;
  std::vector<double> probe_s;
  auto take_probe = [&] {
    probe_s.push_back(probe.seconds());
    return probe_s.size() - 1;
  };
  struct Timing {
    double wall_s;      ///< raw host seconds
    std::size_t probe;  ///< index of the probe taken just before
  };
  std::vector<Timing> setup_t;
  std::vector<Metrics> setup_layers;
  try {
    for (int k = 0; k < kSetups; ++k) {
      obs::Registry::set_timing_enabled(false);
      const std::size_t before = take_probe();
      const auto t0 = std::chrono::steady_clock::now();
      setup_layers.push_back(wl->prepare());
      ++attempted;
      const IterResult warm = wl->iterate(false);
      setup_t.push_back({std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count(),
                         before});
      check(warm.outcome, "warm-up");
    }
  } catch (const std::exception& e) {
    std::cerr << "wasp_perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }

  // Closed loop: the next iteration starts when the previous one ends.
  std::vector<IterResult> untraced;
  std::vector<Timing> untraced_t;
  std::vector<IterResult> traced;
  std::vector<Timing> traced_t;
  const auto loop_t0 = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - loop_t0)
                               .count();
    const bool trace_this = args.trace && i % 2 == 1;
    const std::size_t done = args.trace ? traced.size() : untraced.size();
    if (!trace_this && (elapsed >= args.seconds ||
                        (args.max_iters > 0 &&
                         done >= static_cast<std::size_t>(args.max_iters)))) {
      break;
    }
    obs::Registry::set_timing_enabled(trace_this);
    const std::size_t before = take_probe();
    ++attempted;
    try {
      const int root = trace_this ? log.open("iteration", i) : -1;
      const auto t0 = std::chrono::steady_clock::now();
      IterResult r = wl->iterate(trace_this);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      if (root >= 0) log.close(root);
      const long failed_before = failed;
      check(r.outcome, "iteration");
      if (failed != failed_before) continue;
      if (trace_this) {
        const IterationTimes times = log.times(i);
        for (const auto& [name, s] : times.self_s) {
          r.layers[name + "_s"] = Metric{s, "s"};
        }
        r.layers["bench.unaccounted_s"] = Metric{times.unaccounted_s, "s"};
        traced.push_back(std::move(r));
        traced_t.push_back({wall, before});
      } else {
        untraced.push_back(std::move(r));
        untraced_t.push_back({wall, before});
      }
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "iteration %d failed: %s\n", i, e.what());
    }
  }
  obs::Registry::set_timing_enabled(false);
  take_probe();
  auto scale_of = [&](const Timing& t) {
    return kProbeReferenceS / (0.5 * (probe_s[t.probe] + probe_s[t.probe + 1]));
  };

  std::printf("outputs (%s):\n",
              args.seed == 0 ? "checked against the recorded seed-0 values"
                             : "every iteration matched these");
  for (const auto& [key, value] : reference) {
    std::printf("  %s = %s\n", key.c_str(), value.c_str());
  }

  Metrics out;
  auto rescaled = [&](const std::vector<Timing>& ts) {
    std::vector<double> v;
    for (const Timing& t : ts) v.push_back(t.wall_s * scale_of(t));
    return v;
  };
  if (!args.trace) {
    std::vector<double> raw_wall;
    std::vector<double> sim_rates;
    std::vector<double> rows_rates;
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      const IterResult& r = untraced[i];
      const double scale = scale_of(untraced_t[i]);
      raw_wall.push_back(untraced_t[i].wall_s);
      if (r.sim_s > 0) sim_rates.push_back(r.events / (r.sim_s * scale));
      if (r.analyze_s > 0) {
        rows_rates.push_back(r.rows / (r.analyze_s * scale));
      }
    }
    const std::vector<double> wall = rescaled(untraced_t);
    const auto [tail_s, tail_pct] = tail(wall);
    const std::string n = "n=" + std::to_string(wall.size());
    std::printf("end-to-end (median over %zu iterations; tracing off; times"
                " rescaled by the host probe):\n",
                wall.size());
    out["wall_s_p50"] = {median(wall), "s"};
    out["wall_s_tail"] = {tail_s, "s"};
    out["analyze_rows_per_s"] = {median(rows_rates), "1/s"};
    out["setup_s"] = {median(rescaled(setup_t)), "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    print_metric_line("wall_s_p50", out["wall_s_p50"].value, "s", n);
    print_metric_line("wall_s_tail", tail_s, "s",
                      "p" + std::to_string(tail_pct) + " " + n);
    // Not in the JSON result: trace-spill iterations run no engine, and a
    // gated metric must be defined on every workload.
    if (!sim_rates.empty()) {
      print_metric_line("sim_events_per_s", median(sim_rates), "1/s", n);
    }
    print_metric_line("analyze_rows_per_s", out["analyze_rows_per_s"].value,
                      "1/s", n);
    print_metric_line("setup_s", out["setup_s"].value, "s",
                      "n=" + std::to_string(setup_t.size()) + " set-ups");
    print_metric_line("peak_rss_mb", out["peak_rss_mb"].value, "MB",
                      "process high-water mark");
    print_metric_line(
        "fail_frac",
        attempted == 0 ? 0.0
                       : static_cast<double>(failed) /
                             static_cast<double>(attempted),
        "ratio",
        std::to_string(failed) + "/" + std::to_string(attempted));
    std::printf("raw host seconds (not rescaled):\n");
    print_metric_line("wall_s_p50 raw", median(raw_wall), "s", n);
    std::vector<double> setup_raw;
    for (const Timing& t : setup_t) setup_raw.push_back(t.wall_s);
    print_metric_line("setup_s raw", median(setup_raw), "s", "");
    char ref[32];
    std::snprintf(ref, sizeof(ref), "reference %g s", kProbeReferenceS);
    print_metric_line("host probe", median(probe_s), "s", ref);
    std::printf("  iteration walls (raw s / probe s, in run order):");
    for (const Timing& t : untraced_t) {
      std::printf(" %.3f/%.4f", t.wall_s, kProbeReferenceS / scale_of(t));
    }
    std::printf("\n");
  } else {
    // Per-layer: median over traced iterations (set-up values for the
    // metrics only set-up measures).
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::string> units;
    for (const IterResult& r : traced) {
      for (const auto& [name, m] : r.layers) {
        samples[name].push_back(m.value);
        units[name] = m.unit;
      }
    }
    for (const Metrics& s : setup_layers) {
      for (const auto& [name, m] : s) {
        samples[name].push_back(m.value);
        units[name] = m.unit;
      }
    }
    Metrics all;
    for (const auto& [name, v] : samples) all[name] = {median(v), units[name]};
    all["bench.tracing_overhead_frac"] = {
        median(rescaled(traced_t)) /
                std::max(median(rescaled(untraced_t)), 1e-12) -
            1.0,
        "ratio"};
    all["bench.host_probe_s"] = {median(probe_s), "s"};
    std::set<std::string> listed;
    std::printf("per-layer (median over %zu traced iterations; %zu untraced"
                " iterations alternate with them):\n",
                traced.size(), untraced.size());
    for (const auto& [name, unit] : per_layer_names()) {
      listed.insert(name);
      const auto it = all.find(name);
      const bool applies = it != all.end();
      out[name] = {applies ? it->second.value : 0.0, unit};
      print_metric_line(name, out[name].value, unit,
                        applies ? "" : "n/a on this workload");
    }
    std::printf("also measured:\n");
    for (const auto& [name, m] : all) {
      if (listed.count(name) == 0) {
        print_metric_line(name, m.value, m.unit, "");
      }
    }
    const auto pf = all.find("analysis.spill.prefetch_useful_ratio");
    if (pf != all.end() && pf->second.value > 1.0) {
      std::printf(
          "FLAG analysis.spill.prefetch_useful_ratio = %.4f > 1: %.0f"
          " prefetch hits for %.0f prefetches issued (reported unclamped)\n",
          pf->second.value, all["analysis.spill.prefetch_hits"].value,
          all["analysis.spill.prefetch_issued"].value);
    }
    const std::string spans_path = cfg.work_dir + "/" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".spans.json";
    std::ofstream spans_out(spans_path);
    log.write_chrome_trace(spans_out);
    std::printf("spans written to %s\n", spans_path.c_str());
  }

  wl.reset();
  const bool correct = failed == 0;
  std::ostringstream j;
  j << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    j << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
      << number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  j << "}}";
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
