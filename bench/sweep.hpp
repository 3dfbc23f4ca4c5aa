// Common ablation sweep driver: a parameter grid becomes a vector of
// independent workloads::Scenario cells, workloads::run_many fans them out
// over a ScenarioRunner (honoring any SpillPolicy set on it), and a row
// printer renders the results in grid order. Every ablation bench shares
// this one execution path, so each prints an identical table at any --jobs.
// The advise-and-verify figures (Fig. 7, Fig. 8) share advise_and_verify.
#pragma once

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "runtime/scenario_runner.hpp"
#include "util/table.hpp"
#include "workloads/workload.hpp"

namespace wasp::benchutil {

template <typename Cell>
struct Sweep {
  std::string title;
  std::vector<std::string> header;
  std::vector<Cell> cells;
  /// Build the independent simulation request for one grid cell.
  std::function<workloads::Scenario(const Cell&)> scenario;
  /// Render one table row from a cell's result.
  std::function<std::vector<std::string>(const Cell&,
                                         const workloads::RunOutput&)>
      row;
  /// Rough engine-event count per cell (0 = unknown), forwarded to
  /// Scenario::est_events so run_many can skip the thread-pool fan-out for
  /// grids of tiny cells.
  std::uint64_t est_events_per_cell = 0;
};

/// Run the grid cell-parallel on the given runner and print the table.
/// Returns the outputs in grid order (for benches that post-process).
template <typename Cell>
std::vector<workloads::RunOutput> run_sweep(
    const Sweep<Cell>& sweep, const runtime::ScenarioRunner& runner) {
  std::vector<workloads::Scenario> scenarios;
  scenarios.reserve(sweep.cells.size());
  for (const Cell& c : sweep.cells) {
    workloads::Scenario s = sweep.scenario(c);
    if (s.est_events == 0) s.est_events = sweep.est_events_per_cell;
    scenarios.push_back(std::move(s));
  }
  auto outs = workloads::run_many(scenarios, runner);

  util::TablePrinter table(sweep.title);
  table.set_header(sweep.header);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    table.add_row(sweep.row(sweep.cells[i], outs[i]));
  }
  table.print(std::cout);
  return outs;
}

template <typename Cell>
std::vector<workloads::RunOutput> run_sweep(const Sweep<Cell>& sweep,
                                            int jobs = 0) {
  return run_sweep(sweep, runtime::ScenarioRunner(jobs));
}

/// One strong-scaling point of an advise-and-verify figure.
struct AdvisePoint {
  int nodes = 0;
  std::function<workloads::Workload()> make;
  double paper_speedup = 0.0;
};

/// The paper's §IV-D loop as a figure: run every baseline, let the advisor
/// configure each point from its own baseline's recommendations
/// (RuleEngine::configure), run the optimized jobs, and print baseline (B)
/// vs optimized (O) job and I/O seconds with the I/O speedup beside the
/// paper's. Each half fans out across `jobs` workers; scenarios are named
/// `<name>-base-<nodes>` and `<name>-opt-<nodes>`.
inline void advise_and_verify(const std::string& title, const std::string& name,
                              const std::vector<AdvisePoint>& points,
                              int jobs) {
  const auto scenarios = [&](const std::string& half,
                             const std::vector<workloads::RunOutput>* bases) {
    std::vector<workloads::Scenario> out;
    for (std::size_t i = 0; i < points.size(); ++i) {
      workloads::Scenario s;
      s.name = name + "-" + half + "-" + std::to_string(points[i].nodes);
      s.spec = cluster::lassen(points[i].nodes);
      s.make = points[i].make;
      if (bases != nullptr) {
        s.cfg = advisor::RuleEngine::configure((*bases)[i].recommendations);
      }
      out.push_back(std::move(s));
    }
    return out;
  };
  const auto bases = workloads::run_many(scenarios("base", nullptr), jobs);
  const auto opts = workloads::run_many(scenarios("opt", &bases), jobs);

  const auto f = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return std::string(buf);
  };
  util::TablePrinter table(title);
  table.set_header({"nodes", "B job s", "B io s", "O job s", "O io s",
                    "io speedup", "paper speedup"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& base = bases[i];
    const auto& opt = opts[i];
    const double b_io = base.profile.io_time_fraction * base.job_seconds;
    const double o_io = opt.profile.io_time_fraction * opt.job_seconds;
    table.add_row({std::to_string(points[i].nodes), f(base.job_seconds),
                   f(b_io), f(opt.job_seconds), f(o_io), f(b_io / o_io),
                   f(points[i].paper_speedup)});
  }
  table.print(std::cout);
}

}  // namespace wasp::benchutil
