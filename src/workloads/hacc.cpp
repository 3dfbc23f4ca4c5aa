#include "workloads/hacc.hpp"

#include <algorithm>
#include <string>

#include "io/posix.hpp"

namespace wasp::workloads {
namespace {

/// Compile the HACC force-per-process checkpoint/restart cycle into the
/// declarative pattern IR. The "checkpoint.*" meta lets the advisor's
/// rewrites compress the checkpoints or drain them asynchronously.
pattern::JobPattern compile_hacc(runtime::Simulation& sim,
                                 const HaccParams& P) {
  namespace po = pattern::ops;
  using pattern::Expr;

  const std::string dir = sim.pfs().mount() + "/hacc/";
  const std::string path = dir + "{rank}.ckpt";

  const auto total_ops = static_cast<std::uint64_t>(
      std::max<util::Bytes>((P.per_rank_bytes + P.transfer - 1) / P.transfer,
                            1));
  const auto rounds = static_cast<std::uint64_t>(
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                     static_cast<std::uint64_t>(P.rounds),
                                     total_ops)));
  const std::uint64_t per = (total_ops + rounds - 1) / rounds;
  const std::string kTotal = std::to_string(total_ops);
  const std::string kPer = std::to_string(per);
  const std::string kT = std::to_string(P.transfer);
  // Ops in round r; the guard skips rounds past the tail.
  const std::string ops_r = "min(" + kPer + ", " + kTotal + " - r * " + kPer +
                            ")";
  const std::string guard_r = kTotal + " - r * " + kPer + " > 0";

  pattern::JobPattern pat;
  pat.name = "hacc-fpp";
  pat.apps = {"hacc-io"};
  pat.comms.push_back({"world", P.nodes * P.ranks_per_node, P.nodes, false});

  pattern::LaneGroup g;
  g.comm = "world";
  g.rng_seed = 0x44ACC;

  pattern::PhasePattern ph;
  ph.app = "hacc-io";

  // Particle generation in memory.
  ph.ops.push_back(po::compute(P.generate_compute, 0.95, 0.1));
  ph.ops.push_back(po::barrier());

  // Checkpoint round 0 (truncating open); rounds >= 1 append.
  ph.ops.push_back(
      po::open(pattern::Layer::kPosix, "f", path, io::OpenMode::kWrite));
  ph.ops.push_back(
      po::seek_batch(pattern::Layer::kPosix, "f",
                     Expr::lit(static_cast<std::int64_t>(per))));
  ph.ops.push_back(po::write(pattern::Layer::kPosix, "f",
                             Expr::lit(static_cast<std::int64_t>(P.transfer)),
                             Expr::lit(static_cast<std::int64_t>(per))));
  ph.ops.push_back(po::close(pattern::Layer::kPosix, "f"));
  if (rounds > 1) {
    std::vector<pattern::Op> body;
    body.push_back(
        po::open(pattern::Layer::kPosix, "f", path, io::OpenMode::kAppend));
    body.push_back(po::seek_batch(pattern::Layer::kPosix, "f", Expr(ops_r)));
    body.push_back(
        po::write(pattern::Layer::kPosix, "f", Expr(kT), Expr(ops_r)));
    body.push_back(po::close(pattern::Layer::kPosix, "f"));
    ph.ops.push_back(po::loop("r", Expr::lit(1),
                              Expr::lit(static_cast<std::int64_t>(rounds)),
                              std::move(body), {}, Expr(guard_r)));
  }

  ph.ops.push_back(po::barrier());

  // Restart: read the checkpoint back with the same round structure.
  if (P.do_restart_read) {
    // Restart offsets in stored bytes per transfer, read off the file so
    // they hold whichever layer wrote it.
    const std::string offset_r = "min(r * " + kPer + ", " + kTotal +
                                 ") * (size_of(\"" + path + "\") / " +
                                 kTotal + ")";
    std::vector<pattern::Op> body;
    body.push_back(
        po::open(pattern::Layer::kPosix, "f", path, io::OpenMode::kRead));
    body.push_back(po::seek(pattern::Layer::kPosix, "f", Expr(offset_r)));
    body.push_back(po::seek_batch(pattern::Layer::kPosix, "f", Expr(ops_r)));
    body.push_back(
        po::read(pattern::Layer::kPosix, "f", Expr(kT), Expr(ops_r)));
    body.push_back(po::close(pattern::Layer::kPosix, "f"));
    ph.ops.push_back(po::loop("r", Expr::lit(0),
                              Expr::lit(static_cast<std::int64_t>(rounds)),
                              std::move(body), {}, Expr(guard_r)));
  }
  ph.ops.push_back(po::barrier());

  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  pat.set_meta("checkpoint.dir", dir);
  pat.set_meta("checkpoint.tier_dir", "/hacc/");
  pat.set_meta("checkpoint.transfer", kT);
  return pat;
}

}  // namespace

HaccParams HaccParams::test() {
  HaccParams P;
  P.nodes = 2;
  P.ranks_per_node = 4;
  P.per_rank_bytes = 256 * util::kMiB;
  P.transfer = 4 * util::kMiB;
  P.rounds = 2;
  P.generate_compute = sim::seconds(0.05);
  return P;
}

Workload make_hacc(const HaccParams& params) {
  Workload w;
  w.decl.name = "HACC";
  w.decl.data_repr = "1D";
  w.decl.data_distribution = "uniform";
  w.decl.dataset_format = "bin";
  w.decl.format_attributes = "type: float, 9 variables";
  w.decl.file_size_dist = util::format_bytes(params.per_rank_bytes);
  w.decl.job_time_limit_hours = 2;
  w.decl.cpu_cores_used_per_node = params.ranks_per_node;
  w.decl.app_memory_per_node = 56 * util::kGiB;

  set_baseline(w, [params](runtime::Simulation& sim) {
    return compile_hacc(sim, params);
  });
  return w;
}

}  // namespace wasp::workloads
