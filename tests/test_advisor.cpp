// Rule-engine tests: each §IV-D rule fires exactly on its attribute
// conditions and carries the right pattern rewrites; RuleEngine::configure
// orders them canonically, and every rewrite it can emit round-trips
// through its `wasp_pattern whatif` spelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>

#include "advisor/rules.hpp"
#include "workloads/registry.hpp"

namespace wasp::advisor {
namespace {

/// A characterization resembling CosmoFlow's (metadata-heavy shared-file
/// HDF5 reads with free node memory).
charz::WorkloadCharacterization cosmoflow_like() {
  charz::WorkloadCharacterization c;
  c.workload = "cosmo";
  c.job.nodes = 32;
  c.job.node_local_bb_dirs = "/dev/shm";
  c.workflow.shared_files = 49664;
  c.workflow.fpp_files = 0;
  c.workflow.num_apps = 1;
  c.workflow.io_amount = 1500ull * util::kGB;
  charz::ApplicationEntity app;
  app.name = "cosmoflow";
  app.interface = "HDF5";
  c.applications.push_back(app);
  c.high_level_io.data_granularity = util::kMiB;
  c.high_level_io.meta_granularity = 4 * util::kKiB;
  c.high_level_io.access_pattern = "Seq";
  c.middleware.memory_per_node = 196 * util::kGiB;
  charz::NodeLocalStorageEntity shm;
  shm.dir = "/dev/shm";
  shm.capacity_per_node = 128 * util::kGiB;
  c.node_local.push_back(shm);
  c.dataset.format = "HDF5";
  c.dataset.size = 1500ull * util::kGB;
  c.dataset.io_amount = 1500ull * util::kGB;
  c.dataset.data_ops_fraction = 0.02;  // metadata storm
  return c;
}

/// A characterization resembling Montage's (multi-app workflow exchanging
/// small-granularity intermediate files).
charz::WorkloadCharacterization montage_like() {
  charz::WorkloadCharacterization c;
  c.workload = "montage";
  c.job.nodes = 32;
  c.job.node_local_bb_dirs = "/dev/shm";
  c.workflow.num_apps = 5;
  c.workflow.has_app_data_dependency = true;
  c.workflow.io_amount = 53ull * util::kGB;
  charz::ApplicationEntity app;
  app.name = "mAddMPI";
  app.interface = "STDIO";
  c.applications.push_back(app);
  c.high_level_io.data_granularity = 32 * util::kKiB;
  c.high_level_io.meta_granularity = 4 * util::kKiB;
  c.high_level_io.access_pattern = "Seq";
  charz::NodeLocalStorageEntity shm;
  shm.dir = "/dev/shm";
  shm.capacity_per_node = 128 * util::kGiB;
  c.node_local.push_back(shm);
  c.dataset.format = "bin";
  c.dataset.data_ops_fraction = 0.99;
  return c;
}

bool has_rule(const std::vector<Recommendation>& recs,
              const std::string& id) {
  for (const auto& r : recs) {
    if (r.id == id) return true;
  }
  return false;
}

/// The rewrite named `name` in `cfg`, or null.
const Rewrite* find_rewrite(const RunConfig& cfg, const std::string& name) {
  for (const auto& rw : cfg.rewrites) {
    if (rw.name == name) return &rw;
  }
  return nullptr;
}

TEST(RuleEngine, PreloadFiresForCosmoflowProfile) {
  RuleEngine engine;
  auto recs = engine.evaluate(cosmoflow_like());
  ASSERT_TRUE(has_rule(recs, "preload-input"));
  auto cfg = RuleEngine::configure(recs);
  const Rewrite* rw = find_rewrite(cfg, "preload");
  ASSERT_NE(rw, nullptr);
  EXPECT_EQ(rw->args, std::vector<std::string>{"shm"});
}

TEST(RuleEngine, PreloadDoesNotFireWhenShardTooBig) {
  auto c = cosmoflow_like();
  c.job.nodes = 2;  // 750GB per node cannot fit 128GB shm
  RuleEngine engine;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "preload-input"));
}

TEST(RuleEngine, PreloadDoesNotFireWhenDataOpsDominate) {
  auto c = cosmoflow_like();
  c.dataset.data_ops_fraction = 0.99;  // no metadata problem
  RuleEngine engine;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "preload-input"));
}

TEST(RuleEngine, IntermediatesRuleFiresForMontageProfile) {
  RuleEngine engine;
  auto recs = engine.evaluate(montage_like());
  ASSERT_TRUE(has_rule(recs, "intermediates-node-local"));
  auto cfg = RuleEngine::configure(recs);
  const Rewrite* rw = find_rewrite(cfg, "intermediates");
  ASSERT_NE(rw, nullptr);
  EXPECT_EQ(rw->args, std::vector<std::string>{"shm"});
}

TEST(RuleEngine, IntermediatesRuleNeedsAppDependency) {
  auto c = montage_like();
  c.workflow.has_app_data_dependency = false;
  RuleEngine engine;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "intermediates-node-local"));
}

// The async-checkpoint rule fires on any single-app job with an I/O phase,
// some I/O, no inter-app dependency and a node-local tier; each clause
// alone turns it off. It cannot ask for periodic write-dominated phases:
// the characterization keeps one phase per app and no per-phase write
// share, so one phase and four read the same.
TEST(RuleEngine, AsyncCheckpointConditionIsOneSingleAppIoPhase) {
  const auto fires = [](const charz::WorkloadCharacterization& c) {
    return has_rule(RuleEngine().evaluate(c), "async-checkpoint");
  };
  auto base = cosmoflow_like();
  EXPECT_FALSE(fires(base));  // no I/O phase
  base.phases.emplace_back();
  EXPECT_TRUE(fires(base));
  auto many = base;
  many.phases.resize(4);
  EXPECT_TRUE(fires(many));

  auto c = base;
  c.workflow.num_apps = 2;
  EXPECT_FALSE(fires(c));
  c = base;
  c.workflow.io_amount = 0;
  EXPECT_FALSE(fires(c));
  c = base;
  c.workflow.has_app_data_dependency = true;
  EXPECT_FALSE(fires(c));
  c = base;
  c.node_local.clear();
  EXPECT_FALSE(fires(c));
}

TEST(RuleEngine, StripeSizeMatchesDominantGranularity) {
  auto c = montage_like();
  c.high_level_io.data_granularity = 16 * util::kMiB;
  RuleEngine engine;
  auto recs = engine.evaluate(c);
  ASSERT_TRUE(has_rule(recs, "stripe-size"));
  for (const auto& r : recs) {
    if (r.id != "stripe-size") continue;
    EXPECT_EQ(r.value, util::format_bytes(16 * util::kMiB));
    // Advisory only: the model has no stripe-size knob.
    EXPECT_TRUE(r.rewrites.empty());
  }
}

TEST(RuleEngine, StripeRuleSkipsSmallOrDefaultGranularity) {
  RuleEngine engine;
  auto c = montage_like();
  c.high_level_io.data_granularity = 4 * util::kKiB;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "stripe-size"));
  c.high_level_io.data_granularity = util::kMiB;  // already the default
  EXPECT_FALSE(has_rule(engine.evaluate(c), "stripe-size"));
}

TEST(RuleEngine, LockingDisabledOnlyWithoutDependencies) {
  RuleEngine engine;
  auto hacc = cosmoflow_like();
  hacc.workflow.has_app_data_dependency = false;
  hacc.applications[0].has_process_data_dependency = false;
  const auto recs = engine.evaluate(hacc);
  EXPECT_TRUE(has_rule(recs, "disable-locking"));
  for (const auto& r : recs) {
    if (r.id == "disable-locking") {
      EXPECT_TRUE(r.rewrites.empty());
    }
  }
  EXPECT_NE(RuleEngine::report(recs).find("advisory only"), std::string::npos);

  auto dep = montage_like();  // has app dependency
  EXPECT_FALSE(has_rule(engine.evaluate(dep), "disable-locking"));
}

TEST(RuleEngine, StdioBufferRuleRequiresStdioAndSmallSeqAccess) {
  RuleEngine engine;
  auto c = montage_like();
  ASSERT_TRUE(has_rule(engine.evaluate(c), "stdio-buffer"));
  auto cfg = RuleEngine::configure(engine.evaluate(c));
  const Rewrite* rw = find_rewrite(cfg, "stdio-buffer");
  ASSERT_NE(rw, nullptr);
  EXPECT_EQ(rw->args, std::vector<std::string>{std::to_string(util::kMiB)});

  c.applications[0].interface = "POSIX";
  EXPECT_FALSE(has_rule(engine.evaluate(c), "stdio-buffer"));
}

TEST(RuleEngine, Hdf5ChunkingForMetadataHeavyHdf5) {
  RuleEngine engine;
  auto recs = engine.evaluate(cosmoflow_like());
  ASSERT_TRUE(has_rule(recs, "hdf5-chunking"));
  auto cfg = RuleEngine::configure(recs);
  const Rewrite* rw = find_rewrite(cfg, "hdf5-chunk");
  ASSERT_NE(rw, nullptr);
  ASSERT_EQ(rw->args.size(), 1u);
  EXPECT_GE(std::stoull(rw->args[0]), util::kMiB);
}

TEST(RuleEngine, PlacementRuleForMultiAppWorkflows) {
  RuleEngine engine;
  ASSERT_TRUE(has_rule(engine.evaluate(montage_like()),
                       "locality-placement"));
  auto cfg = RuleEngine::configure(engine.evaluate(montage_like()));
  EXPECT_NE(find_rewrite(cfg, "locality"), nullptr);
  EXPECT_FALSE(has_rule(engine.evaluate(cosmoflow_like()),
                        "locality-placement"));
}

TEST(RuleEngine, RationaleCitesAttributes) {
  RuleEngine engine;
  for (const auto& r : engine.evaluate(cosmoflow_like())) {
    EXPECT_FALSE(r.rationale.empty()) << r.id;
    EXPECT_NE(r.rationale.find('='), std::string::npos) << r.id;
  }
}

TEST(RuleEngine, ReportMentionsEveryRecommendation) {
  RuleEngine engine;
  auto recs = engine.evaluate(montage_like());
  const std::string report = RuleEngine::report(recs);
  for (const auto& r : recs) {
    EXPECT_NE(report.find(r.id), std::string::npos);
  }
  EXPECT_NE(RuleEngine::report({}).find("no workload-aware"),
            std::string::npos);
}

TEST(RuleEngine, ConfigureStartsFromGivenBase) {
  RunConfig base;
  base.rewrites = {{"preload", {"tmp"}}};
  base.faults = sim::FaultPlan::parse("seed=7; gpfs: eio=0.3");
  auto cfg = RuleEngine::configure({}, base);
  EXPECT_EQ(cfg.rewrites, base.rewrites);
  EXPECT_EQ(cfg.faults.to_spec(), base.faults.to_spec());
  // The recommendations' rewrites follow the base's own.
  cfg = RuleEngine::configure(RuleEngine().evaluate(montage_like()), base);
  ASSERT_GT(cfg.rewrites.size(), 1u);
  EXPECT_EQ(cfg.rewrites.front(), base.rewrites.front());
}

/// Recommendations that between them carry every rewrite a rule can emit:
/// a compressible CosmoFlow-like job (preload, hdf5-chunk, async-drain,
/// mpiio, compress) plus the Montage-like workflow (stdio-buffer,
/// intermediates, locality).
std::vector<Recommendation> every_rewrite_recs() {
  auto c = cosmoflow_like();
  c.high_level_io.data_distribution = "normal";
  c.job.gpus_per_node = 4;
  c.phases.emplace_back();  // one I/O phase: a periodic checkpointer
  RuleEngine engine;
  auto recs = engine.evaluate(c);
  for (auto& r : engine.evaluate(montage_like())) recs.push_back(r);
  return recs;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

// Shuffled recommendations configure the same rewrite list, in the table's
// canonical order, and so the same pattern. The order matters: the rules
// emit the drain before compression, and compressing after the drain moved
// the checkpoints would compress its PFS copy instead.
TEST(PatternRewrite, ConfigureOrderIsCanonical) {
  auto recs = every_rewrite_recs();
  const RunConfig want = RuleEngine::configure(recs);
  ASSERT_EQ(want.rewrites.size(), 8u) << to_flags(want.rewrites);
  EXPECT_TRUE(std::is_sorted(want.rewrites.begin(), want.rewrites.end(),
                             [](const Rewrite& a, const Rewrite& b) {
                               return rewrite_rank(a.name) <
                                      rewrite_rank(b.name);
                             }));
  std::vector<RunConfig> shuffled;
  std::mt19937 rng(7);
  for (int i = 0; i < 8; ++i) {
    std::shuffle(recs.begin(), recs.end(), rng);
    shuffled.push_back(RuleEngine::configure(recs));
    EXPECT_EQ(shuffled.back().rewrites, want.rewrites);
  }
  for (const auto& entry : workloads::paper_workloads()) {
    SCOPED_TRACE(entry.id);
    runtime::Simulation sim(cluster::lassen(4));
    const auto w = entry.make_test();
    const std::string yaml = pattern::to_yaml(w.compile(sim, want));
    for (const RunConfig& cfg : shuffled) {
      EXPECT_EQ(pattern::to_yaml(w.compile(sim, cfg)), yaml);
    }
  }
  // The order is load-bearing: drain-then-compress is a different pattern.
  runtime::Simulation sim(cluster::lassen(4));
  const auto hacc = workloads::paper_workloads()[static_cast<std::size_t>(
      workloads::find_workload("hacc-fpp"))];
  const Rewrite compress{"compress", {"0.5", "gpu"}};
  const Rewrite drain{"async-drain", {"shm"}};
  EXPECT_NE(pattern::to_yaml(hacc.make_test().compile(sim, {{compress, drain}, {}})),
            pattern::to_yaml(hacc.make_test().compile(sim, {{drain, compress}, {}})));
}

// Every rewrite the RuleEngine can emit parses back from its
// `wasp_pattern whatif` spelling to the same Rewrite, and the CLI applying
// those flags dumps exactly what Workload::compile produces.
TEST(PatternRewrite, CliSpellingRoundTrips) {
  const RunConfig cfg = RuleEngine::configure(every_rewrite_recs());
  const std::string flags = to_flags(cfg.rewrites);
  std::istringstream is(flags);
  std::vector<std::string> tokens{std::istream_iterator<std::string>(is), {}};
  std::vector<Rewrite> parsed;
  for (std::size_t i = 0; i < tokens.size();) {
    ASSERT_EQ(tokens[i].rfind("--", 0), 0u) << tokens[i];
    Rewrite rw{tokens[i++].substr(2), {}};
    const int arity = rewrite_arity(rw.name);
    ASSERT_GE(arity, 0) << rw.name;
    for (int a = 0; a < arity && i < tokens.size(); ++a) {
      rw.args.push_back(tokens[i++]);
    }
    EXPECT_NO_THROW(check_rewrite(rw)) << rw.name;
    parsed.push_back(std::move(rw));
  }
  EXPECT_EQ(parsed, cfg.rewrites);

  const std::string out = ::testing::TempDir() + "cli_spelling.pattern.yaml";
  for (const auto& entry : workloads::paper_workloads()) {
    SCOPED_TRACE(entry.id);
    std::remove(out.c_str());
    const std::string cmd = std::string(WASP_PATTERN_BIN) + " whatif " +
                            entry.id + " --test-scale --nodes 4 " + flags +
                            " --dump --out " + out + " 2>/dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    runtime::Simulation sim(cluster::lassen(4));
    EXPECT_EQ(read_file(out), pattern::to_yaml(entry.make_test().compile(sim, cfg)));
  }
}

TEST(PatternRewrite, RejectsUnknownNamesAndBadArguments) {
  EXPECT_NO_THROW(check_rewrite({"mpiio", {"16MB", "0"}}));
  EXPECT_NO_THROW(check_rewrite({"compress", {"1.12", "cpu"}}));
  EXPECT_EQ(rewrite_arity("frobnicate"), -1);
  for (const Rewrite& bad : std::vector<Rewrite>{
           {"frobnicate", {}},
           {"locality", {"yes"}},
           {"mpiio", {"16MB"}},
           {"stdio-buffer", {"big"}},
           {"mpiio", {"16MB", "-1"}},
           {"compress", {"0", "cpu"}},
           {"compress", {"nan", "gpu"}},
           {"compress", {"0.5", "tpu"}},
           {"interface", {"bogus"}},
           {"redirect", {"", "/dev/shm"}}}) {
    SCOPED_TRACE(bad.name);
    EXPECT_THROW(check_rewrite(bad), util::SimError);
  }
  // Tier names are checked when the rewrite resolves one.
  runtime::Simulation sim(cluster::lassen(4));
  const auto cosmo = workloads::paper_workloads()[static_cast<std::size_t>(
      workloads::find_workload("cosmoflow"))];
  EXPECT_THROW(cosmo.make_test().compile(sim, {{{"preload", {"nvme"}}}, {}}),
               util::SimError);
}

}  // namespace
}  // namespace wasp::advisor
