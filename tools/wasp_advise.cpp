// wasp_advise — the storage system's side of the paper's vision: load a
// user-provided characterization YAML (from wasp_run or any other source)
// and print the configuration the storage system would set for itself:
// the recommendations, then their rewrites as ready-to-paste
// `wasp_pattern whatif` flags.
//
//   wasp_advise <features.yaml>
#include <iostream>

#include "advisor/rules.hpp"
#include "cli_contract.hpp"
#include "core/yaml_loader.hpp"

using namespace wasp;

namespace {

int run_main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: wasp_advise <features.yaml>\n";
    return 2;
  }
  const auto c = charz::load_yaml_file(argv[1]);
  std::cout << "workload: " << c.workload << "  (" << c.workflow.num_apps
            << " apps, " << util::format_bytes(c.workflow.io_amount)
            << " I/O, " << c.job.nodes << " nodes)\n\n";

  advisor::RuleEngine rules;
  const auto recs = rules.evaluate(c);
  std::cout << advisor::RuleEngine::report(recs);

  const auto cfg = advisor::RuleEngine::configure(recs);
  std::cout << "\nresulting rewrites (wasp_pattern whatif <workload> flags):\n"
            << "  "
            << (cfg.rewrites.empty() ? "(none)"
                                     : advisor::to_flags(cfg.rewrites))
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return toolcli::guarded_main("wasp_advise",
                               [&] { return run_main(argc, argv); });
}
