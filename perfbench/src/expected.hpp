// Recorded outputs at seed 0. Seed 0 replays the registry workloads'
// committed patterns unchanged, so these equal the values the stock
// pipeline (workloads::run / run_many with the registry launch) produces.
// job_s values carry 17 significant digits; digests are FNV-1a 64 of
// WorkloadCharacterization::to_yaml().
#pragma once

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

inline const std::map<std::string, Outcome>& expected_at_seed0() {
  static const std::map<std::string, Outcome> table = {
      {"cosmoflow-job",
       {{"engine_events", "3948576"},
        {"trace_rows", "1390738"},
        {"job_s", "3673.338800471"},
        {"charz_digest", "56e3c12b5c0deb9e"}}},
      {"montage-whatif",
       {{"trace_rows", "660896"},
        {"montage-mpi-32.engine_events", "47273"},
        {"montage-mpi-32.job_s", "254.07354120500003"},
        {"montage-mpi-32.charz_digest", "94f09621b128e333"},
        {"montage-mpi-32-opt.engine_events", "35553"},
        {"montage-mpi-32-opt.job_s", "229.05334694400003"},
        {"montage-mpi-32-opt.charz_digest", "655f2128f98861fa"},
        {"montage-mpi-32.io_ratio", "5.3224723259866868"},
        {"montage-mpi-64.engine_events", "74291"},
        {"montage-mpi-64.job_s", "183.51578999900002"},
        {"montage-mpi-64.charz_digest", "48a960c475ce4907"},
        {"montage-mpi-64-opt.engine_events", "53782"},
        {"montage-mpi-64-opt.job_s", "166.481813679"},
        {"montage-mpi-64-opt.charz_digest", "5346043b5f266f1a"},
        {"montage-mpi-64.io_ratio", "4.7859158200834289"},
        {"montage-mpi-128.engine_events", "128516"},
        {"montage-mpi-128.job_s", "150.81983845300002"},
        {"montage-mpi-128.charz_digest", "1357c5ed89147367"},
        {"montage-mpi-128-opt.engine_events", "89771"},
        {"montage-mpi-128-opt.job_s", "136.548194395"},
        {"montage-mpi-128-opt.charz_digest", "bcfce937649d8d4c"},
        {"montage-mpi-128.io_ratio", "4.106072685614838"},
        {"montage-mpi-256.engine_events", "216559"},
        {"montage-mpi-256.job_s", "134.10877593700002"},
        {"montage-mpi-256.charz_digest", "dfcdb123bfd74be5"},
        {"montage-mpi-256-opt.engine_events", "162401"},
        {"montage-mpi-256-opt.job_s", "119.80355358700001"},
        {"montage-mpi-256-opt.charz_digest", "6d0e769c68b663b0"},
        {"montage-mpi-256.io_ratio", "4.156578283264885"},
        {"montage-pegasus-32.engine_events", "318997"},
        {"montage-pegasus-32.job_s", "1128.7069935660002"},
        {"montage-pegasus-32.charz_digest", "b42fbfbfa8f1314d"},
        {"montage-pegasus-32-opt.engine_events", "293713"},
        {"montage-pegasus-32-opt.job_s", "1036.9714810420001"},
        {"montage-pegasus-32-opt.charz_digest", "bc7da90cb28631b3"},
        {"montage-pegasus-32.io_ratio", "6.5554719815971776"}}},
      {"trace-spill",
       {{"engine_events", "3948576"},
        {"trace_rows", "1390738"},
        {"job_s", "3673.338800471"},
        {"charz_digest", "56e3c12b5c0deb9e"}}},
  };
  return table;
}

}  // namespace perfbench
