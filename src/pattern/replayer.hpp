// Generic pattern replayer: drives a JobPattern through the existing io::
// interface layers (Posix/Stdio/MpiIo/Hdf5/CompressedPosix) and the
// workflow DAG engine. The order in which lanes issue ops is part of the
// contract: the committed golden rows (tests/pattern_golden.hpp) pin each
// workload's exact trace and engine event count, so a reordering shows up
// there.
#pragma once

#include "pattern/pattern.hpp"
#include "runtime/simulation.hpp"

namespace wasp::pattern {

/// Spawn every lane (and the DAG driver, when the pattern has one) of
/// `pat` into the simulation's engine. Mirrors a Workload::launch body:
/// the caller runs the engine afterwards. The pattern is copied; the
/// caller's object need not outlive the run.
void replay(runtime::Simulation& sim, const JobPattern& pat);

}  // namespace wasp::pattern
