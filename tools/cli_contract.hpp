// The tools' shared error contract: exit 2 for a usage error (each tool's
// own flag checks), 1 for a diagnosed input or runtime error, and never an
// abort. A tool's main() hands its body to guarded_main(), which turns any
// escaping exception — a WASP_CHECK failure on a corrupt trace log, spill
// chunk or YAML file included — into one "<tool>: <diagnostic>" line on
// stderr and exit code 1.
#pragma once

#include <exception>
#include <iostream>

namespace wasp::toolcli {

template <typename Body>
int guarded_main(const char* tool, Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace wasp::toolcli
