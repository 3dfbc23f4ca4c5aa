#include "runtime/proc.hpp"

#include "util/error.hpp"

namespace wasp::runtime {

mpi::Comm& Proc::comm() {
  WASP_CHECK_MSG(comm_ != nullptr, "process has no communicator");
  return *comm_;
}

}  // namespace wasp::runtime
