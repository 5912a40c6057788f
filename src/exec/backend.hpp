// Which machine a Plan runs on.
//
// Every plan in the repo can execute two ways: charged to the simulated
// multi-GPU platform's clocks (kSimulated — every number the paper
// reproduction reports), or for real on the host (kHostParallel —
// exec/host_backend.hpp), where each GPU's engines become threads and
// per-task wall-clock time is measured instead of modelled. Outputs are
// bit-identical either way (asserted in tests/host_backend_test.cpp);
// only the timing columns of the reports differ in meaning.
#pragma once

#include <string>

namespace amped::exec {

enum class ExecBackend {
  kSimulated,     // charge the sim::Platform clocks (default)
  kHostParallel,  // run lanes on host threads, measure wall clock
};

std::string to_string(ExecBackend backend);

// Parses "sim" / "host" (the --backend spellings); throws
// std::invalid_argument listing the valid names on anything else.
ExecBackend parse_backend(const std::string& name);

}  // namespace amped::exec
