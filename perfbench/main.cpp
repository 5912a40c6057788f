// Benchmark driver entry point:
//   amped_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> --span-dir <dir>
// Prints progress and any failed checks first, and as its last stdout line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "amped_perfbench: %s\nusage: amped_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "--span-dir DIR\n",
               why);
  std::exit(2);
}

void print_result(const perfbench::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--span-dir") {
      config.span_dir = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || config.work_dir.empty() || config.span_dir.empty()) {
    usage("--workload, --work-dir and --span-dir are required");
  }

  try {
    const perfbench::Outcome out = perfbench::run_workload(config);
    for (const auto& f : out.failures) {
      std::printf("FAILED: %s\n", f.c_str());
    }
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amped_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
