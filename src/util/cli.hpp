// Minimal command-line flag parser for the example binaries.
//
// Supports `--key=value`, `--key value`, and bare boolean `--flag` forms.
// Unknown flags are collected so callers can warn about typos. This is
// deliberately tiny; examples only need a handful of numeric/string knobs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace amped {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

struct MttkrpOptions;

// Applies the flags every binary understands: `--threads N` overrides the
// host thread pool size (same effect as the AMPED_THREADS environment
// variable), `--memory-budget SIZE` caps tracked host allocations
// (same as AMPED_MEMORY_BUDGET; "512M"/"2G" suffixes accepted, 0 =
// unlimited), `--log-level LEVEL` sets the stderr log threshold
// (error|warn|info|debug, same as AMPED_LOG_LEVEL), and `--faults SPEC`
// arms fault-injection sites (same grammar as AMPED_FAULTS, e.g.
// "spill.write:nth=1:times=2:transient" — see util/fault.hpp). Flags win
// when both a flag and its variable are given.
void apply_common_flags(const CliArgs& args);

// Same, plus the execution-engine knobs written into `*mttkrp`:
// `--policy NAME` (static-greedy, dynamic-queue, contiguous,
// weighted-static, cost-model, dynamic-lookahead — see parse_policy),
// `--allgather NAME` (ring, direct, host-staged), `--backend NAME`
// (sim = the clock-charging simulator, host = real host-parallel
// execution with measured wall times) and `--pipelined`
// (double-buffered shard streaming). A typo exits with a usage error
// listing the valid names.
void apply_common_flags(const CliArgs& args, MttkrpOptions* mttkrp);

// Reads `--gpus N` (default 4). A count below 1 is a usage
// error: prints the message and `usage` to stderr and exits 2, instead of
// running on a degenerate platform.
int gpu_count_flag(const CliArgs& args, const char* usage);

}  // namespace amped
