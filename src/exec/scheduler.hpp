// Pluggable schedulers: policy objects that lower one AmpedTensor mode
// into an executable Plan.
//
// A scheduler owns exactly the decision the paper studies — which shard
// runs where, in what order, under which streaming discipline — and
// nothing else: task construction, streaming, arithmetic, and clock
// accounting are shared (exec/plan.hpp). The four pre-engine policies
// (static-greedy, contiguous, weighted-static, dynamic-queue — each
// static one optionally pipelined) are reimplemented here with
// bit-identical outputs and simulated times, plus one new policy the
// loop-based executor could not express cleanly: kCostModel, which
// prices every shard on every device with sim/cost_model and balances
// *seconds*, not nonzeros, across heterogeneous GPUs
// (sim::PlatformConfig::gpu_overrides).
//
// Adding a policy = subclassing Scheduler (~50 lines), not writing a new
// execution loop.
#pragma once

#include <memory>
#include <string>

#include "core/mttkrp.hpp"
#include "exec/plan.hpp"

namespace amped::exec {

// Everything a scheduler may consult when lowering one output mode.
// `platform` is const: schedulers predict costs, only the executor
// advances clocks. `out` and `factors` are captured by the kernel
// closures and must outlive the plan's execution.
struct ModeLowerInput {
  const sim::Platform& platform;
  const AmpedTensor& tensor;
  std::size_t mode;
  const FactorSet& factors;
  DenseMatrix& out;
  const MttkrpOptions& options;
  sim::KernelProfile profile;  // resolved via resolve_mttkrp_profile
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  virtual Plan lower(const ModeLowerInput& in) const = 0;
};

// Scheduler for `options.policy` honouring `options.pipelined_streaming`
// (which applies to the static policies; plain dynamic dispatch stays
// sequential as before — kDynamicLookahead is the dynamic policy that
// overlaps the next shard's H2D with the current grid).
std::unique_ptr<Scheduler> make_scheduler(const MttkrpOptions& options);
std::unique_ptr<Scheduler> make_scheduler(SchedulingPolicy policy,
                                          bool pipelined);

// The cost-model scheduler's per-shard estimate of simulated seconds on
// one GPU (H2D + grid under that device's roofline). Run structure comes
// from the shard itself (Shard::run_stats, counted when the partition was
// cut), so resident and spilled copies price alike. Exposed for tests.
//
// `streaming_lanes` prices the H2D leg: -1 (default) keeps the legacy
// static all-lanes share; a positive count prices the transfer at the
// fluid processor-sharing rate for that many concurrently streaming
// lanes (sim/fluid_link.hpp). The cost-model scheduler passes the number
// of lanes it will actually keep busy, so sparse assignments are no
// longer over-charged for contention that never happens.
double estimate_shard_seconds(const ModeLowerInput& in, const Shard& shard,
                              int gpu, int streaming_lanes = -1);

}  // namespace amped::exec
