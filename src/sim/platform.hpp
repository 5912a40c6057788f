// The simulated single-node multi-GPU platform (paper Fig. 3): one host
// CPU, M GPUs, per-GPU PCIe host links, and pairwise GPUDirect P2P links.
//
// Platform owns the simulated devices and provides the transfer/barrier
// vocabulary Algorithms 1 and 3 are written in. It also implements
// workload scaling: when benchmarks run a Table 3 profile at 1/scale of
// its real nonzero count, the platform divides device capacities and all
// fixed costs (link latencies, kernel-launch overheads) by the same
// factor, so memory-feasibility decisions and fixed-vs-streaming cost
// ratios match the full-scale system exactly (simulated times are then
// full-scale times divided by `scale`).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/device.hpp"
#include "sim/interconnect.hpp"
#include "sim/timeline.hpp"

namespace amped::sim {

struct PlatformConfig {
  int num_gpus = 4;
  DeviceSpec gpu = rtx6000_ada_spec();
  // Optional per-GPU overrides for heterogeneous nodes (the paper's §6
  // future-work platform: mixed accelerators in one box). Entry i, when
  // present, replaces `gpu` for device i; missing/short entries fall back
  // to `gpu`.
  std::vector<DeviceSpec> gpu_overrides;
  DeviceSpec host = epyc_host_spec();
  LinkSpec host_link = pcie_host_link();
  LinkSpec p2p_link = pcie_p2p_link();
  // Host links are physically per-GPU but share the host memory system:
  // when all M GPUs stream simultaneously (AMPED's shard loop), each
  // effectively gets min(link bandwidth, aggregate / M). This is the
  // sublinearity that keeps the paper's 4-GPU speedup at 3.3x, not 4x.
  double host_aggregate_bandwidth = 160e9;
  // Workload reduction factor of the tensors being run (see above).
  double workload_scale = 1.0;
};

class Platform {
 public:
  // Throws std::invalid_argument when num_gpus < 1 or workload_scale < 1.
  explicit Platform(PlatformConfig config);

  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  SimDevice& gpu(int i) { return gpus_[static_cast<std::size_t>(i)]; }
  const SimDevice& gpu(int i) const { return gpus_[static_cast<std::size_t>(i)]; }
  SimDevice& host() { return *host_; }
  const SimDevice& host() const { return *host_; }

  const PlatformConfig& config() const { return config_; }
  // Cost model of the default GPU spec; single-GPU baselines use this.
  const CostModel& gpu_cost_model() const { return gpu_costs_[0]; }
  // Per-device cost model (differs across GPUs on heterogeneous nodes).
  const CostModel& cost_model(int gpu) const {
    return gpu_costs_[static_cast<std::size_t>(gpu)];
  }
  const CostModel& host_cost_model() const { return host_cost_; }
  double fixed_cost_divisor() const { return config_.workload_scale; }

  // True when any GPU override differs from the default spec.
  bool heterogeneous() const { return heterogeneous_; }

  // Pure cost queries (no clock side effects).
  double h2d_seconds(std::uint64_t bytes) const;
  // Fluid-contention variant: seconds for one H2D while `streaming_lanes`
  // host links are concurrently active, at the processor-sharing rate
  // min(lane bandwidth, aggregate / lanes) — see sim/fluid_link.hpp.
  // streaming_lanes <= 0 (or >= num_gpus) reduces to the static all-lanes
  // share the zero-argument overload prices.
  double h2d_seconds(std::uint64_t bytes, int streaming_lanes) const;
  double d2h_seconds(std::uint64_t bytes) const;
  double p2p_seconds(std::uint64_t bytes) const;
  double kernel_launch_seconds() const;

  // Clock-advancing operations. Host links are per-GPU, so concurrent
  // transfers to different GPUs do not contend; a transfer only advances
  // the clock of the GPU it touches (the host DMA engines are free).
  void h2d(int gpu, std::uint64_t bytes);
  void d2h(int gpu, std::uint64_t bytes);
  // One ring hop: `from` sends `bytes` to `to`; both devices are busy for
  // the duration and the receiver cannot finish before the sender's data
  // exists, so both clocks end at max(start clocks) + transfer time.
  void p2p(int from, int to, std::uint64_t bytes);

  // Inter-GPU barrier: all GPU clocks jump to the max GPU clock, stalls
  // accounted as Phase::kSync.
  void barrier();

  // Max over GPU clocks (the paper's total execution time once the host
  // has no work in flight).
  double makespan() const;

  // Sum of per-phase times across GPUs + host.
  Timeline aggregate_timeline() const;

  // Zero all clocks, timelines, and allocations.
  void reset();

  // Attach/detach an event trace covering every device (nullptr detaches).
  void attach_trace(TraceLog* trace);
  // The attached trace, if any — the host backend records its wall-clock
  // events into the same log the simulated devices use.
  TraceLog* trace() const { return trace_; }

 private:
  PlatformConfig config_;
  std::vector<SimDevice> gpus_;
  std::unique_ptr<SimDevice> host_;
  std::vector<CostModel> gpu_costs_;  // one per GPU
  CostModel host_cost_;
  bool heterogeneous_ = false;
  TraceLog* trace_ = nullptr;
};

// A smaller workstation GPU for heterogeneous-node experiments: roughly an
// RTX A4000-class device (48 SMs, 16 GB, narrower GDDR6 bus).
DeviceSpec rtx_a4000_spec();

// Convenience: the paper's default 4-GPU evaluation platform (§5.1.5) for
// a workload scaled down by `workload_scale`.
Platform make_default_platform(int num_gpus = 4, double workload_scale = 1.0);

}  // namespace amped::sim
