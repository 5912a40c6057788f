#include "sim/platform.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace amped::sim {

namespace {
DeviceSpec scaled_spec(DeviceSpec spec, double scale) {
  // Fixed per-launch costs shrink with the workload (see PlatformConfig
  // docs); throughputs are physical rates and stay. Capacity also stays:
  // out-of-memory feasibility is decided analytically at full scale by
  // formats/memory_model.hpp, because scaled-down structures are not
  // byte-proportional (mode-size floors, block occupancy), so a scaled
  // capacity check would misfire.
  spec.kernel_launch_s /= scale;
  return spec;
}

PlatformConfig validated(PlatformConfig config) {
  if (config.num_gpus < 1) {
    throw std::invalid_argument("Platform: num_gpus must be >= 1 (got " +
                                std::to_string(config.num_gpus) + ")");
  }
  if (!(config.workload_scale >= 1.0)) {
    throw std::invalid_argument("Platform: workload_scale must be >= 1 (got " +
                                std::to_string(config.workload_scale) + ")");
  }
  return config;
}
}  // namespace

Platform::Platform(PlatformConfig config)
    : config_(validated(std::move(config))),
      host_cost_(scaled_spec(config_.host, config_.workload_scale)) {
  gpus_.reserve(static_cast<std::size_t>(config_.num_gpus));
  gpu_costs_.reserve(static_cast<std::size_t>(config_.num_gpus));
  for (int i = 0; i < config_.num_gpus; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const bool overridden = idx < config_.gpu_overrides.size();
    const DeviceSpec& base =
        overridden ? config_.gpu_overrides[idx] : config_.gpu;
    if (overridden) heterogeneous_ = true;
    gpu_costs_.emplace_back(scaled_spec(base, config_.workload_scale));
    gpus_.emplace_back(gpu_costs_.back().spec(), i);
  }
  host_ = std::make_unique<SimDevice>(host_cost_.spec(), -1);
}

DeviceSpec rtx_a4000_spec() {
  return DeviceSpec{
      .name = "RTXA4000",
      .sm_count = 48,
      .flops = 12e12,
      .mem_bandwidth = 170e9,  // 448 GB/s GDDR6 derated like the Ada spec
      .atomic_ns = 1.5,
      .kernel_launch_s = 8e-6,
      .mem_bytes = 16ull << 30,
      .l2_bytes = 4ull << 20,
  };
}

namespace {
LinkSpec contended_host_link(const PlatformConfig& cfg) {
  LinkSpec link = cfg.host_link;
  if (cfg.num_gpus > 1 && cfg.host_aggregate_bandwidth > 0.0) {
    link.bandwidth = std::min(
        link.bandwidth, cfg.host_aggregate_bandwidth / cfg.num_gpus);
  }
  return link;
}
}  // namespace

double Platform::h2d_seconds(std::uint64_t bytes) const {
  return transfer_seconds(contended_host_link(config_), bytes,
                          fixed_cost_divisor());
}

double Platform::h2d_seconds(std::uint64_t bytes,
                             int streaming_lanes) const {
  if (streaming_lanes <= 0) return h2d_seconds(bytes);
  LinkSpec link = config_.host_link;
  const int lanes = std::min(streaming_lanes, config_.num_gpus);
  if (lanes > 1 && config_.host_aggregate_bandwidth > 0.0) {
    link.bandwidth =
        std::min(link.bandwidth,
                 config_.host_aggregate_bandwidth / static_cast<double>(lanes));
  }
  return transfer_seconds(link, bytes, fixed_cost_divisor());
}

double Platform::d2h_seconds(std::uint64_t bytes) const {
  return transfer_seconds(contended_host_link(config_), bytes,
                          fixed_cost_divisor());
}

double Platform::p2p_seconds(std::uint64_t bytes) const {
  return transfer_seconds(config_.p2p_link, bytes, fixed_cost_divisor());
}

double Platform::kernel_launch_seconds() const {
  return gpu_costs_[0].spec().kernel_launch_s;
}

void Platform::h2d(int gpu_id, std::uint64_t bytes) {
  gpu(gpu_id).advance(Phase::kHostToDevice, h2d_seconds(bytes));
}

void Platform::d2h(int gpu_id, std::uint64_t bytes) {
  gpu(gpu_id).advance(Phase::kDeviceToHost, d2h_seconds(bytes));
}

void Platform::p2p(int from, int to, std::uint64_t bytes) {
  assert(from != to);
  const double start = std::max(gpu(from).clock(), gpu(to).clock());
  gpu(from).wait_until(start);
  gpu(to).wait_until(start);
  const double t = p2p_seconds(bytes);
  gpu(from).advance(Phase::kPeerToPeer, t);
  gpu(to).advance(Phase::kPeerToPeer, t);
}

void Platform::barrier() {
  double latest = 0.0;
  for (const auto& g : gpus_) latest = std::max(latest, g.clock());
  for (auto& g : gpus_) g.wait_until(latest);
}

double Platform::makespan() const {
  double latest = host_->clock();
  for (const auto& g : gpus_) latest = std::max(latest, g.clock());
  return latest;
}

Timeline Platform::aggregate_timeline() const {
  Timeline t;
  for (const auto& g : gpus_) t += g.timeline();
  t += host_->timeline();
  return t;
}

void Platform::reset() {
  for (auto& g : gpus_) g.reset();
  host_->reset();
}

void Platform::attach_trace(TraceLog* trace) {
  trace_ = trace;
  for (auto& g : gpus_) g.set_trace(trace);
  host_->set_trace(trace);
}

Platform make_default_platform(int num_gpus, double workload_scale) {
  PlatformConfig cfg;
  cfg.num_gpus = num_gpus;
  cfg.workload_scale = workload_scale;
  return Platform(cfg);
}

}  // namespace amped::sim
