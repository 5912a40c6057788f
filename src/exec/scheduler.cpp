#include "exec/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "core/ec_kernel.hpp"
#include "core/kernel_cache.hpp"
#include "sim/executor.hpp"

namespace amped::exec {

namespace {

// Nonzeros per ISP on a device with `sm_count` SMs: the explicit option,
// or the paper's t_{d,j} = |TS_{d,j}| / g (§3.2) floored at the
// threadblock width.
nnz_t resolve_isp_size(const MttkrpOptions& options, nnz_t shard_nnz,
                       int sm_count) {
  if (options.isp_size != 0) return options.isp_size;
  return std::max<nnz_t>(options.block_width,
                         (shard_nnz + sm_count - 1) /
                             static_cast<nnz_t>(sm_count));
}

// Kernel closure for one AMPED shard: runs the real EC arithmetic over
// the shard (through the view the lane's SpillFetch produced), then prices
// the grid on the executing device — which is only known at run time under
// dynamic dispatch, hence the ExecContext indirection. Pricing reads no
// elements: the grid's per-ISP run structure depends only on the sorted
// copy and the ISP size, so the copy's IspRunTable scans it once, from
// the view of the first kernel that runs the shard at that size (resident
// and spilled copies alike), and every later execution — ALS iteration,
// backend, any device with the same SM count — prices from the table.
KernelFn make_shard_kernel(const ModeLowerInput& in, std::size_t shard_id) {
  const AmpedTensor::ModeCopy* copy = &in.tensor.mode_copy(in.mode);
  const Shard* shard = &copy->partition.shards[shard_id];
  const MttkrpOptions* options = &in.options;
  const FactorSet* factors = &in.factors;
  DenseMatrix* out = &in.out;
  const sim::KernelProfile profile = in.profile;
  const std::size_t num_modes = in.tensor.num_modes();
  // The kernel shape is fixed at plan-lowering time — resolve the tile
  // program once here, so shard executions (and replays under dynamic
  // dispatch) skip even the kernel-cache lookup.
  const KernelShape shape = KernelShape::of(num_modes, in.factors.rank(),
                                            BlockOrder::kOutputSorted);
  const TileProgram* program = &KernelCache::global().find_or_create(shape);
  return [=](const ExecContext& ctx) -> double {
    const int sm_count = ctx.platform.gpu(ctx.gpu).spec().sm_count;
    const nnz_t isp_size = resolve_isp_size(*options, shard->nnz(), sm_count);
    // Element n of the sorted copy lives at view index n - base whether
    // the view is the resident copy itself or a stream buffer, so both
    // sources run the same arithmetic in the same order (bit-identical).
    const nnz_t shard_base = shard->nnz_begin - ctx.view->base;
    // Arithmetic once over the whole shard: the accumulation grouping is
    // then independent of which device the grid lands on, so a dynamic
    // assignment that diverges between backends (real wall clock vs
    // simulated clock picking different GPUs) still produces
    // memcmp-identical output. The executing device only *prices* the
    // grid — its sm_count shapes the ISP split below.
    run_ec_block(*program, *ctx.view->data, shard_base,
                 shard_base + static_cast<nnz_t>(shard->nnz()),
                 copy->partition.mode, *factors, *out);
    const auto isps = copy->isp_runs->find_or_scan(
        shard_id, isp_size,
        ctx.view->data->indices(copy->partition.mode)
            .subspan(shard_base, shard->nnz()));
    // The block stats of an output-sorted ISP, as RunStatsAccumulator
    // would finish them for this shape.
    const auto& cost = ctx.platform.cost_model(ctx.gpu);
    sim::EcBlockStats stats;
    stats.modes = shape.modes;
    stats.rank = shape.rank;
    stats.block_width = static_cast<std::size_t>(options->block_width);
    std::vector<double> block_seconds;
    block_seconds.reserve(isps.size());
    for (const IspRunStats& isp : isps) {
      stats.nnz = isp.nnz;
      stats.output_runs = isp.runs;
      stats.max_run = isp.max_run;
      stats.max_multiplicity = isp.max_run;
      block_seconds.push_back(cost.ec_block_seconds(stats, profile));
    }
    return ctx.platform.kernel_launch_seconds() +
           sim::grid_makespan(block_seconds, sm_count);
  };
}

// Shard source for one fetch order: a pass-through over the resident
// copy, or a double-buffered disk stream when the mode copy is spilled.
std::unique_ptr<io::ShardStreamer> make_streamer(
    const AmpedTensor::ModeCopy& copy, std::span<const std::size_t> ids) {
  if (!copy.spilled()) {
    return std::make_unique<io::ShardStreamer>(copy.tensor);
  }
  std::vector<std::pair<nnz_t, nnz_t>> ranges;
  ranges.reserve(ids.size());
  for (std::size_t id : ids) {
    const auto& shard = copy.partition.shards[id];
    ranges.emplace_back(shard.nnz_begin, shard.nnz_end);
  }
  return std::make_unique<io::ShardStreamer>(*copy.spill, std::move(ranges));
}

// Appends the fetch -> transfer -> grid task chain for one shard.
void append_shard_tasks(Plan& plan, const ModeLowerInput& in, int gpu,
                        std::size_t streamer, std::size_t stream_pos,
                        std::size_t shard_id, bool pipelined) {
  const auto& copy = in.tensor.mode_copy(in.mode);
  const Shard* shard = &copy.partition.shards[shard_id];
  const std::uint64_t payload =
      shard->nnz() * static_cast<std::uint64_t>(in.tensor.bytes_per_nnz());

  Task fetch;
  fetch.kind = TaskKind::kSpillFetch;
  fetch.gpu = gpu;
  fetch.streamer = streamer;
  fetch.stream_pos = stream_pos;
  plan.tasks.push_back(std::move(fetch));
  const std::size_t fetch_id = plan.tasks.size() - 1;

  Task h2d;
  h2d.kind = TaskKind::kH2D;
  h2d.gpu = gpu;
  h2d.transfer_bytes = payload;
  // The host backend stages exactly these elements out of the stream
  // view (a real copy); the simulator only prices transfer_bytes.
  h2d.payload_begin = shard->nnz_begin;
  h2d.payload_end = shard->nnz_end;
  // The sequential engine tracks the staging buffer on the device memory
  // meter; the pipelined engine (like the pre-engine loop) charges only
  // time, its two staging buffers being a constant.
  h2d.alloc_bytes = pipelined ? 0 : payload;
  h2d.deps = {fetch_id};
  plan.tasks.push_back(std::move(h2d));
  const std::size_t h2d_id = plan.tasks.size() - 1;

  Task kernel;
  kernel.kind = TaskKind::kKernel;
  kernel.gpu = gpu;
  kernel.kernel = make_shard_kernel(in, shard_id);
  kernel.free_bytes = pipelined ? 0 : payload;
  kernel.owned_rows = shard->index_count();
  kernel.labelled = true;
  kernel.mode = copy.partition.mode;
  kernel.index_begin = shard->index_begin;
  kernel.index_end = shard->index_end;
  kernel.deps = {h2d_id};
  plan.tasks.push_back(std::move(kernel));
}

void append_mode_epilogue(Plan& plan, const ModeLowerInput& in) {
  Task barrier;  // Algorithm 1 line 9: inter-GPU barrier
  barrier.kind = TaskKind::kBarrier;
  plan.tasks.push_back(std::move(barrier));

  Task gather;  // Algorithm 1 line 11: all-gather the updated factor rows
  gather.kind = TaskKind::kAllGather;
  gather.allgather = in.options.allgather;
  gather.row_bytes = in.factors.rank() * sizeof(value_t);
  gather.mode = in.mode;  // gather-edge reporting names its output mode
  plan.tasks.push_back(std::move(gather));
}

// Lowers a fixed shard -> GPU assignment: one lane per GPU, each with its
// own streamer (independent read-ahead when the copy is spilled).
// Every mode plan updates all rows of its output matrix: the scope that
// lets compose() prove disjointness across tensors (different outputs)
// or across row-partitioned work on one output.
RowScope mode_scope(const ModeLowerInput& in) {
  return RowScope{&in.out, 0, static_cast<index_t>(in.out.rows())};
}

Plan lower_static(const ModeLowerInput& in, const ShardAssignment& assignment,
                  bool pipelined, std::string name) {
  const auto& copy = in.tensor.mode_copy(in.mode);
  Plan plan;
  plan.scheduler = std::move(name);
  plan.mode = in.mode;
  plan.scopes = {mode_scope(in)};
  plan.pipelined = pipelined;
  // Shards of one mode own disjoint output rows, so lanes may run
  // concurrently on the host pool.
  plan.parallel_lanes = true;
  for (std::size_t g = 0; g < assignment.per_gpu.size(); ++g) {
    const auto& ids = assignment.per_gpu[g];
    if (ids.empty()) continue;
    plan.streamers.push_back(make_streamer(copy, ids));
    const std::size_t streamer = plan.streamers.size() - 1;
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      append_shard_tasks(plan, in, static_cast<int>(g), streamer, pos,
                         ids[pos], pipelined);
    }
  }
  append_mode_epilogue(plan, in);
  return plan;
}

// Inverse-throughput GPU weights for the weighted-static policy: the full
// per-nonzero cost of streaming an element over the (device-independent)
// host link plus executing it at the device's bandwidth. Weighting by
// device bandwidth alone overloads fast GPUs whenever H2D dominates.
std::vector<double> throughput_weights(const ModeLowerInput& in) {
  const int m = in.platform.num_gpus();
  const double bytes_per_elem =
      static_cast<double>(in.tensor.bytes_per_nnz());
  const double h2d_per_byte =
      (in.platform.h2d_seconds(1u << 30) - in.platform.h2d_seconds(0)) /
      static_cast<double>(1u << 30);
  std::vector<double> weights(static_cast<std::size_t>(m));
  for (int g = 0; g < m; ++g) {
    const auto& cm = in.platform.cost_model(g);
    const double ec_per_elem =
        cm.bytes_per_nnz(in.tensor.num_modes(), in.factors.rank(),
                         in.profile) /
        cm.spec().mem_bandwidth;
    weights[static_cast<std::size_t>(g)] =
        1.0 / (bytes_per_elem * h2d_per_byte + ec_per_elem);
  }
  return weights;
}

class StaticScheduler : public Scheduler {
 public:
  StaticScheduler(SchedulingPolicy policy, bool pipelined)
      : policy_(policy), pipelined_(pipelined) {}

  std::string name() const override {
    return to_string(policy_) + (pipelined_ ? "+pipelined" : "");
  }

  Plan lower(const ModeLowerInput& in) const override {
    return lower_static(in, assign(in), pipelined_, name());
  }

 protected:
  virtual ShardAssignment assign(const ModeLowerInput& in) const {
    return assign_shards(in.tensor.mode_copy(in.mode).partition,
                         in.platform.num_gpus(), policy_);
  }

 private:
  SchedulingPolicy policy_;
  bool pipelined_;
};

class WeightedStaticScheduler : public StaticScheduler {
 public:
  explicit WeightedStaticScheduler(bool pipelined)
      : StaticScheduler(SchedulingPolicy::kWeightedStatic, pipelined) {}

 protected:
  ShardAssignment assign(const ModeLowerInput& in) const override {
    return assign_shards_weighted(in.tensor.mode_copy(in.mode).partition,
                                  throughput_weights(in));
  }
};

// The new policy: LPT on per-shard, per-device *seconds* from the cost
// model. Unlike weighted-static (one scalar weight per GPU applied to
// nonzero counts), every (shard, GPU) pair is priced individually — the
// shard's run structure meets the device's roofline and ISP geometry, so
// heterogeneous SM counts and bandwidths balance at shard granularity.
class CostModelScheduler : public StaticScheduler {
 public:
  explicit CostModelScheduler(bool pipelined)
      : StaticScheduler(SchedulingPolicy::kCostModel, pipelined) {}

 protected:
  ShardAssignment assign(const ModeLowerInput& in) const override {
    const auto& partition = in.tensor.mode_copy(in.mode).partition;
    const std::size_t m =
        static_cast<std::size_t>(in.platform.num_gpus());
    const std::size_t n = partition.shards.size();

    // Price every shard on every device: the shard's run structure (from
    // the partition) under each device's roofline.
    // H2D legs use the fluid share for the lanes this assignment can
    // actually keep streaming at once — fewer shards than GPUs means
    // fewer concurrent streams than the static all-lanes share assumes.
    const int lanes = static_cast<int>(std::min(m, std::max<std::size_t>(n, 1)));
    std::vector<double> est(n * m);
    std::vector<double> worst(n, 0.0);  // slowest-device seconds per shard
    for (std::size_t id = 0; id < n; ++id) {
      for (std::size_t g = 0; g < m; ++g) {
        const double e = estimate_shard_seconds(
            in, partition.shards[id], static_cast<int>(g), lanes);
        est[id * m + g] = e;
        worst[id] = std::max(worst[id], e);
      }
    }

    // LPT on estimated seconds (slowest-device cost, the standard key
    // for unrelated machines): heaviest shard first, each to the GPU
    // that finishes it earliest (ties to the lowest GPU id).
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return worst[a] > worst[b];
                     });
    ShardAssignment out;
    out.per_gpu.resize(m);
    std::vector<double> load(m, 0.0);
    for (std::size_t id : order) {
      std::size_t best = 0;
      double best_finish = load[0] + est[id * m];
      for (std::size_t g = 1; g < m; ++g) {
        const double f = load[g] + est[id * m + g];
        if (f < best_finish) {
          best_finish = f;
          best = g;
        }
      }
      out.per_gpu[best].push_back(id);
      load[best] = best_finish;
    }
    // Execute each GPU's shards in index order for stream friendliness.
    for (auto& list : out.per_gpu) std::sort(list.begin(), list.end());
    return out;
  }
};

class DynamicQueueScheduler : public Scheduler {
 public:
  // lookahead = false is the paper's dynamic load balancing: one queue,
  // earliest-idle GPU, sequential streaming. lookahead = true keeps the
  // single queue but marks the plan pipelined, which the executor runs
  // with per-GPU copy engines: shard i+1's H2D streams while shard i's
  // grid computes (kDynamicLookahead).
  explicit DynamicQueueScheduler(bool lookahead = false)
      : lookahead_(lookahead) {}

  std::string name() const override {
    return to_string(lookahead_ ? SchedulingPolicy::kDynamicLookahead
                                : SchedulingPolicy::kDynamicQueue);
  }

  // Shards leave one queue in index order regardless of which GPU takes
  // them: every task carries kAnyGpu and one streamer spans the whole
  // dispatch order.
  Plan lower(const ModeLowerInput& in) const override {
    const auto& copy = in.tensor.mode_copy(in.mode);
    Plan plan;
    plan.scheduler = name();
    plan.mode = in.mode;
    plan.scopes = {mode_scope(in)};
    plan.pipelined = lookahead_;
    // Shards own disjoint output rows, whichever GPU takes them.
    plan.parallel_lanes = true;
    std::vector<std::size_t> all_ids(copy.partition.shards.size());
    std::iota(all_ids.begin(), all_ids.end(), std::size_t{0});
    plan.streamers.push_back(make_streamer(copy, all_ids));
    for (std::size_t s = 0; s < all_ids.size(); ++s) {
      append_shard_tasks(plan, in, kAnyGpu, 0, s, all_ids[s],
                         /*pipelined=*/lookahead_);
    }
    append_mode_epilogue(plan, in);
    return plan;
  }

 private:
  bool lookahead_;
};

}  // namespace

double estimate_shard_seconds(const ModeLowerInput& in, const Shard& shard,
                              int gpu, int streaming_lanes) {
  const auto& cost = in.platform.cost_model(gpu);
  const std::uint64_t payload =
      shard.nnz() * static_cast<std::uint64_t>(in.tensor.bytes_per_nnz());
  const double seconds =
      in.platform.h2d_seconds(payload, streaming_lanes) +
      in.platform.kernel_launch_seconds();
  if (shard.nnz() == 0) return seconds;

  const int sm_count = cost.spec().sm_count;
  const nnz_t isp_size = resolve_isp_size(in.options, shard.nnz(), sm_count);
  const nnz_t blocks = (shard.nnz() + isp_size - 1) / isp_size;
  sim::EcBlockStats stats;
  stats.nnz = (shard.nnz() + blocks - 1) / blocks;
  stats.output_runs = std::max<nnz_t>(1, shard.run_stats.runs / blocks);
  stats.max_run = std::min<nnz_t>(shard.run_stats.max_run, stats.nnz);
  stats.max_multiplicity = stats.max_run;  // output-sorted copy
  stats.modes = in.tensor.num_modes();
  stats.rank = in.factors.rank();
  stats.block_width = static_cast<std::size_t>(in.options.block_width);
  const double block_seconds = cost.ec_block_seconds(stats, in.profile);
  // List-scheduled equal blocks finish in ~max(1, blocks/SMs) block
  // times; the continuous ratio avoids charging a whole extra wave when
  // one partial block spills past the SM count.
  const double waves = std::max(
      1.0, static_cast<double>(blocks) / static_cast<double>(sm_count));
  return seconds + waves * block_seconds;
}

std::unique_ptr<Scheduler> make_scheduler(SchedulingPolicy policy,
                                          bool pipelined) {
  switch (policy) {
    case SchedulingPolicy::kDynamicQueue:
      return std::make_unique<DynamicQueueScheduler>();
    case SchedulingPolicy::kDynamicLookahead:
      return std::make_unique<DynamicQueueScheduler>(/*lookahead=*/true);
    case SchedulingPolicy::kWeightedStatic:
      return std::make_unique<WeightedStaticScheduler>(pipelined);
    case SchedulingPolicy::kCostModel:
      return std::make_unique<CostModelScheduler>(pipelined);
    case SchedulingPolicy::kStaticGreedy:
    case SchedulingPolicy::kContiguous:
      break;
  }
  return std::make_unique<StaticScheduler>(policy, pipelined);
}

std::unique_ptr<Scheduler> make_scheduler(const MttkrpOptions& options) {
  return make_scheduler(options.policy, options.pipelined_streaming);
}

}  // namespace amped::exec
