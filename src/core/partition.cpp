#include "core/partition.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace amped {

std::string to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kStaticGreedy: return "static-greedy";
    case SchedulingPolicy::kDynamicQueue: return "dynamic-queue";
    case SchedulingPolicy::kContiguous: return "contiguous";
    case SchedulingPolicy::kWeightedStatic: return "weighted-static";
    case SchedulingPolicy::kCostModel: return "cost-model";
    case SchedulingPolicy::kDynamicLookahead: return "dynamic-lookahead";
  }
  return "?";
}

SchedulingPolicy parse_policy(const std::string& name) {
  if (name == "static-greedy" || name == "greedy") {
    return SchedulingPolicy::kStaticGreedy;
  }
  if (name == "dynamic-queue" || name == "dynamic") {
    return SchedulingPolicy::kDynamicQueue;
  }
  if (name == "contiguous") return SchedulingPolicy::kContiguous;
  if (name == "weighted-static" || name == "weighted") {
    return SchedulingPolicy::kWeightedStatic;
  }
  if (name == "cost-model") return SchedulingPolicy::kCostModel;
  if (name == "dynamic-lookahead" || name == "lookahead") {
    return SchedulingPolicy::kDynamicLookahead;
  }
  throw std::invalid_argument(
      "unknown scheduling policy \"" + name +
      "\" (expected static-greedy, dynamic-queue, contiguous, "
      "weighted-static, cost-model, or dynamic-lookahead)");
}

RunStats count_runs(std::span<const index_t> sorted_indices) {
  RunStats stats;
  nnz_t run_len = 0;
  for (std::size_t n = 0; n < sorted_indices.size(); ++n) {
    if (n == 0 || sorted_indices[n] != sorted_indices[n - 1]) {
      stats.max_run = std::max(stats.max_run, run_len);
      ++stats.runs;
      run_len = 0;
    }
    ++run_len;
  }
  stats.max_run = std::max(stats.max_run, run_len);
  return stats;
}

nnz_t ModePartition::total_nnz() const {
  nnz_t total = 0;
  for (const auto& s : shards) total += s.nnz();
  return total;
}

nnz_t ModePartition::max_shard_nnz() const {
  nnz_t best = 0;
  for (const auto& s : shards) best = std::max(best, s.nnz());
  return best;
}

ModePartition build_mode_partition(const CooTensor& sorted, std::size_t mode,
                                   std::size_t num_shards) {
  assert(mode < sorted.num_modes());
  assert(num_shards >= 1);
  const index_t dim = sorted.dim(mode);
  // No more shards than indices: a shard narrower than one index is empty
  // by construction and just adds dispatch overhead.
  num_shards = std::min<std::size_t>(num_shards, dim);
  const auto idx = sorted.indices(mode);

  ModePartition part;
  part.mode = mode;
  part.shards.reserve(num_shards);

  const double width =
      static_cast<double>(dim) / static_cast<double>(num_shards);
  nnz_t cursor = 0;
  for (std::size_t j = 0; j < num_shards; ++j) {
    Shard s;
    s.index_begin = static_cast<index_t>(static_cast<double>(j) * width);
    s.index_end = (j + 1 == num_shards)
                      ? dim
                      : static_cast<index_t>(static_cast<double>(j + 1) * width);
    s.nnz_begin = cursor;
    while (cursor < idx.size() && idx[cursor] < s.index_end) ++cursor;
    s.nnz_end = cursor;
    s.run_stats = count_runs(idx.subspan(s.nnz_begin, s.nnz()));
    part.shards.push_back(s);
  }
  assert(cursor == idx.size() && "tensor not sorted by the given mode");
  return part;
}

std::vector<nnz_t> ShardAssignment::nnz_per_gpu(
    const ModePartition& partition) const {
  std::vector<nnz_t> out(per_gpu.size(), 0);
  for (std::size_t g = 0; g < per_gpu.size(); ++g) {
    for (std::size_t id : per_gpu[g]) out[g] += partition.shards[id].nnz();
  }
  return out;
}

ShardAssignment assign_shards(const ModePartition& partition, int num_gpus,
                              SchedulingPolicy policy) {
  assert(num_gpus >= 1);
  ShardAssignment out;
  out.per_gpu.resize(static_cast<std::size_t>(num_gpus));
  const std::size_t n = partition.shards.size();

  switch (policy) {
    case SchedulingPolicy::kContiguous: {
      const std::size_t per =
          (n + static_cast<std::size_t>(num_gpus) - 1) /
          static_cast<std::size_t>(num_gpus);
      for (std::size_t id = 0; id < n; ++id) {
        out.per_gpu[std::min<std::size_t>(id / per,
                                          out.per_gpu.size() - 1)]
            .push_back(id);
      }
      break;
    }
    case SchedulingPolicy::kDynamicQueue:
    case SchedulingPolicy::kDynamicLookahead: {
      // Dispatch order only; the MTTKRP executor re-assigns at runtime by
      // device clock. Round-robin is the queue's arrival order.
      for (std::size_t id = 0; id < n; ++id) {
        out.per_gpu[id % out.per_gpu.size()].push_back(id);
      }
      break;
    }
    case SchedulingPolicy::kWeightedStatic: {
      // Without device weights available here, equal weights reproduce
      // kStaticGreedy; the MTTKRP executor calls assign_shards_weighted
      // directly with real throughput weights for this policy.
      std::vector<double> weights(static_cast<std::size_t>(num_gpus), 1.0);
      return assign_shards_weighted(partition, weights);
    }
    case SchedulingPolicy::kCostModel:
      // The real lowering needs a Platform for per-device cost estimates
      // (exec::CostModelScheduler); without one, LPT on nonzero count is
      // its homogeneous reduction.
      [[fallthrough]];
    case SchedulingPolicy::kStaticGreedy: {
      // Longest-processing-time-first on nonzero count: classic greedy
      // makespan bound of 4/3 OPT, and in practice within a fraction of a
      // percent here because shards vastly outnumber GPUs.
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return partition.shards[a].nnz() >
                                partition.shards[b].nnz();
                       });
      using Load = std::pair<nnz_t, std::size_t>;  // (load, gpu)
      std::priority_queue<Load, std::vector<Load>, std::greater<>> heap;
      for (std::size_t g = 0; g < out.per_gpu.size(); ++g) heap.push({0, g});
      for (std::size_t id : order) {
        auto [load, g] = heap.top();
        heap.pop();
        out.per_gpu[g].push_back(id);
        heap.push({load + partition.shards[id].nnz(), g});
      }
      // Execute each GPU's shards in index order for stream friendliness.
      for (auto& list : out.per_gpu) std::sort(list.begin(), list.end());
      break;
    }
  }
  return out;
}

ShardAssignment assign_shards_weighted(const ModePartition& partition,
                                       std::span<const double> weights) {
  assert(!weights.empty());
  ShardAssignment out;
  out.per_gpu.resize(weights.size());
  const std::size_t n = partition.shards.size();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return partition.shards[a].nnz() >
                            partition.shards[b].nnz();
                   });
  // Min-heap on normalised load: load_g / weight_g.
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t g = 0; g < weights.size(); ++g) {
    assert(weights[g] > 0.0);
    heap.push({0.0, g});
  }
  for (std::size_t id : order) {
    auto [load, g] = heap.top();
    heap.pop();
    out.per_gpu[g].push_back(id);
    heap.push({load + static_cast<double>(partition.shards[id].nnz()) /
                          weights[g],
               g});
  }
  for (auto& list : out.per_gpu) std::sort(list.begin(), list.end());
  return out;
}

std::vector<std::pair<nnz_t, nnz_t>> split_isps(const Shard& shard,
                                                nnz_t isp_size) {
  assert(isp_size >= 1);
  std::vector<std::pair<nnz_t, nnz_t>> out;
  const nnz_t n = shard.nnz();
  out.reserve(static_cast<std::size_t>((n + isp_size - 1) / isp_size));
  for (nnz_t lo = 0; lo < n; lo += isp_size) {
    out.emplace_back(lo, std::min(n, lo + isp_size));
  }
  return out;
}

std::span<const IspRunStats> IspRunTable::find_or_scan(
    std::size_t shard_id, nnz_t isp_size,
    std::span<const index_t> shard_indices) {
  const std::pair<std::size_t, nnz_t> key{shard_id, isp_size};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  // Scan outside the lock so lanes filling different shards do not
  // serialise; a racing scan of the same key computes the same stats and
  // the first insert wins.
  assert(isp_size >= 1);
  std::vector<IspRunStats> isps;
  const nnz_t n = shard_indices.size();
  isps.reserve(static_cast<std::size_t>((n + isp_size - 1) / isp_size));
  for (nnz_t lo = 0; lo < n; lo += isp_size) {
    const nnz_t len = std::min(n - lo, isp_size);
    const RunStats rs = count_runs(shard_indices.subspan(lo, len));
    isps.push_back({len, rs.runs, rs.max_run});
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.try_emplace(key, std::move(isps)).first->second;
}

std::size_t IspRunTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace amped
