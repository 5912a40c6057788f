// AMPED's tensor partitioning scheme (paper §3).
//
// For each output mode d, the output index space I_d is cut into
// equal-width contiguous index partitions; all nonzeros whose output-mode
// index falls in partition j form tensor shard TS_{d,j} (§3.1.1). Because
// shards own disjoint output indices, no two GPUs ever update the same
// output factor row — the task-independence property that removes
// inter-GPU coherence (§3.1.1). Each shard is then split into equal-size
// inter-shard partitions (ISPs), one per threadblock (§3.1.2).
//
// Shard-to-GPU distribution is the load-balancing half of the
// contribution: many more shards than GPUs are created and distributed
// either by a static greedy (LPT on nonzero count, §2.2's "static load
// balancing scheme") or by dynamic dispatch to the earliest-idle GPU
// (abstract's "dynamic load balancing scheme"); a naive contiguous
// assignment is kept for the ablation study.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tensor/coo_tensor.hpp"

namespace amped {

enum class SchedulingPolicy {
  kStaticGreedy,    // LPT: heaviest shard to least-loaded GPU (default)
  kDynamicQueue,    // next shard to the earliest-idle GPU at runtime
  kContiguous,      // equal count of consecutive shards per GPU (ablation)
  kWeightedStatic,  // LPT on nnz / device-throughput weight: the static
                    // scheme for heterogeneous nodes (paper §6 future work)
  kCostModel,       // LPT on per-shard, per-device simulated seconds from
                    // sim/cost_model — balances heterogeneous GPUs at
                    // shard granularity (exec::CostModelScheduler)
  kDynamicLookahead,  // dynamic dispatch with a per-GPU copy engine: the
                      // next shard's H2D streams while the current grid
                      // computes (closes the dynamic-vs-pipelined gap)
};

std::string to_string(SchedulingPolicy policy);
// Parses the names produced by to_string (plus the short aliases
// "greedy", "dynamic", "weighted"); throws std::invalid_argument listing
// the accepted names on a typo.
SchedulingPolicy parse_policy(const std::string& name);

// Output-index run structure of a range of an output-sorted copy: how
// many runs of equal output index it holds and the longest one. The
// device-independent input to the cost model's EC pricing.
struct RunStats {
  nnz_t runs = 0;
  nnz_t max_run = 0;
};

// One scan of `sorted_indices` (output-mode indices, grouped by value).
RunStats count_runs(std::span<const index_t> sorted_indices);

struct Shard {
  index_t index_begin = 0;  // output-mode index range [begin, end)
  index_t index_end = 0;
  nnz_t nnz_begin = 0;      // nonzero range [begin, end) in the sorted copy
  nnz_t nnz_end = 0;
  // Run structure of the whole shard, counted while the partition is cut
  // (so both storages price from it without rescanning the copy).
  RunStats run_stats = {};

  nnz_t nnz() const { return nnz_end - nnz_begin; }
  index_t index_count() const { return index_end - index_begin; }
};

// Shard directory for one output mode. Built from a tensor copy that is
// already sorted by `mode` (most significant key).
struct ModePartition {
  std::size_t mode = 0;
  std::vector<Shard> shards;

  nnz_t total_nnz() const;
  nnz_t max_shard_nnz() const;
};

// Cuts mode-`mode` of `sorted` (which must be sorted by that mode) into
// `num_shards` shards of equal index width. Shards may be empty; they are
// kept so shard j's index range is always computable from j.
ModePartition build_mode_partition(const CooTensor& sorted, std::size_t mode,
                                   std::size_t num_shards);

// Assigns shards to `num_gpus` GPUs. For kStaticGreedy/kContiguous the
// result is the final execution order per GPU; for kDynamicQueue this
// returns the dispatch order (a single queue) encoded as round-robin
// placeholder — the executor re-dispatches at runtime using device clocks.
struct ShardAssignment {
  // assignment[g] = shard ids executed by GPU g, in execution order.
  std::vector<std::vector<std::size_t>> per_gpu;

  // Nonzeros per GPU under this assignment.
  std::vector<nnz_t> nnz_per_gpu(const ModePartition& partition) const;
};

ShardAssignment assign_shards(const ModePartition& partition, int num_gpus,
                              SchedulingPolicy policy);

// Heterogeneous variant: greedy LPT minimising max(load_g / weight_g),
// where weight_g is proportional to GPU g's sustained throughput. With
// equal weights this reduces to kStaticGreedy.
ShardAssignment assign_shards_weighted(const ModePartition& partition,
                                       std::span<const double> weights);

// Splits [0, shard.nnz()) into equal-size ISP ranges of `isp_size`
// nonzeros (last one may be short). Offsets are relative to
// shard.nnz_begin.
std::vector<std::pair<nnz_t, nnz_t>> split_isps(const Shard& shard,
                                                nnz_t isp_size);

// Per-ISP run structure of one output-sorted shard split at one ISP size
// (§3.1.2): the nonzeros, output runs and longest run of each ISP, which
// with the kernel geometry and the device roofline give that ISP's
// threadblock seconds.
struct IspRunStats {
  nnz_t nnz = 0;
  nnz_t runs = 0;
  nnz_t max_run = 0;
};

// Memo of IspRunStats per (shard, ISP size) for one sorted mode copy. The
// stats depend only on the copy's indices and the ISP size, so they are
// scanned once, by the first kernel that runs the shard at that size, and
// read by every later execution on any device with the same SM count.
// Thread-safe: concurrent lanes may fill and read it. Entries are never
// changed once inserted, so a returned span stays valid and readable
// without the lock for the table's lifetime.
class IspRunTable {
 public:
  // The per-ISP stats of shard `shard_id` split into ISPs of `isp_size`
  // nonzeros; on a miss they are scanned from `shard_indices` (the
  // shard's output-mode indices, all of them, in copy order).
  std::span<const IspRunStats> find_or_scan(
      std::size_t shard_id, nnz_t isp_size,
      std::span<const index_t> shard_indices);

  // Number of (shard, ISP size) entries filled so far.
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::size_t, nnz_t>, std::vector<IspRunStats>> entries_;
};

}  // namespace amped
