// AMPED's multi-GPU MTTKRP (paper §4, Algorithms 1 and 2).
//
// Per output mode d: shards of the mode-d tensor copy stream from host
// memory to their assigned GPUs, each shard executes as one grid whose
// threadblocks are the shard's inter-shard partitions, GPUs synchronise at
// an inter-GPU barrier, and the updated output factor rows are exchanged
// with a ring all-gather before the next mode. The arithmetic really runs
// (outputs are verified against the sequential reference); simulated time
// accrues on the Platform per the cost model.
#pragma once

#include <cstddef>
#include <vector>

#include "core/allgather.hpp"
#include "core/amped_tensor.hpp"
#include "core/partition.hpp"
#include "exec/backend.hpp"
#include "sim/platform.hpp"
#include "tensor/dense_matrix.hpp"

namespace amped {

struct MttkrpOptions {
  nnz_t block_width = 32;  // P = theta = 32 (§5.1.5)
  // Nonzeros per inter-shard partition; 0 = auto (one ISP per SM per shard,
  // the paper's t_{d,j} = |TS_{d,j}| / g).
  nnz_t isp_size = 0;
  SchedulingPolicy policy = SchedulingPolicy::kStaticGreedy;
  AllGatherAlgo allgather = AllGatherAlgo::kRing;
  // Overlap each shard's H2D transfer with the previous shard's grid
  // (double-buffered copy engine). The paper streams and computes
  // sequentially (its Fig. 7 communication and compute are additive);
  // this switch quantifies what pipelining would buy (ablation A6).
  // Applies to the static policies; dynamic dispatch stays sequential.
  bool pipelined_streaming = false;
  // Which machine runs the lowered plans: the clock-charging simulator
  // (default; every timing below is modelled) or the real host-parallel
  // backend (exec/host_backend.hpp; timings are measured wall clock).
  // Factor outputs are bit-identical either way.
  exec::ExecBackend backend = exec::ExecBackend::kSimulated;
  // Batched drivers only (mttkrp_batch / cpd_batch): lower each workload
  // as a *chain* of canonical mode plans and merge them with
  // exec::compose_graph — all-gathers become dependency edges, so tensor
  // A's mode d+1 starts the moment A's own gather lands instead of
  // waiting for every lane of every tensor to drain. Requires a static
  // policy (contiguous/static-greedy/weighted-static, non-pipelined);
  // the drivers fall back to per-mode composition otherwise.
  bool graph_schedule = false;
  // Full-scale mode sizes for the cache model (empty = use the tensor's
  // own dims). Benchmarks running scaled-down Table 3 profiles pass the
  // profile's real dims so factor-matrix cacheability is decided at full
  // scale.
  std::vector<std::uint64_t> full_dims;
  // Kernel profile of the AMPED shard kernel. The factor_read_efficiency
  // field acts as a locality multiplier; the per-mode cache efficiency is
  // folded in per output mode from full_dims. Output writes are amortised
  // over sorted runs by the cost model (shards are output-sorted).
  sim::KernelProfile profile{
      .coord_bytes_per_nnz = 0.0,  // 0 = derive from modes (COO layout)
      .factor_read_efficiency = 1.0,
      .output_write_efficiency = 1.0,
      .flop_overhead = 1.0,
      .atomic_scale = 1.0,
  };

  // Throws std::invalid_argument for options no kernel can run:
  // block_width 0 gives the threadblock no threads, so every simulated
  // time would come out non-finite. Every public MTTKRP/CPD entry point
  // calls it before doing any work.
  void validate() const;
};

// Per-mode timing decomposition (paper Fig. 7 categories).
struct ModeBreakdown {
  std::size_t mode = 0;
  double seconds = 0.0;    // makespan growth of this mode
  double h2d = 0.0;        // per-GPU-summed H2D seconds
  double compute = 0.0;    // per-GPU-summed EC seconds
  double p2p = 0.0;        // per-GPU-summed all-gather seconds
  double sync = 0.0;       // per-GPU-summed barrier stalls
  std::vector<double> per_gpu_compute;  // EC seconds by GPU (Fig. 8)
  // Cost-model prices of the same work. Under the simulator these equal
  // compute/h2d (modelled time IS the measurement); under the host
  // backend they are the model's prediction for the kernels and staged
  // transfers the run actually executed, making every mode a directly
  // comparable (measured, predicted) pair for --report-json.
  double predicted_compute = 0.0;
  double predicted_h2d = 0.0;
  // Per-edge all-gather accounting (ExecReport::gather_edges): the bytes
  // this mode's gather actually moved and when it ran, plan-relative.
  // Previously only the p2p seconds aggregate was visible, so a batched
  // run could not attribute gather cost to an iteration/mode.
  std::uint64_t gather_bytes = 0;
  double gather_start = 0.0;   // seconds after the plan started
  double gather_finish = 0.0;  // 0/0 when the mode had no gather edge
};

struct MttkrpReport {
  double total_seconds = 0.0;  // the paper's metric: all modes, one sweep
  std::vector<ModeBreakdown> modes;
  std::vector<double> per_gpu_compute;  // summed across modes (Fig. 8)

  // Fig. 8 metric: (max - min) EC time across GPUs over total EC time.
  double compute_overhead_fraction() const;
  // Fractions of summed GPU time per category (Fig. 7).
  double communication_fraction() const;
};

// Resolves the effective kernel profile for one output mode: derives COO
// coordinate bytes from the mode count and folds the full-scale cache
// efficiency of this mode's factor reads into the locality multiplier.
// Shared by the execution engine, its schedulers, and the frozen
// reference loop so they always price the same kernel.
sim::KernelProfile resolve_mttkrp_profile(const MttkrpOptions& options,
                                          const AmpedTensor& tensor,
                                          std::size_t output_mode,
                                          const sim::Platform& platform,
                                          std::size_t rank);

// Computes MTTKRP for a single output mode into `out` (must be
// dim(mode) x R, zeroed by the callee). Returns the mode's breakdown.
ModeBreakdown mttkrp_one_mode(sim::Platform& platform,
                              const AmpedTensor& tensor,
                              const FactorSet& factors, std::size_t mode,
                              DenseMatrix& out, const MttkrpOptions& options);

// Computes MTTKRP along all modes with constant factor inputs (§5.1.6's
// "total execution time"); outputs[d] receives mode d's result.
MttkrpReport mttkrp_all_modes(sim::Platform& platform,
                              const AmpedTensor& tensor,
                              const FactorSet& factors,
                              std::vector<DenseMatrix>& outputs,
                              const MttkrpOptions& options);

}  // namespace amped
