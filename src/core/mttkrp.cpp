#include "core/mttkrp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "exec/plan.hpp"
#include "exec/scheduler.hpp"

namespace amped {

void MttkrpOptions::validate() const {
  if (block_width == 0) {
    throw std::invalid_argument("MttkrpOptions: block_width must be >= 1");
  }
}

sim::KernelProfile resolve_mttkrp_profile(const MttkrpOptions& options,
                                          const AmpedTensor& tensor,
                                          std::size_t output_mode,
                                          const sim::Platform& platform,
                                          std::size_t rank) {
  sim::KernelProfile p = options.profile;
  const std::size_t modes = tensor.num_modes();
  if (p.coord_bytes_per_nnz <= 0.0) {
    p.coord_bytes_per_nnz =
        static_cast<double>(modes * sizeof(index_t) + sizeof(value_t));
  }
  // Fold the full-scale cache efficiency of this output mode's factor
  // reads into the profile's locality multiplier.
  std::vector<std::uint64_t> full_dims = options.full_dims;
  if (full_dims.empty()) {
    full_dims.assign(tensor.dims().begin(), tensor.dims().end());
  }
  p.factor_read_efficiency = sim::factor_read_efficiency(
      full_dims, rank, output_mode,
      platform.config().gpu.l2_bytes, p.factor_read_efficiency);
  return p;
}

ModeBreakdown mttkrp_one_mode(sim::Platform& platform,
                              const AmpedTensor& tensor,
                              const FactorSet& factors, std::size_t mode,
                              DenseMatrix& out, const MttkrpOptions& options) {
  options.validate();
  const int m = platform.num_gpus();

  assert(out.rows() == tensor.dims()[mode] && out.cols() == factors.rank());
  out.set_zero();

  ModeBreakdown bd;
  bd.mode = mode;

  platform.barrier();
  const double t0 = platform.makespan();
  auto agg0 = platform.aggregate_timeline();

  // Every GPU mirrors the factor matrices in global memory (§4.4).
  const std::uint64_t factor_bytes = factors.total_bytes();
  for (int g = 0; g < m; ++g) platform.gpu(g).alloc(factor_bytes);

  // Lower this mode into a plan under the selected policy, then run it:
  // shard streaming, grid execution, the inter-GPU barrier, and the
  // all-gather are all tasks of the plan (exec/plan.hpp).
  const exec::ModeLowerInput input{
      platform, tensor, mode, factors, out, options,
      resolve_mttkrp_profile(options, tensor, mode, platform,
                             factors.rank())};
  exec::Plan plan = exec::make_scheduler(options)->lower(input);
  exec::PlanExecutor executor(platform, options.backend);
  const exec::ExecReport run = executor.run(plan);
  bd.per_gpu_compute = run.per_gpu_compute;
  // Per-edge gather accounting (a solo mode plan has at most one edge;
  // summing keeps the report correct if that ever changes).
  for (const auto& e : run.gather_edges) {
    bd.gather_bytes += e.bytes;
    if (bd.gather_finish <= 0.0) bd.gather_start = e.start;
    bd.gather_finish = std::max(bd.gather_finish, e.finish);
  }

  for (int g = 0; g < m; ++g) platform.gpu(g).free(factor_bytes);

  if (options.backend == exec::ExecBackend::kHostParallel) {
    // Measured wall clock of the real run; the same Fig. 7 categories,
    // read from the executor's task timings instead of the sim timeline.
    bd.seconds = run.wall_seconds;
    bd.h2d = run.wall_h2d + run.wall_spill_fetch;
    bd.compute = 0.0;
    for (double t : run.per_gpu_compute) bd.compute += t;
    bd.p2p = run.wall_allgather;
    bd.sync = run.wall_sync;
    for (double t : run.per_gpu_predicted_compute) {
      bd.predicted_compute += t;
    }
    bd.predicted_h2d = run.predicted_h2d;
    return bd;
  }

  bd.seconds = platform.makespan() - t0;
  auto agg1 = platform.aggregate_timeline();
  bd.h2d = agg1.total(sim::Phase::kHostToDevice) -
           agg0.total(sim::Phase::kHostToDevice);
  bd.compute =
      agg1.total(sim::Phase::kCompute) - agg0.total(sim::Phase::kCompute);
  bd.p2p = agg1.total(sim::Phase::kPeerToPeer) -
           agg0.total(sim::Phase::kPeerToPeer);
  bd.sync = agg1.total(sim::Phase::kSync) - agg0.total(sim::Phase::kSync);
  // The simulator's measurement IS the model's prediction.
  bd.predicted_compute = bd.compute;
  bd.predicted_h2d = bd.h2d;
  return bd;
}

double MttkrpReport::compute_overhead_fraction() const {
  double total = 0.0;
  for (double t : per_gpu_compute) total += t;
  if (total <= 0.0 || per_gpu_compute.size() < 2) return 0.0;
  const auto [mn, mx] =
      std::minmax_element(per_gpu_compute.begin(), per_gpu_compute.end());
  return (*mx - *mn) / total;
}

double MttkrpReport::communication_fraction() const {
  double comm = 0.0, all = 0.0;
  for (const auto& m : modes) {
    comm += m.h2d + m.p2p;
    all += m.h2d + m.p2p + m.compute + m.sync;
  }
  return all > 0.0 ? comm / all : 0.0;
}

MttkrpReport mttkrp_all_modes(sim::Platform& platform,
                              const AmpedTensor& tensor,
                              const FactorSet& factors,
                              std::vector<DenseMatrix>& outputs,
                              const MttkrpOptions& options) {
  options.validate();
  MttkrpReport report;
  // Sized from the platform, not from what modes report: a mode may
  // involve fewer GPUs than the platform has (idle devices on a
  // heterogeneous node under the cost-model scheduler), and the Fig. 8
  // aggregation must still cover every GPU.
  report.per_gpu_compute.assign(
      static_cast<std::size_t>(platform.num_gpus()), 0.0);
  outputs.clear();
  outputs.reserve(tensor.num_modes());

  platform.barrier();
  const double t0 = platform.makespan();
  double wall_total = 0.0;
  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    outputs.emplace_back(tensor.dims()[d], factors.rank());
    auto bd = mttkrp_one_mode(platform, tensor, factors, d, outputs.back(),
                              options);
    wall_total += bd.seconds;
    for (std::size_t g = 0; g < bd.per_gpu_compute.size(); ++g) {
      report.per_gpu_compute[g] += bd.per_gpu_compute[g];
    }
    report.modes.push_back(std::move(bd));
  }
  // Host-backend mode times are wall clock, invisible to the simulated
  // makespan — the sweep total is their sum instead.
  report.total_seconds = options.backend == exec::ExecBackend::kHostParallel
                             ? wall_total
                             : platform.makespan() - t0;
  return report;
}

}  // namespace amped
