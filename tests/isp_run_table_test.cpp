// The per-copy ISP run table (core/partition.hpp IspRunTable) that shard
// kernels price from: the first execution of a (shard, ISP size) scans
// the run structure, every later one reads it back. These tests pin that
// warm prices equal cold ones and equal a full per-ISP rescan — across
// repeated sweeps, devices with different SM counts under dynamic
// dispatch, resident vs spilled storage — and that lanes filling the
// table concurrently (a batch over one tensor twice) stay exact. Runs in
// the TSan lane (`threads` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/ec_kernel.hpp"
#include "core/mttkrp.hpp"
#include "exec/plan.hpp"
#include "exec/reference_loop.hpp"
#include "exec/scheduler.hpp"
#include "io/shard_stream.hpp"
#include "sim/executor.hpp"
#include "tensor/generator.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

// Real concurrency even on single-core runners, so table fills from
// several lane threads actually interleave.
class HostParallelismEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_host_parallelism(4); }
  void TearDown() override { set_host_parallelism(0); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new HostParallelismEnv);

CooTensor make_tensor(std::uint64_t seed, nnz_t nnz = 30000) {
  GeneratorOptions opt;
  opt.dims = {512, 256, 256};
  opt.nnz = nnz;
  opt.zipf_exponents = {0.8, 0.5, 0.5};
  opt.seed = seed;
  return generate_random(opt);
}

// Two device classes with different SM counts, so the auto ISP size (and
// with it the table key) differs per GPU.
sim::Platform hetero_platform() {
  sim::PlatformConfig cfg;
  cfg.num_gpus = 4;
  cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                       sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
  return sim::Platform(cfg);
}

void expect_bit_identical(const DenseMatrix& a, const DenseMatrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.bytes()), 0)
      << what << ": outputs differ bitwise";
}

void expect_same_sweep(const MttkrpReport& a, const MttkrpReport& b,
                       const std::string& what) {
  EXPECT_EQ(a.total_seconds, b.total_seconds) << what;
  ASSERT_EQ(a.modes.size(), b.modes.size()) << what;
  for (std::size_t d = 0; d < a.modes.size(); ++d) {
    EXPECT_EQ(a.modes[d].seconds, b.modes[d].seconds) << what << " mode " << d;
    EXPECT_EQ(a.modes[d].compute, b.modes[d].compute) << what << " mode " << d;
    EXPECT_EQ(a.modes[d].per_gpu_compute, b.modes[d].per_gpu_compute)
        << what << " mode " << d;
  }
}

// The grid price of one resident shard the way kernels computed it
// before the table: a RunStatsAccumulator over every ISP, then the
// roofline and the FIFO grid makespan.
double rescan_price(const sim::Platform& platform, int gpu,
                    const AmpedTensor& tensor, std::size_t mode,
                    std::size_t shard_id, const MttkrpOptions& options,
                    std::size_t rank) {
  const auto& copy = tensor.mode_copy(mode);
  const Shard& shard = copy.partition.shards[shard_id];
  const int sm_count = platform.gpu(gpu).spec().sm_count;
  const nnz_t isp_size = std::max<nnz_t>(
      options.block_width,
      (shard.nnz() + sm_count - 1) / static_cast<nnz_t>(sm_count));
  const auto profile =
      resolve_mttkrp_profile(options, tensor, mode, platform, rank);
  const auto idx = copy.tensor.indices(mode);
  std::vector<double> block_seconds;
  for (auto [lo, hi] : split_isps(shard, isp_size)) {
    RunStatsAccumulator acc(BlockOrder::kOutputSorted);
    for (nnz_t n = shard.nnz_begin + lo; n < shard.nnz_begin + hi; ++n) {
      acc.feed(idx[n]);
    }
    block_seconds.push_back(platform.cost_model(gpu).ec_block_seconds(
        acc.finish(tensor.num_modes(), rank,
                   static_cast<std::size_t>(options.block_width)),
        profile));
  }
  return platform.kernel_launch_seconds() +
         sim::grid_makespan(block_seconds, sm_count);
}

TEST(IspRunTableTest, ScansOncePerKeyAndMatchesRunCounts) {
  const auto input = make_tensor(11);
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  const auto& copy = tensor.mode_copy(0);
  const auto idx = copy.tensor.indices(0);
  for (std::size_t s = 0; s < copy.partition.shards.size(); ++s) {
    const Shard& shard = copy.partition.shards[s];
    const auto slice = idx.subspan(shard.nnz_begin, shard.nnz());
    // The partition's shard-level stats are the same count over the slice.
    const RunStats whole = count_runs(slice);
    EXPECT_EQ(shard.run_stats.runs, whole.runs) << "shard " << s;
    EXPECT_EQ(shard.run_stats.max_run, whole.max_run) << "shard " << s;
    for (nnz_t isp_size : {nnz_t{32}, nnz_t{100}}) {
      const auto first = copy.isp_runs->find_or_scan(s, isp_size, slice);
      const auto again = copy.isp_runs->find_or_scan(s, isp_size, slice);
      EXPECT_EQ(first.data(), again.data()) << "warm lookup rescanned";
      const auto isps = split_isps(shard, isp_size);
      ASSERT_EQ(first.size(), isps.size());
      for (std::size_t i = 0; i < isps.size(); ++i) {
        const auto [lo, hi] = isps[i];
        const RunStats rs = count_runs(slice.subspan(lo, hi - lo));
        EXPECT_EQ(first[i].nnz, hi - lo);
        EXPECT_EQ(first[i].runs, rs.runs);
        EXPECT_EQ(first[i].max_run, rs.max_run);
      }
    }
  }
}

TEST(IspRunTableTest, ColdAndWarmSweepsBitEqualAndMatchReferenceLoop) {
  const auto input = make_tensor(21);
  Rng rng(22);
  const FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(input, build);
  MttkrpOptions options;

  auto cold_platform = sim::make_default_platform(4);
  auto warm_platform = sim::make_default_platform(4);
  auto loop_platform = sim::make_default_platform(4);
  std::vector<DenseMatrix> cold_out, warm_out, loop_out;
  const auto cold =
      mttkrp_all_modes(cold_platform, tensor, factors, cold_out, options);
  const auto warm =
      mttkrp_all_modes(warm_platform, tensor, factors, warm_out, options);
  const auto loop = exec::reference_loop_mttkrp_all_modes(
      loop_platform, tensor, factors, loop_out, options);

  expect_same_sweep(cold, warm, "cold vs warm");
  expect_same_sweep(warm, loop, "warm vs reference_loop");
  ASSERT_EQ(cold_out.size(), tensor.num_modes());
  for (std::size_t d = 0; d < cold_out.size(); ++d) {
    expect_bit_identical(cold_out[d], warm_out[d],
                         "cold vs warm mode " + std::to_string(d));
    expect_bit_identical(warm_out[d], loop_out[d],
                         "warm vs reference_loop mode " + std::to_string(d));
  }
}

TEST(IspRunTableTest, HeterogeneousDynamicQueuePricesEachSmCount) {
  // Under dynamic dispatch a shard may run on either device class, and
  // each SM count splits it into its own ISP size: one table entry each.
  // Every (shard, GPU) charge the simulator would make — the kernel
  // closure run in that GPU's context — must equal a full rescan, cold
  // and warm. A host run must then predict exactly those charges for the
  // shards each GPU ran; a one-thread pool makes the host deal dynamic
  // units round-robin, so that set is known.
  const auto input = make_tensor(31, 60000);
  Rng rng(32);
  const FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  // Few, large shards: past sm_count * block_width nonzeros the auto ISP
  // size differs between the two device classes.
  build.shards_per_gpu = 2;
  const auto tensor = AmpedTensor::build(input, build);
  MttkrpOptions options;
  options.policy = SchedulingPolicy::kDynamicQueue;
  const auto scheduler = exec::make_scheduler(options);

  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    const std::string what = "mode " + std::to_string(d);
    const auto& copy = tensor.mode_copy(d);
    const std::size_t shards = copy.partition.shards.size();
    auto platform = hetero_platform();
    const auto m = static_cast<std::size_t>(platform.num_gpus());
    DenseMatrix out(input.dim(d), 16);
    const exec::ModeLowerInput in{
        platform, tensor, d, factors, out, options,
        resolve_mttkrp_profile(options, tensor, d, platform, 16)};
    exec::Plan plan = scheduler->lower(in);

    // charge[s * m + g]: the simulator's price of shard s on GPU g.
    std::vector<double> charge(shards * m);
    const io::ShardStreamer::View view{&copy.tensor, 0};
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
      std::size_t s = 0;
      for (const exec::Task& t : plan.tasks) {
        if (t.kind != exec::TaskKind::kKernel) continue;
        for (std::size_t g = 0; g < m; ++g) {
          const int gpu = static_cast<int>(g);
          const double price = t.kernel(exec::ExecContext{platform, gpu, &view});
          EXPECT_EQ(price,
                    rescan_price(platform, gpu, tensor, d, s, options, 16))
              << what << " shard " << s << " gpu " << g << " pass " << pass;
          charge[s * m + g] = price;
        }
        ++s;
      }
      ASSERT_EQ(s, shards) << what;
    }
    EXPECT_GT(copy.isp_runs->size(), shards)
        << what << ": one ISP size per device class";

    DenseMatrix host_out(input.dim(d), 16);
    const exec::ModeLowerInput host_in{
        platform, tensor, d, factors, host_out, options,
        resolve_mttkrp_profile(options, tensor, d, platform, 16)};
    exec::Plan host_plan = scheduler->lower(host_in);
    set_host_parallelism(1);
    const auto host =
        exec::PlanExecutor(platform, exec::ExecBackend::kHostParallel)
            .run(host_plan);
    set_host_parallelism(4);
    std::vector<double> expected(m, 0.0);
    for (std::size_t s = 0; s < shards; ++s) {
      expected[s % m] += charge[s * m + s % m];
    }
    EXPECT_EQ(host.per_gpu_predicted_compute, expected) << what;
  }
}

TEST(IspRunTableTest, SpilledAndResidentWarmPricesEqual) {
  // A spilled copy fills its table from stream buffers, a resident one
  // from the copy itself; both must hold the same entries, so cold and
  // warm sweeps price identically across storages (the cost-model policy
  // also exercises Shard::run_stats on both).
  const auto input = make_tensor(41);
  Rng rng(42);
  const FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto resident = AmpedTensor::build(input, build);
  build.storage = BuildStorage::kSpilled;
  const auto spilled = AmpedTensor::build(input, build);
  ASSERT_TRUE(spilled.spilled());

  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kCostModel}) {
    MttkrpOptions options;
    options.policy = policy;
    std::vector<MttkrpReport> reports;
    std::vector<std::vector<DenseMatrix>> outputs;
    for (const AmpedTensor* t : {&resident, &spilled, &resident, &spilled}) {
      auto platform = hetero_platform();
      outputs.emplace_back();
      reports.push_back(
          mttkrp_all_modes(platform, *t, factors, outputs.back(), options));
    }
    const std::string what = to_string(policy);
    expect_same_sweep(reports[0], reports[1], what + " cold resident/spilled");
    expect_same_sweep(reports[2], reports[3], what + " warm resident/spilled");
    expect_same_sweep(reports[0], reports[2], what + " resident cold/warm");
    for (std::size_t d = 0; d < resident.num_modes(); ++d) {
      expect_bit_identical(outputs[2][d], outputs[3][d],
                           what + " warm mode " + std::to_string(d));
    }
  }
}

TEST(IspRunTableTest, ConcurrentFillFromBatchLanesStaysExact) {
  // A windowed host batch over the same tensor twice runs both links'
  // shard kernels on separate engine threads, so cold table entries are
  // filled from several lanes at once. Factors must equal solo cp_als on
  // a separately built tensor, and every entry must equal a fresh scan.
  const auto input = make_tensor(51, 8000);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto shared = AmpedTensor::build(input, build);
  const auto solo_tensor = AmpedTensor::build(input, build);
  CpdOptions options;
  options.rank = 8;
  options.max_iterations = 2;
  options.tolerance = 0.0;
  options.mttkrp.backend = exec::ExecBackend::kHostParallel;
  auto solo_platform = sim::make_default_platform(4);
  const CpdResult solo = cp_als(solo_platform, solo_tensor, options);

  options.graph_window = 2;
  const AmpedTensor* tensors[] = {&shared, &shared};
  auto platform = sim::make_default_platform(4);
  BatchReport report;
  const auto batched = cpd_batch(platform, tensors, options, &report);
  EXPECT_EQ(report.graph_dispatches, 1u);
  ASSERT_EQ(batched.size(), 2u);
  for (const CpdResult& r : batched) {
    EXPECT_EQ(r.fit, solo.fit);
    for (std::size_t d = 0; d < shared.num_modes(); ++d) {
      expect_bit_identical(r.factors.factor(d), solo.factors.factor(d),
                           "factor " + std::to_string(d));
    }
  }

  const int sm_count = platform.gpu(0).spec().sm_count;
  for (std::size_t d = 0; d < shared.num_modes(); ++d) {
    const auto& copy = shared.mode_copy(d);
    // One ISP size on a homogeneous platform: one entry per shard, all
    // filled by the batch (the lookups below then only read).
    EXPECT_EQ(copy.isp_runs->size(), copy.partition.shards.size());
    const auto idx = copy.tensor.indices(d);
    for (std::size_t s = 0; s < copy.partition.shards.size(); ++s) {
      const Shard& shard = copy.partition.shards[s];
      const nnz_t isp_size = std::max<nnz_t>(
          options.mttkrp.block_width,
          (shard.nnz() + sm_count - 1) / static_cast<nnz_t>(sm_count));
      const auto slice = idx.subspan(shard.nnz_begin, shard.nnz());
      const auto isps = copy.isp_runs->find_or_scan(s, isp_size, slice);
      const auto splits = split_isps(shard, isp_size);
      ASSERT_EQ(isps.size(), splits.size());
      for (std::size_t i = 0; i < splits.size(); ++i) {
        const auto [lo, hi] = splits[i];
        const RunStats rs = count_runs(slice.subspan(lo, hi - lo));
        EXPECT_EQ(isps[i].nnz, hi - lo);
        EXPECT_EQ(isps[i].runs, rs.runs);
        EXPECT_EQ(isps[i].max_run, rs.max_run);
      }
    }
  }
}

}  // namespace
}  // namespace amped
