#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_mttkrp.hpp"

namespace amped {
namespace {

constexpr double kTol = 5e-4;  // float accumulation vs double reference

CooTensor make_tensor(std::size_t modes, double skew, std::uint64_t seed,
                      nnz_t nnz = 20000) {
  GeneratorOptions opt;
  opt.dims.assign(modes, 0);
  for (std::size_t m = 0; m < modes; ++m) {
    opt.dims[m] = static_cast<index_t>(64 + 61 * m);
  }
  opt.zipf_exponents.assign(modes, skew);
  opt.nnz = nnz;
  opt.seed = seed;
  return generate_random(opt);
}

// Correctness sweep: modes x skew x gpu-count x policy. Every combination
// must match the sequential double-precision reference.
class MttkrpCorrectness
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, double, int, SchedulingPolicy>> {};

TEST_P(MttkrpCorrectness, MatchesReference) {
  const auto [modes, skew, gpus, policy] = GetParam();
  auto input = make_tensor(modes, skew, 100 + modes);
  Rng rng(55);
  FactorSet factors(input.dims(), 16, rng);

  AmpedBuildOptions build;
  build.num_gpus = gpus;
  auto tensor = AmpedTensor::build(input, build);

  auto platform = sim::make_default_platform(gpus);
  MttkrpOptions opt;
  opt.policy = policy;

  std::vector<DenseMatrix> outputs;
  auto report = mttkrp_all_modes(platform, tensor, factors, outputs, opt);

  const auto reference = reference_mttkrp_all_modes(input, factors);
  ASSERT_EQ(outputs.size(), modes);
  for (std::size_t d = 0; d < modes; ++d) {
    EXPECT_LT(relative_max_diff(reference[d], outputs[d]), kTol)
        << "mode " << d << " gpus " << gpus << " policy "
        << to_string(policy);
  }
  EXPECT_GT(report.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MttkrpCorrectness,
    ::testing::Combine(::testing::Values<std::size_t>(3, 4, 5),
                       ::testing::Values(0.0, 1.1),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(SchedulingPolicy::kStaticGreedy,
                                         SchedulingPolicy::kDynamicQueue)),
    [](const auto& param_info) {
      std::string n = "m";
      n += std::to_string(std::get<0>(param_info.param));
      n += "_s";
      n += std::to_string(static_cast<int>(std::get<1>(param_info.param) * 10));
      n += "_g";
      n += std::to_string(std::get<2>(param_info.param));
      n += "_";
      n += (std::get<3>(param_info.param) == SchedulingPolicy::kStaticGreedy
                ? "greedy"
                : "dyn");
      return n;
    });

TEST(MttkrpTest, ReportStructure) {
  auto input = make_tensor(3, 0.5, 7);
  Rng rng(8);
  FactorSet factors(input.dims(), 8, rng);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(4);

  std::vector<DenseMatrix> outputs;
  auto report =
      mttkrp_all_modes(platform, tensor, factors, outputs, MttkrpOptions{});

  ASSERT_EQ(report.modes.size(), 3u);
  double sum = 0.0;
  for (const auto& m : report.modes) {
    EXPECT_GT(m.seconds, 0.0);
    EXPECT_GT(m.h2d, 0.0);        // shards always stream
    EXPECT_GT(m.compute, 0.0);
    EXPECT_GT(m.p2p, 0.0);        // 4 GPUs -> ring traffic
    EXPECT_EQ(m.per_gpu_compute.size(), 4u);
    sum += m.seconds;
  }
  EXPECT_NEAR(report.total_seconds, sum, 1e-9);
  EXPECT_EQ(report.per_gpu_compute.size(), 4u);
  EXPECT_GE(report.compute_overhead_fraction(), 0.0);
  EXPECT_GT(report.communication_fraction(), 0.0);
  EXPECT_LT(report.communication_fraction(), 1.0);
}

TEST(MttkrpTest, LoadBalancedAcrossGpus) {
  // Fig. 8 property: with many shards, EC imbalance across GPUs is tiny.
  auto input = make_tensor(3, 0.8, 9, 60000);
  Rng rng(10);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.shards_per_gpu = 24;
  auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(4);

  std::vector<DenseMatrix> outputs;
  auto report =
      mttkrp_all_modes(platform, tensor, factors, outputs, MttkrpOptions{});
  EXPECT_LT(report.compute_overhead_fraction(), 0.05);
}

TEST(MttkrpTest, SingleGpuHasNoPeerTraffic) {
  auto input = make_tensor(3, 0.0, 11);
  Rng rng(12);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 1;
  auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(1);

  std::vector<DenseMatrix> outputs;
  auto report =
      mttkrp_all_modes(platform, tensor, factors, outputs, MttkrpOptions{});
  for (const auto& m : report.modes) EXPECT_DOUBLE_EQ(m.p2p, 0.0);
}

TEST(MttkrpTest, MoreGpusRunFaster) {
  // Scaled-platform semantics: the miniature tensor stands in for one
  // ~10000x larger, so per-transfer latencies scale down with it.
  auto input = make_tensor(3, 0.3, 13, 60000);
  Rng rng(14);
  FactorSet factors(input.dims(), 16, rng);

  double prev = 1e30;
  for (int gpus : {1, 2, 4}) {
    AmpedBuildOptions build;
    build.num_gpus = gpus;
    auto tensor = AmpedTensor::build(input, build);
    auto platform = sim::make_default_platform(gpus, 10000.0);
    std::vector<DenseMatrix> outputs;
    auto report =
        mttkrp_all_modes(platform, tensor, factors, outputs, MttkrpOptions{});
    EXPECT_LT(report.total_seconds, prev) << gpus << " GPUs";
    prev = report.total_seconds;
  }
}

TEST(MttkrpTest, WiderBlocksNoSlowerThanNarrow) {
  auto input = make_tensor(3, 0.0, 15);
  Rng rng(16);
  FactorSet factors(input.dims(), 16, rng);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});

  auto run_width = [&](nnz_t width) {
    auto platform = sim::make_default_platform(4);
    MttkrpOptions opt;
    opt.block_width = width;
    std::vector<DenseMatrix> outputs;
    return mttkrp_all_modes(platform, tensor, factors, outputs, opt)
        .total_seconds;
  };
  EXPECT_LT(run_width(32), run_width(4));
}

TEST(MttkrpTest, OutputOwnershipDisjointAcrossGpus) {
  // Every output row is owned by exactly one GPU: with the all-gather
  // replaced by nothing, re-running per-mode must still produce the same
  // result because updates never straddle GPUs. This is implied by the
  // reference match, but check the partition property explicitly.
  auto input = make_tensor(3, 1.2, 17);
  input.sort_by_mode(0);
  auto part = build_mode_partition(input, 0, 64);
  auto assignment = assign_shards(part, 4, SchedulingPolicy::kStaticGreedy);
  std::vector<int> owner(input.dim(0), -1);
  for (int g = 0; g < 4; ++g) {
    for (std::size_t id : assignment.per_gpu[static_cast<std::size_t>(g)]) {
      const auto& s = part.shards[id];
      for (index_t i = s.index_begin; i < s.index_end; ++i) {
        EXPECT_EQ(owner[i], -1) << "index " << i << " owned twice";
        owner[i] = g;
      }
    }
  }
  for (index_t i = 0; i < input.dim(0); ++i) EXPECT_NE(owner[i], -1);
}

TEST(MttkrpTest, ZeroBlockWidthRejectedAtEveryEntryPoint) {
  // block_width 0 gives the threadblock no threads: every simulated time
  // would come out non-finite, so each public entry point must refuse it
  // before doing any work.
  const auto input = make_tensor(3, 0.5, 23);
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  Rng rng(24);
  const FactorSet factors(input.dims(), 8, rng);
  CpdOptions cpd;
  cpd.rank = 8;
  cpd.max_iterations = 1;
  cpd.mttkrp.block_width = 0;
  const MttkrpOptions& options = cpd.mttkrp;
  auto platform = sim::make_default_platform(4);

  DenseMatrix out(input.dim(0), 8);
  EXPECT_THROW(mttkrp_one_mode(platform, tensor, factors, 0, out, options),
               std::invalid_argument);
  std::vector<DenseMatrix> outputs;
  EXPECT_THROW(mttkrp_all_modes(platform, tensor, factors, outputs, options),
               std::invalid_argument);
  EXPECT_THROW(cp_als(platform, tensor, cpd), std::invalid_argument);
  const AmpedTensor* tensors[] = {&tensor};
  EXPECT_THROW(cpd_batch(platform, tensors, cpd), std::invalid_argument);
  // Nothing ran: the platform's clocks never moved.
  EXPECT_EQ(platform.makespan(), 0.0);
}

}  // namespace
}  // namespace amped
