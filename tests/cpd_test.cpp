#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "core/cpd.hpp"
#include "tensor/generator.hpp"

namespace amped {
namespace {

// Builds a dense-ish low-rank tensor from known factors so ALS has an
// exact solution: X(i,j,k) = sum_r A(i,r) B(j,r) C(k,r).
CooTensor low_rank_tensor(std::size_t rank, std::uint64_t seed) {
  const std::vector<index_t> dims{12, 10, 8};
  Rng rng(seed);
  FactorSet truth(dims, rank, rng);

  CooTensor t(dims);
  std::array<index_t, 3> c{};
  for (index_t i = 0; i < dims[0]; ++i) {
    for (index_t j = 0; j < dims[1]; ++j) {
      for (index_t k = 0; k < dims[2]; ++k) {
        double v = 0.0;
        for (std::size_t r = 0; r < rank; ++r) {
          v += static_cast<double>(truth.factor(0)(i, r)) *
               truth.factor(1)(j, r) * truth.factor(2)(k, r);
        }
        c = {i, j, k};
        t.push_back(std::span<const index_t>(c.data(), 3),
                    static_cast<value_t>(v));
      }
    }
  }
  return t;
}

TEST(CpdTest, RecoversLowRankTensor) {
  auto input = low_rank_tensor(3, 21);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(4);

  CpdOptions opt;
  opt.rank = 8;  // over-parameterised: fit should go very high
  opt.max_iterations = 40;
  opt.tolerance = 1e-7;
  auto result = cp_als(platform, tensor, opt);

  EXPECT_GT(result.fit, 0.99) << "ALS failed to recover a rank-3 tensor";
  EXPECT_GT(result.iterations, 1u);
  EXPECT_GT(result.mttkrp_sim_seconds, 0.0);
}

TEST(CpdTest, FitHistoryMonotoneAfterWarmup) {
  // Exact-rank problem: ALS fit is monotone up to float32 noise. (With an
  // over-parameterised rank, CP degeneracy legitimately makes the fit
  // oscillate, so that case is not asserted here.)
  auto input = low_rank_tensor(2, 22);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(2);

  CpdOptions opt;
  opt.rank = 2;
  opt.max_iterations = 15;
  opt.tolerance = 0.0;  // run all iterations
  auto result = cp_als(platform, tensor, opt);

  ASSERT_GE(result.fit_history.size(), 5u);
  for (std::size_t i = 2; i < result.fit_history.size(); ++i) {
    EXPECT_GE(result.fit_history[i], result.fit_history[i - 1] - 1e-2);
  }
  EXPECT_GT(result.fit, 0.95);
}

TEST(CpdTest, ConvergesAndStops) {
  auto input = low_rank_tensor(2, 23);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(2);

  CpdOptions opt;
  opt.rank = 4;
  opt.max_iterations = 50;
  opt.tolerance = 1e-4;
  auto result = cp_als(platform, tensor, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50u);
}

TEST(CpdTest, LambdaPositiveAndFactorsNormalised) {
  auto input = low_rank_tensor(3, 24);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(2);

  CpdOptions opt;
  opt.rank = 4;
  opt.max_iterations = 8;
  auto result = cp_als(platform, tensor, opt);

  for (double l : result.lambda) EXPECT_GT(l, 0.0);
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t r = 0; r < opt.rank; ++r) {
      double norm = 0.0;
      const auto& f = result.factors.factor(d);
      for (std::size_t i = 0; i < f.rows(); ++i) {
        norm += static_cast<double>(f(i, r)) * f(i, r);
      }
      EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-3)
          << "mode " << d << " column " << r;
    }
  }
}

TEST(CpdTest, SparseRandomTensorFitsPartially) {
  GeneratorOptions gopt;
  gopt.dims = {60, 50, 40};
  gopt.nnz = 3000;
  gopt.seed = 25;
  gopt.coalesce_duplicates = true;
  auto input = generate_random(gopt);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(4);

  CpdOptions opt;
  opt.rank = 8;
  opt.max_iterations = 10;
  auto result = cp_als(platform, tensor, opt);
  // Random data is not low-rank; fit must be finite and above the
  // trivial zero-model baseline.
  EXPECT_GT(result.fit, 0.0);
  EXPECT_LT(result.fit, 1.0);
}

TEST(CpdTest, TensorNormSq) {
  CooTensor t({2, 2});
  const std::array<index_t, 2> a{0, 0}, b{1, 1};
  t.push_back(std::span<const index_t>(a.data(), 2), 3.0f);
  t.push_back(std::span<const index_t>(b.data(), 2), 4.0f);
  EXPECT_DOUBLE_EQ(tensor_norm_sq(t), 25.0);
}

TEST(CpdTest, TensorNormSqSumsRepeatedCoordinates) {
  // A duplicate pair is one entry of value 3 + 1, as MTTKRP sees it.
  CooTensor t({2, 2});
  const std::array<index_t, 2> a{0, 0}, b{1, 1};
  t.push_back(std::span<const index_t>(a.data(), 2), 3.0f);
  t.push_back(std::span<const index_t>(a.data(), 2), 1.0f);
  t.push_back(std::span<const index_t>(b.data(), 2), 4.0f);
  EXPECT_DOUBLE_EQ(tensor_norm_sq(t), 32.0);
}

TEST(CpdTest, FitOnRepeatedCoordinatesMatchesCoalescedTensor) {
  // Every third entry is split into two halves stored apart; the build
  // sorts them next to each other. The fit must be that of the tensor
  // with the halves merged back.
  const auto input = low_rank_tensor(3, 33);
  CooTensor split(input.dims());
  std::vector<nnz_t> halved;
  std::array<index_t, 3> c{};
  for (nnz_t e = 0; e < input.nnz(); ++e) {
    for (std::size_t m = 0; m < 3; ++m) c[m] = input.indices(m)[e];
    const value_t v = input.values()[e];
    const bool halve = e % 3 == 0;
    split.push_back(std::span<const index_t>(c.data(), 3), halve ? v / 2 : v);
    if (halve) halved.push_back(e);
  }
  for (const nnz_t e : halved) {
    for (std::size_t m = 0; m < 3; ++m) c[m] = input.indices(m)[e];
    split.push_back(std::span<const index_t>(c.data(), 3),
                    input.values()[e] / 2);
  }
  CooTensor merged = split;
  merged.sort_by_mode(0);
  ASSERT_EQ(merged.coalesce(), halved.size());

  CpdOptions opt;
  opt.rank = 2;
  opt.max_iterations = 5;
  opt.tolerance = 0.0;
  auto fit_of = [&](const CooTensor& t) {
    auto platform = sim::make_default_platform(2);
    AmpedBuildOptions build;
    build.num_gpus = 2;
    return cp_als(platform, AmpedTensor::build(t, build), opt).fit;
  };
  const double merged_fit = fit_of(merged);
  EXPECT_GT(merged_fit, 0.5);
  EXPECT_NEAR(fit_of(split), merged_fit, 1e-6);
}

}  // namespace
}  // namespace amped
