// Differential harness for the host-parallel execution backend
// (src/exec/host_backend.cpp): every scheduling policy, composed
// batches, and spilled-storage runs execute through BOTH PlanExecutor
// backends and must produce memcmp-identical factor outputs — the
// real-concurrency analogue of exec_plan_test's golden checks. Also
// covers the measured-vs-predicted reporting contract and the backend
// parser. This suite runs in the TSan CI lane: real lane threads over
// the ShardStreamer are exactly what that lane exists to check.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "exec/backend.hpp"
#include "exec/compose.hpp"
#include "exec/scheduler.hpp"
#include "io/memory_budget.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_mttkrp.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

// Real concurrency even on single-core CI runners: the backend's lane
// threads and the streamers' read-ahead must interleave for these tests
// (and the TSan lane) to mean anything.
class HostParallelismEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_host_parallelism(4); }
  void TearDown() override { set_host_parallelism(0); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new HostParallelismEnv);

CooTensor make_tensor(std::uint64_t seed, nnz_t nnz = 40000) {
  GeneratorOptions opt;
  opt.dims = {512, 256, 256};
  opt.nnz = nnz;
  opt.zipf_exponents = {0.8, 0.5, 0.5};
  opt.seed = seed;
  return generate_random(opt);
}

sim::Platform hetero_platform(double scale = 1.0) {
  sim::PlatformConfig cfg;
  cfg.num_gpus = 4;
  cfg.workload_scale = scale;
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

struct DifferentialRun {
  MttkrpReport sim;
  MttkrpReport host;
};

// Runs the same workload through the simulator and the host backend on
// identically configured platforms and demands memcmp-identical outputs
// for every mode. Returns both reports for timing-contract checks.
DifferentialRun expect_differential(
    const AmpedTensor& tensor, const FactorSet& factors,
    MttkrpOptions options,
    const std::function<sim::Platform()>& make_platform,
    const std::string& what) {
  DifferentialRun run;
  auto sim_platform = make_platform();
  auto host_platform = make_platform();
  std::vector<DenseMatrix> sim_out, host_out;
  options.backend = exec::ExecBackend::kSimulated;
  run.sim = mttkrp_all_modes(sim_platform, tensor, factors, sim_out, options);
  options.backend = exec::ExecBackend::kHostParallel;
  run.host =
      mttkrp_all_modes(host_platform, tensor, factors, host_out, options);

  EXPECT_EQ(sim_out.size(), host_out.size()) << what;
  for (std::size_t d = 0; d < sim_out.size(); ++d) {
    expect_bit_identical(sim_out[d], host_out[d],
                         what + " mode " + std::to_string(d));
  }
  // The host run must not have advanced the simulated clocks.
  EXPECT_EQ(host_platform.makespan(), 0.0) << what;
  return run;
}

std::string policy_label(SchedulingPolicy policy, bool pipelined) {
  return to_string(policy) + (pipelined ? "+pipelined" : "");
}

// Every policy (static ones ± pipelined, both dynamic disciplines,
// cost-model) on homogeneous and heterogeneous platforms.
class HostBackendDifferential
    : public ::testing::TestWithParam<std::pair<SchedulingPolicy, bool>> {};

TEST_P(HostBackendDifferential, BitIdenticalToSimulator) {
  const auto [policy, pipelined] = GetParam();
  auto input = make_tensor(301);
  Rng rng(302);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  const auto run = expect_differential(
      tensor, factors, options,
      [] { return sim::make_default_platform(4, 1000.0); },
      policy_label(policy, pipelined));

  // Timing contract: the host report carries measured wall clock (real
  // work takes real time) and the simulator's never does.
  double host_compute = 0.0;
  for (double t : run.host.per_gpu_compute) host_compute += t;
  EXPECT_GT(host_compute, 0.0);
  EXPECT_GT(run.host.total_seconds, 0.0);
  for (const auto& bd : run.host.modes) {
    EXPECT_GT(bd.seconds, 0.0) << "mode " << bd.mode;
    EXPECT_GE(bd.h2d, 0.0) << "mode " << bd.mode;
    EXPECT_GE(bd.sync, 0.0) << "mode " << bd.mode;
  }
}

TEST_P(HostBackendDifferential, BitIdenticalOnHeterogeneousPlatform) {
  const auto [policy, pipelined] = GetParam();
  auto input = make_tensor(303);
  Rng rng(304);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  expect_differential(tensor, factors, options,
                      [] { return hetero_platform(1000.0); },
                      policy_label(policy, pipelined));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HostBackendDifferential,
    ::testing::Values(
        std::pair{SchedulingPolicy::kStaticGreedy, false},
        std::pair{SchedulingPolicy::kStaticGreedy, true},
        std::pair{SchedulingPolicy::kContiguous, false},
        std::pair{SchedulingPolicy::kContiguous, true},
        std::pair{SchedulingPolicy::kWeightedStatic, false},
        std::pair{SchedulingPolicy::kWeightedStatic, true},
        std::pair{SchedulingPolicy::kCostModel, false},
        std::pair{SchedulingPolicy::kCostModel, true},
        std::pair{SchedulingPolicy::kDynamicQueue, false},
        std::pair{SchedulingPolicy::kDynamicLookahead, false}),
    [](const auto& param_info) {
      std::string n = to_string(param_info.param.first);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n + (param_info.param.second ? "_pipelined" : "");
    });

TEST(HostBackendTest, PredictedComputeMatchesSimulatorExactly) {
  // The host backend runs the same kernel closures on the same static
  // assignment, collecting their cost-model returns as the predicted
  // column — which must therefore equal the simulator's charged EC
  // seconds to the last bit, per GPU.
  auto input = make_tensor(305);
  Rng rng(306);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kCostModel}) {
    auto sim_platform = hetero_platform(1000.0);
    auto host_platform = hetero_platform(1000.0);
    MttkrpOptions options;
    options.policy = policy;
    std::vector<DenseMatrix> sim_out, host_out;
    options.backend = exec::ExecBackend::kSimulated;
    const auto sim_report =
        mttkrp_all_modes(sim_platform, tensor, factors, sim_out, options);
    options.backend = exec::ExecBackend::kHostParallel;

    std::vector<double> predicted(4, 0.0);
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      DenseMatrix out(tensor.dims()[d], factors.rank());
      const exec::ModeLowerInput in{
          host_platform, tensor, d, factors, out, options,
          resolve_mttkrp_profile(options, tensor, d, host_platform,
                                 factors.rank())};
      auto plan = exec::make_scheduler(options)->lower(in);
      exec::PlanExecutor executor(host_platform,
                                  exec::ExecBackend::kHostParallel);
      const auto report = executor.run(plan);
      for (std::size_t g = 0; g < 4; ++g) {
        predicted[g] += report.per_gpu_predicted_compute[g];
      }
      expect_bit_identical(sim_out[d], out,
                           to_string(policy) + " mode " + std::to_string(d));
    }
    for (std::size_t g = 0; g < 4; ++g) {
      EXPECT_EQ(predicted[g], sim_report.per_gpu_compute[g])
          << to_string(policy) << " gpu " << g;
    }
  }
}

// Sets the global budget for one scope and restores "unlimited" on every
// exit path, so suites stay order-independent.
class BudgetGuard {
 public:
  explicit BudgetGuard(std::uint64_t limit) {
    io::HostMemoryBudget::global().set_limit(limit);
  }
  ~BudgetGuard() { io::HostMemoryBudget::global().set_limit(0); }
};

TEST(HostBackendTest, SpilledBudgetRunBitIdentical) {
  // The out-of-core path under real concurrency: a memory budget forces
  // the build to spill, then shard payloads stream disk -> host -> lane
  // staging buffers through both backends.
  auto input = make_tensor(307, 20000);
  Rng rng(308);
  FactorSet factors(input.dims(), 8, rng);

  // Below the 3-copy resident footprint but enough for the build to hold
  // one copy (plus stream buffers) at a time: kAuto must choose to spill.
  const std::uint64_t copy_bytes = input.storage_bytes();
  BudgetGuard guard(copy_bytes + copy_bytes / 2);
  AmpedBuildOptions build;
  build.num_gpus = 2;
  build.storage = BuildStorage::kAuto;
  auto tensor = AmpedTensor::build(input, build);
  ASSERT_TRUE(tensor.spilled());

  for (bool pipelined : {false, true}) {
    MttkrpOptions options;
    options.pipelined_streaming = pipelined;
    expect_differential(tensor, factors, options,
                        [] { return sim::make_default_platform(2, 1000.0); },
                        std::string("spilled") +
                            (pipelined ? "+pipelined" : ""));
  }
  for (auto policy :
       {SchedulingPolicy::kDynamicQueue, SchedulingPolicy::kDynamicLookahead,
        SchedulingPolicy::kCostModel}) {
    MttkrpOptions options;
    options.policy = policy;
    expect_differential(tensor, factors, options,
                        [] { return sim::make_default_platform(2, 1000.0); },
                        "spilled " + to_string(policy));
  }
}

TEST(HostBackendTest, ComposedBatchBitIdentical) {
  // Composed multi-tensor plans: barrier elision and lane interleaving
  // across scopes must not change a byte on either backend.
  auto input_a = make_tensor(309, 22000);
  GeneratorOptions gb;
  gb.dims = {384, 192, 160};
  gb.nnz = 18000;
  gb.zipf_exponents = {0.6, 0.9, 0.3};
  gb.seed = 310;
  auto input_b = generate_random(gb);
  Rng rng(311);
  FactorSet factors_a(input_a.dims(), 12, rng);
  FactorSet factors_b(input_b.dims(), 12, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor_a = AmpedTensor::build(input_a, build);
  auto tensor_b = AmpedTensor::build(input_b, build);
  const std::vector<BatchWorkload> workloads = {{&tensor_a, &factors_a},
                                                {&tensor_b, &factors_b}};

  for (bool pipelined : {false, true}) {
    MttkrpOptions options;
    options.pipelined_streaming = pipelined;
    const std::string what =
        std::string("batch") + (pipelined ? "+pipelined" : "");

    auto sim_platform = sim::make_default_platform(4, 1000.0);
    std::vector<std::vector<DenseMatrix>> sim_out;
    options.backend = exec::ExecBackend::kSimulated;
    mttkrp_batch(sim_platform, workloads, sim_out, options);

    auto host_platform = sim::make_default_platform(4, 1000.0);
    std::vector<std::vector<DenseMatrix>> host_out;
    options.backend = exec::ExecBackend::kHostParallel;
    const auto host_report =
        mttkrp_batch(host_platform, workloads, host_out, options);

    ASSERT_EQ(sim_out.size(), host_out.size());
    for (std::size_t i = 0; i < sim_out.size(); ++i) {
      ASSERT_EQ(sim_out[i].size(), host_out[i].size());
      for (std::size_t d = 0; d < sim_out[i].size(); ++d) {
        expect_bit_identical(sim_out[i][d], host_out[i][d],
                             what + " workload " + std::to_string(i) +
                                 " mode " + std::to_string(d));
      }
    }
    EXPECT_GT(host_report.total_seconds, 0.0) << what;
    EXPECT_EQ(host_report.steps.size(), 3u) << what;
  }
}

TEST(HostBackendTest, MultiRunDynamicPlanBitIdentical) {
  // Two dynamic plans over the same output cannot be proven disjoint, so
  // compose() keeps both epilogues: [units][barrier][gather][units]
  // [barrier][gather] — two kAnyGpu runs drawn from one shared cursor.
  // A GPU that enters the second run early must not strand another still
  // finishing its last unit of the first: every unit is dispatched
  // exactly once and the output matches the simulator bitwise.
  auto input = make_tensor(315, 20000);
  Rng rng(316);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  for (auto policy : {SchedulingPolicy::kDynamicQueue,
                      SchedulingPolicy::kDynamicLookahead}) {
    MttkrpOptions options;
    options.policy = policy;
    const auto scheduler = exec::make_scheduler(options);
    auto lower_pair = [&](sim::Platform& platform, DenseMatrix& out) {
      const exec::ModeLowerInput in{
          platform, tensor, 0, factors, out, options,
          resolve_mttkrp_profile(options, tensor, 0, platform, 8)};
      std::vector<exec::Plan> plans;
      plans.push_back(scheduler->lower(in));
      plans.push_back(scheduler->lower(in));
      return exec::compose(plans);
    };

    auto sim_platform = sim::make_default_platform(4, 1000.0);
    DenseMatrix sim_out(input.dim(0), 8);
    auto sim_plan = lower_pair(sim_platform, sim_out);
    exec::PlanExecutor(sim_platform).run(sim_plan);

    std::size_t units = 0;
    for (const auto& t : sim_plan.tasks) {
      if (t.kind == exec::TaskKind::kKernel && t.gpu == exec::kAnyGpu) {
        ++units;
      }
    }
    ASSERT_GT(units, 8u) << "both runs need units to race over";
    auto dispatched = [] {
      std::uint64_t n = 0;
      for (int g = 0; g < 4; ++g) {
        n += metrics::counter("sched.host.units_dispatched.gpu" +
                              std::to_string(g))
                 .value();
      }
      return n;
    };

    for (int rep = 0; rep < 20; ++rep) {
      const std::string what =
          to_string(policy) + " rep " + std::to_string(rep);
      auto host_platform = sim::make_default_platform(4, 1000.0);
      DenseMatrix host_out(input.dim(0), 8);
      auto host_plan = lower_pair(host_platform, host_out);
      const std::uint64_t before = dispatched();
      exec::PlanExecutor(host_platform, exec::ExecBackend::kHostParallel)
          .run(host_plan);
      EXPECT_EQ(dispatched() - before, units) << what;
      expect_bit_identical(sim_out, host_out, what);
    }
  }
}

TEST(HostBackendTest, CpAlsBitIdentical) {
  // Full CP-ALS through the host backend: factors, weights, fit, and the
  // convergence trajectory all match the simulated run bitwise.
  auto input = make_tensor(312, 15000);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  CpdOptions options;
  options.rank = 8;
  options.max_iterations = 3;
  auto sim_platform = sim::make_default_platform(4, 1000.0);
  auto host_platform = sim::make_default_platform(4, 1000.0);
  options.mttkrp.backend = exec::ExecBackend::kSimulated;
  const auto sim_result = cp_als(sim_platform, tensor, options);
  options.mttkrp.backend = exec::ExecBackend::kHostParallel;
  const auto host_result = cp_als(host_platform, tensor, options);

  EXPECT_EQ(sim_result.fit, host_result.fit);
  EXPECT_EQ(sim_result.iterations, host_result.iterations);
  EXPECT_EQ(sim_result.converged, host_result.converged);
  EXPECT_EQ(sim_result.lambda, host_result.lambda);
  EXPECT_EQ(sim_result.fit_history, host_result.fit_history);
  ASSERT_EQ(sim_result.factors.num_modes(), host_result.factors.num_modes());
  for (std::size_t d = 0; d < sim_result.factors.num_modes(); ++d) {
    expect_bit_identical(sim_result.factors.factor(d),
                         host_result.factors.factor(d),
                         "factor " + std::to_string(d));
  }
  // Host time is measured, so it is real and positive.
  EXPECT_GT(host_result.mttkrp_sim_seconds, 0.0);
}

TEST(HostBackendTest, RandomizedDifferentialSweep) {
  // Property sweep with the format_property_test generator shapes: any
  // (mode count, skew, policy) combination is bit-identical across
  // backends. Failure messages carry the seed for offline reproduction.
  const SchedulingPolicy policies[] = {
      SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kDynamicQueue,
      SchedulingPolicy::kCostModel, SchedulingPolicy::kDynamicLookahead};
  for (std::size_t modes = 2; modes <= 4; ++modes) {
    for (double skew : {0.0, 1.4}) {
      GeneratorOptions opt;
      opt.dims.assign(modes, 0);
      for (std::size_t m = 0; m < modes; ++m) {
        opt.dims[m] = static_cast<index_t>(48 + 37 * m);
      }
      opt.zipf_exponents.assign(modes, skew);
      opt.nnz = 3000;
      opt.seed = 1000 + modes * 10 + static_cast<std::uint64_t>(skew * 10);
      auto input = generate_random(opt);
      Rng rng(opt.seed + 1);
      FactorSet factors(input.dims(), 6, rng);
      AmpedBuildOptions build;
      build.num_gpus = 4;
      build.shards_per_gpu = 4;
      auto tensor = AmpedTensor::build(input, build);

      for (auto policy : policies) {
        MttkrpOptions options;
        options.policy = policy;
        const std::string what =
            "seed=" + std::to_string(opt.seed) +
            " modes=" + std::to_string(modes) +
            " skew=" + std::to_string(skew) + " policy=" + to_string(policy);
        expect_differential(tensor, factors, options,
                            [] { return sim::make_default_platform(4); },
                            what);
      }
      // Numerics stay right end to end, not just consistent: check one
      // policy against the sequential double-precision reference.
      MttkrpOptions options;
      options.backend = exec::ExecBackend::kHostParallel;
      auto platform = sim::make_default_platform(4);
      std::vector<DenseMatrix> outputs;
      mttkrp_all_modes(platform, tensor, factors, outputs, options);
      const auto refs = reference_mttkrp_all_modes(input, factors);
      for (std::size_t d = 0; d < refs.size(); ++d) {
        EXPECT_LT(relative_max_diff(refs[d], outputs[d]), 5e-4)
            << "seed=" << opt.seed << " mode " << d;
      }
    }
  }
}

TEST(HostBackendTest, BackendNamesParseAndRoundTrip) {
  EXPECT_EQ(exec::parse_backend("sim"), exec::ExecBackend::kSimulated);
  EXPECT_EQ(exec::parse_backend("simulated"), exec::ExecBackend::kSimulated);
  EXPECT_EQ(exec::parse_backend("host"), exec::ExecBackend::kHostParallel);
  EXPECT_EQ(exec::parse_backend("host-parallel"),
            exec::ExecBackend::kHostParallel);
  for (auto backend :
       {exec::ExecBackend::kSimulated, exec::ExecBackend::kHostParallel}) {
    EXPECT_EQ(exec::parse_backend(exec::to_string(backend)), backend);
  }
  EXPECT_THROW(exec::parse_backend("cuda"), std::invalid_argument);
  EXPECT_THROW(exec::parse_backend(""), std::invalid_argument);
}

TEST(HostBackendTest, SerialPoolStillBitIdentical) {
  // host_parallelism() == 1 collapses every lane to the calling thread;
  // outputs and the reporting shape must be unchanged.
  set_host_parallelism(1);
  auto input = make_tensor(313, 12000);
  Rng rng(314);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);
  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kDynamicQueue}) {
    MttkrpOptions options;
    options.policy = policy;
    expect_differential(tensor, factors, options,
                        [] { return sim::make_default_platform(4); },
                        "serial " + to_string(policy));
  }
  set_host_parallelism(4);
}

}  // namespace
}  // namespace amped
