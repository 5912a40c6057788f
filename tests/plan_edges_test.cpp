// The edge derivation both backends run plans by (exec::derive_edges), and
// the report fields every interpreter fills from it: scope kernel spans
// on the simulator and the host backend alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/amped_tensor.hpp"
#include "exec/plan.hpp"
#include "exec/scheduler.hpp"
#include "tensor/generator.hpp"

namespace amped {
namespace {

exec::Task lane_task(exec::TaskKind kind, int gpu) {
  exec::Task t;
  t.kind = kind;
  t.gpu = gpu;
  return t;
}

std::vector<std::size_t> deps_of(const exec::PlanEdges& edges,
                                 std::size_t id) {
  const auto d = edges.deps(id);
  std::vector<std::size_t> out(d.begin(), d.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PlanEdgesTest, LegacyFencesBecomeEdgesAndGraphPlansKeepTheirOwn) {
  using exec::TaskKind;
  exec::Plan plan;
  plan.tasks.push_back(lane_task(TaskKind::kH2D, 0));     // 0
  plan.tasks.push_back(lane_task(TaskKind::kKernel, 0));  // 1
  plan.tasks.back().deps = {0};
  plan.tasks.push_back(lane_task(TaskKind::kKernel, 1));  // 2
  plan.tasks.push_back(lane_task(TaskKind::kBarrier, exec::kAnyGpu));  // 3
  plan.tasks.push_back(lane_task(TaskKind::kH2D, exec::kAnyGpu));     // 4
  plan.tasks.push_back(lane_task(TaskKind::kKernel, exec::kAnyGpu));  // 5
  plan.tasks.back().deps = {4};
  plan.tasks.push_back(lane_task(TaskKind::kKernel, exec::kAnyGpu));  // 6
  plan.tasks.push_back(lane_task(TaskKind::kHostOp, exec::kAnyGpu));  // 7

  const auto legacy = exec::derive_edges(plan, 2);
  EXPECT_EQ(legacy.coordinator_tasks, (std::vector<std::size_t>{3, 7}));
  EXPECT_EQ(deps_of(legacy, 1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(deps_of(legacy, 3), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(deps_of(legacy, 5), (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(deps_of(legacy, 7), (std::vector<std::size_t>{4, 5, 6}));
  // Two kAnyGpu units, each closed by its kernel, form one run that both
  // GPUs' programs pull from after their static tasks.
  using Unit = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(legacy.units, (std::vector<Unit>{{4, 6}, {6, 7}}));
  EXPECT_EQ(legacy.run_end, (std::vector<std::size_t>{2}));
  ASSERT_EQ(legacy.programs.size(), 2u);
  ASSERT_EQ(legacy.programs[0].size(), 3u);
  EXPECT_EQ(legacy.programs[0][1].task, 1u);
  EXPECT_EQ(legacy.programs[0][2].run, 0u);
  ASSERT_EQ(legacy.programs[1].size(), 2u);
  EXPECT_EQ(legacy.programs[1][1].run, 0u);

  // A graph plan's coordinator tasks are edges, not fences: every task
  // keeps exactly its own deps.
  plan.graph = true;
  const auto graph = exec::derive_edges(plan, 2);
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    std::vector<std::size_t> own = plan.tasks[id].deps;
    std::sort(own.begin(), own.end());
    EXPECT_EQ(deps_of(graph, id), own) << "task " << id;
  }
}

// Both backends fill the per-scope kernel spans for legacy plans, static
// and dynamic alike: a started span that ends no earlier than it starts.
class ScopeSpans
    : public ::testing::TestWithParam<std::pair<SchedulingPolicy,
                                                exec::ExecBackend>> {};

TEST_P(ScopeSpans, FilledForEveryPlan) {
  const auto [policy, backend] = GetParam();
  GeneratorOptions gen;
  gen.dims = {256, 128, 128};
  gen.nnz = 20000;
  gen.zipf_exponents = {0.8, 0.5, 0.5};
  gen.seed = 501;
  const auto input = generate_random(gen);
  Rng rng(502);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(4, 1000.0);

  MttkrpOptions options;
  options.policy = policy;
  DenseMatrix out(input.dim(0), 8);
  const exec::ModeLowerInput in{
      platform, tensor, 0, factors, out, options,
      resolve_mttkrp_profile(options, tensor, 0, platform, 8)};
  auto plan = exec::make_scheduler(options)->lower(in);
  const double t0 = platform.makespan();
  const auto report = exec::PlanExecutor(platform, backend).run(plan);

  ASSERT_EQ(report.scope_kernel_start.size(), 1u);
  ASSERT_EQ(report.scope_kernel_finish.size(), 1u);
  EXPECT_GE(report.scope_kernel_start[0], 0.0);
  EXPECT_GE(report.scope_kernel_finish[0], report.scope_kernel_start[0]);
  if (backend == exec::ExecBackend::kSimulated) {
    // Modelled spans share the gather edges' time base and end before
    // the plan's all-gather starts.
    ASSERT_EQ(report.gather_edges.size(), 1u);
    EXPECT_GT(report.scope_kernel_finish[0], 0.0);
    EXPECT_LE(report.scope_kernel_finish[0], report.gather_edges[0].start);
    EXPECT_LE(report.gather_edges[0].finish, platform.makespan() - t0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StaticAndDynamic, ScopeSpans,
    ::testing::Values(
        std::pair{SchedulingPolicy::kStaticGreedy,
                  exec::ExecBackend::kSimulated},
        std::pair{SchedulingPolicy::kDynamicQueue,
                  exec::ExecBackend::kSimulated},
        std::pair{SchedulingPolicy::kStaticGreedy,
                  exec::ExecBackend::kHostParallel},
        std::pair{SchedulingPolicy::kDynamicQueue,
                  exec::ExecBackend::kHostParallel}),
    [](const auto& param_info) {
      std::string n = to_string(param_info.param.first) + "_" +
                      exec::to_string(param_info.param.second);
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

}  // namespace
}  // namespace amped
