#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/device.hpp"
#include "sim/executor.hpp"
#include "sim/interconnect.hpp"
#include "sim/platform.hpp"

namespace amped::sim {
namespace {

TEST(DeviceTest, AdvanceAccumulatesPerPhase) {
  SimDevice d(rtx6000_ada_spec(), 0);
  d.advance(Phase::kCompute, 1.0);
  d.advance(Phase::kHostToDevice, 0.5);
  d.advance(Phase::kCompute, 0.25);
  EXPECT_DOUBLE_EQ(d.clock(), 1.75);
  EXPECT_DOUBLE_EQ(d.timeline().total(Phase::kCompute), 1.25);
  EXPECT_DOUBLE_EQ(d.timeline().total(Phase::kHostToDevice), 0.5);
  EXPECT_DOUBLE_EQ(d.timeline().communication(), 0.5);
}

TEST(DeviceTest, WaitUntilRecordsSync) {
  SimDevice d(rtx6000_ada_spec(), 0);
  d.advance(Phase::kCompute, 1.0);
  d.wait_until(3.0);
  EXPECT_DOUBLE_EQ(d.clock(), 3.0);
  EXPECT_DOUBLE_EQ(d.timeline().total(Phase::kSync), 2.0);
  d.wait_until(2.0);  // past time: no-op
  EXPECT_DOUBLE_EQ(d.clock(), 3.0);
}

TEST(DeviceTest, AllocationTracksAndThrows) {
  auto spec = rtx6000_ada_spec();
  spec.mem_bytes = 1000;
  SimDevice d(spec, 1);
  d.alloc(600);
  EXPECT_EQ(d.allocated(), 600u);
  EXPECT_THROW(d.alloc(500), OutOfDeviceMemory);
  d.free(200);
  d.alloc(500);
  EXPECT_EQ(d.allocated(), 900u);
}

TEST(DeviceTest, OutOfMemoryCarriesSizes) {
  auto spec = rtx6000_ada_spec();
  spec.mem_bytes = 100;
  SimDevice d(spec, 0);
  try {
    d.alloc(200);
    FAIL() << "expected throw";
  } catch (const OutOfDeviceMemory& e) {
    EXPECT_EQ(e.requested(), 200u);
    EXPECT_EQ(e.available(), 100u);
  }
}

TEST(DeviceTest, ResetClearsEverything) {
  SimDevice d(rtx6000_ada_spec(), 0);
  d.advance(Phase::kCompute, 1.0);
  d.alloc(100);
  d.reset();
  EXPECT_DOUBLE_EQ(d.clock(), 0.0);
  EXPECT_EQ(d.allocated(), 0u);
  EXPECT_DOUBLE_EQ(d.timeline().sum(), 0.0);
}

TEST(InterconnectTest, TransferTimeLatencyPlusBandwidth) {
  LinkSpec link{.bandwidth = 1e9, .latency_s = 1e-3};
  EXPECT_DOUBLE_EQ(transfer_seconds(link, 1'000'000'000), 1.001);
  // Scaled workloads shrink the latency term only.
  EXPECT_DOUBLE_EQ(transfer_seconds(link, 1'000'000'000, 1000.0),
                   1.0 + 1e-6);
}

TEST(ExecutorTest, MakespanSingleSm) {
  std::vector<double> blocks{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(grid_makespan(blocks, 1), 6.0);
}

TEST(ExecutorTest, MakespanManySms) {
  std::vector<double> blocks{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(grid_makespan(blocks, 3), 3.0);
  EXPECT_DOUBLE_EQ(grid_makespan(blocks, 100), 3.0);
}

TEST(ExecutorTest, FifoSchedulingOrder) {
  // 2 SMs, blocks 2,2,1,1,4 in order: SM times (2,2)->(3,3)->(7,3).
  std::vector<double> blocks{2.0, 2.0, 1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(grid_makespan(blocks, 2), 7.0);
}

TEST(ExecutorTest, EqualBlocksPerfectOccupancy) {
  std::vector<double> blocks(64, 0.5);
  EXPECT_DOUBLE_EQ(grid_makespan(blocks, 16), 2.0);
  EXPECT_DOUBLE_EQ(grid_occupancy(blocks, 16), 1.0);
}

TEST(ExecutorTest, EmptyGrid) {
  EXPECT_DOUBLE_EQ(grid_makespan({}, 4), 0.0);
}

TEST(CostModelTest, MemoryBoundKernelScalesWithBytes) {
  CostModel cost(rtx6000_ada_spec());
  KernelProfile p;
  EcBlockStats small{.nnz = 1000, .output_runs = 1000, .max_run = 1,
                     .max_multiplicity = 1, .modes = 3, .rank = 32,
                     .block_width = 32};
  EcBlockStats big = small;
  big.nnz = 2000;
  big.output_runs = 2000;
  EXPECT_NEAR(cost.ec_block_seconds(big, p) / cost.ec_block_seconds(small, p),
              2.0, 1e-9);
}

TEST(CostModelTest, SortedRunsAreCheaperThanScattered) {
  CostModel cost(rtx6000_ada_spec());
  KernelProfile p;
  EcBlockStats sorted{.nnz = 10000, .output_runs = 10, .max_run = 1000,
                      .max_multiplicity = 1000, .modes = 3, .rank = 32,
                      .block_width = 32};
  EcBlockStats scattered = sorted;
  scattered.output_runs = 10000;
  scattered.max_run = 1;
  EXPECT_LT(cost.ec_block_seconds(sorted, p),
            cost.ec_block_seconds(scattered, p));
}

TEST(CostModelTest, HotScatteredRowPaysAtomicPenalty) {
  CostModel cost(rtx6000_ada_spec());
  KernelProfile p;
  EcBlockStats cold{.nnz = 10000, .output_runs = 10000, .max_run = 1,
                    .max_multiplicity = 1, .modes = 3, .rank = 32,
                    .block_width = 32};
  EcBlockStats hot = cold;
  hot.max_multiplicity = 5000;  // scattered hot row
  EXPECT_GT(cost.ec_block_seconds(hot, p), cost.ec_block_seconds(cold, p));
  // Disabled atomics remove the penalty.
  KernelProfile no_atomics = p;
  no_atomics.atomic_scale = 0.0;
  EXPECT_DOUBLE_EQ(cost.ec_block_seconds(hot, no_atomics),
                   cost.ec_block_seconds(cold, no_atomics));
}

TEST(CostModelTest, ThreadblockUtilization) {
  EXPECT_DOUBLE_EQ(threadblock_utilization(32, 32), 1.0);
  EXPECT_DOUBLE_EQ(threadblock_utilization(32, 8), 0.25);
  EXPECT_DOUBLE_EQ(threadblock_utilization(32, 64), 1.0);  // capped
}

TEST(CostModelTest, NarrowBlocksRunSlower) {
  CostModel cost(rtx6000_ada_spec());
  KernelProfile p;
  EcBlockStats wide{.nnz = 1000, .output_runs = 1000, .max_run = 1,
                    .max_multiplicity = 1, .modes = 3, .rank = 32,
                    .block_width = 32};
  EcBlockStats narrow = wide;
  narrow.block_width = 8;
  EXPECT_NEAR(cost.ec_block_seconds(narrow, p) /
                  cost.ec_block_seconds(wide, p),
              4.0, 1e-9);
}

TEST(CostModelTest, FactorReadEfficiencyCacheModel) {
  // rank 32 -> a mode is cached when dim * 128 bytes <= l2.
  const std::uint64_t l2 = 96ull << 20;
  std::vector<std::uint64_t> dims{15'500'000, 6'200'000, 783'900, 6'100,
                                  6'100};
  // Output mode 0: inputs are modes 1..4; modes 2-4 fit the 96 MiB L2
  // (mode 2 is 100.3 MB < 100.66 MB), mode 1 is huge (uncached).
  const double eff = factor_read_efficiency(dims, 32, 0, l2);
  EXPECT_NEAR(eff, (1.0 + 3 * kCachedReadFraction) / 4.0, 1e-12);
  // No cache model: everything full price.
  EXPECT_DOUBLE_EQ(factor_read_efficiency(dims, 32, 0, 0), 1.0);
}

TEST(PlatformTest, RejectsDegenerateConfigurations) {
  // Rejected in every build type, not by an assert: a platform with no
  // GPUs must never run.
  for (const int gpus : {0, -2}) {
    PlatformConfig cfg;
    cfg.num_gpus = gpus;
    EXPECT_THROW(Platform{cfg}, std::invalid_argument) << gpus << " GPUs";
  }
  for (const double scale : {0.5, 0.0, std::nan("")}) {
    PlatformConfig cfg;
    cfg.workload_scale = scale;
    EXPECT_THROW(Platform{cfg}, std::invalid_argument) << "scale " << scale;
  }
  EXPECT_THROW(make_default_platform(0), std::invalid_argument);
  EXPECT_NO_THROW(make_default_platform(1));
}

TEST(PlatformTest, BarrierAlignsClocks) {
  auto platform = make_default_platform(4);
  platform.gpu(0).advance(Phase::kCompute, 1.0);
  platform.gpu(2).advance(Phase::kCompute, 3.0);
  platform.barrier();
  for (int g = 0; g < 4; ++g) {
    EXPECT_DOUBLE_EQ(platform.gpu(g).clock(), 3.0);
  }
  EXPECT_DOUBLE_EQ(platform.gpu(0).timeline().total(Phase::kSync), 2.0);
  EXPECT_DOUBLE_EQ(platform.gpu(2).timeline().total(Phase::kSync), 0.0);
}

TEST(PlatformTest, P2pOccupiesBothEnds) {
  auto platform = make_default_platform(2);
  platform.gpu(0).advance(Phase::kCompute, 1.0);
  platform.p2p(0, 1, 1'000'000);
  // Receiver waited for the sender, then both moved by the transfer time.
  EXPECT_DOUBLE_EQ(platform.gpu(0).clock(), platform.gpu(1).clock());
  EXPECT_GT(platform.gpu(1).timeline().total(Phase::kSync), 0.9);
}

TEST(PlatformTest, HostLinkContention) {
  PlatformConfig one;
  one.num_gpus = 1;
  PlatformConfig four;
  four.num_gpus = 4;
  Platform p1(one), p4(four);
  // With 4 GPUs streaming, each link is capped at aggregate/4.
  EXPECT_GT(p4.h2d_seconds(1ull << 30), p1.h2d_seconds(1ull << 30));
}

TEST(PlatformTest, WorkloadScaleShrinksFixedCostsNotCapacity) {
  PlatformConfig cfg;
  cfg.workload_scale = 1000.0;
  Platform scaled(cfg);
  Platform full{PlatformConfig{}};
  // Capacity is a full-scale property (feasibility is decided by the
  // analytic memory model, not by scaled allocations).
  EXPECT_EQ(scaled.gpu(0).capacity(), full.gpu(0).capacity());
  // Bandwidth term identical, latency term scaled down.
  const auto large = static_cast<std::uint64_t>(1e9);
  EXPECT_LT(scaled.h2d_seconds(large), full.h2d_seconds(large));
  EXPECT_NEAR(scaled.h2d_seconds(large), full.h2d_seconds(large),
              pcie_host_link().latency_s);
  EXPECT_LT(scaled.kernel_launch_seconds(), full.kernel_launch_seconds());
}

TEST(PlatformTest, AggregateTimelineSumsDevices) {
  auto platform = make_default_platform(2);
  platform.gpu(0).advance(Phase::kCompute, 1.0);
  platform.gpu(1).advance(Phase::kCompute, 2.0);
  platform.host().advance(Phase::kHostCompute, 4.0);
  const auto agg = platform.aggregate_timeline();
  EXPECT_DOUBLE_EQ(agg.total(Phase::kCompute), 3.0);
  EXPECT_DOUBLE_EQ(agg.total(Phase::kHostCompute), 4.0);
}

TEST(PlatformTest, ResetRestoresPristineState) {
  auto platform = make_default_platform(2);
  platform.gpu(0).advance(Phase::kCompute, 1.0);
  platform.gpu(0).alloc(1000);
  platform.reset();
  EXPECT_DOUBLE_EQ(platform.makespan(), 0.0);
  EXPECT_EQ(platform.gpu(0).allocated(), 0u);
}

TEST(TimelineTest, PhaseNamesAndAccumulate) {
  EXPECT_STREQ(phase_name(Phase::kCompute), "compute");
  EXPECT_STREQ(phase_name(Phase::kPeerToPeer), "p2p");
  Timeline a, b;
  a.add(Phase::kCompute, 1.0);
  b.add(Phase::kCompute, 2.0);
  b.add(Phase::kSync, 0.5);
  a += b;
  EXPECT_DOUBLE_EQ(a.total(Phase::kCompute), 3.0);
  EXPECT_DOUBLE_EQ(a.sum(), 3.5);
}

}  // namespace
}  // namespace amped::sim
