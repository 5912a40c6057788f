#include <gtest/gtest.h>

#include <vector>

#include "core/allgather.hpp"

namespace amped {
namespace {

std::vector<std::uint64_t> equal_parts(int m, std::uint64_t bytes) {
  return std::vector<std::uint64_t>(static_cast<std::size_t>(m), bytes);
}

TEST(AllGatherTest, SingleGpuIsFree) {
  auto platform = sim::make_default_platform(1);
  auto report =
      allgather_factor_rows(platform, equal_parts(1, 1 << 20));
  EXPECT_DOUBLE_EQ(report.seconds, 0.0);
  EXPECT_EQ(report.bytes_moved, 0u);
}

TEST(AllGatherTest, RingMovesMMinusOnePartsPerGpu) {
  const int m = 4;
  auto platform = sim::make_default_platform(m);
  const std::uint64_t part = 1 << 20;
  auto report = allgather_factor_rows(platform, equal_parts(m, part),
                                      AllGatherAlgo::kRing);
  // Each of the M GPUs forwards M-1 partitions.
  EXPECT_EQ(report.bytes_moved, static_cast<std::uint64_t>(m) * (m - 1) * part);
  EXPECT_GT(report.seconds, 0.0);
  // All GPUs end synchronised.
  for (int g = 1; g < m; ++g) {
    EXPECT_DOUBLE_EQ(platform.gpu(g).clock(), platform.gpu(0).clock());
  }
}

TEST(AllGatherTest, RingTimeScalesWithBytes) {
  auto small_platform = sim::make_default_platform(4);
  auto big_platform = sim::make_default_platform(4);
  auto small = allgather_factor_rows(small_platform, equal_parts(4, 1 << 20));
  auto big = allgather_factor_rows(big_platform, equal_parts(4, 1 << 24));
  EXPECT_GT(big.seconds, small.seconds * 8);
}

TEST(AllGatherTest, DirectSerialisesOnEgressLink) {
  // Equal parts: direct exchange moves the same bytes as the ring but a
  // GPU must push its partition M-1 times through one link, so it cannot
  // be faster than the ring.
  auto ring_platform = sim::make_default_platform(4);
  auto direct_platform = sim::make_default_platform(4);
  const auto parts = equal_parts(4, 1 << 22);
  auto ring =
      allgather_factor_rows(ring_platform, parts, AllGatherAlgo::kRing);
  auto direct =
      allgather_factor_rows(direct_platform, parts, AllGatherAlgo::kDirect);
  EXPECT_EQ(ring.bytes_moved, direct.bytes_moved);
  EXPECT_GE(direct.seconds, ring.seconds * 0.99);
}

TEST(AllGatherTest, HostStagedPaysHostRoundTrip) {
  auto ring_platform = sim::make_default_platform(4);
  auto staged_platform = sim::make_default_platform(4);
  const auto parts = equal_parts(4, 1 << 22);
  auto ring =
      allgather_factor_rows(ring_platform, parts, AllGatherAlgo::kRing);
  auto staged = allgather_factor_rows(staged_platform, parts,
                                      AllGatherAlgo::kHostStaged);
  // Host staging moves each partition down once and the concatenated
  // matrix up M times.
  EXPECT_GT(staged.bytes_moved, ring.bytes_moved);
  EXPECT_GT(staged_platform.host().timeline().total(sim::Phase::kHostCompute),
            0.0);
  (void)ring;
}

TEST(AllGatherTest, UnevenPartsGateOnLargest) {
  auto even_platform = sim::make_default_platform(2);
  auto uneven_platform = sim::make_default_platform(2);
  auto even = allgather_factor_rows(even_platform, equal_parts(2, 1 << 20));
  std::vector<std::uint64_t> parts{(1 << 21), 0};  // same total
  auto uneven = allgather_factor_rows(uneven_platform, parts);
  EXPECT_GT(uneven.seconds, even.seconds * 1.5);
}

TEST(AllGatherTest, TimeAttributedToPeerToPeerPhase) {
  auto platform = sim::make_default_platform(4);
  allgather_factor_rows(platform, equal_parts(4, 1 << 22));
  const auto agg = platform.aggregate_timeline();
  EXPECT_GT(agg.total(sim::Phase::kPeerToPeer), 0.0);
  EXPECT_DOUBLE_EQ(agg.total(sim::Phase::kHostToDevice), 0.0);
}

TEST(AllGatherTest, AlgoNames) {
  EXPECT_EQ(to_string(AllGatherAlgo::kRing), "ring");
  EXPECT_EQ(to_string(AllGatherAlgo::kDirect), "direct");
  EXPECT_EQ(to_string(AllGatherAlgo::kHostStaged), "host-staged");
}

TEST(AllGatherTest, BytesFormulaMatchesExchangeBookkeeping) {
  // allgather_bytes is the one wire-byte formula the executors report; it
  // must equal what the clock-charging exchange actually books, for every
  // algorithm, with uneven parts (including an empty one) at 1-4 GPUs.
  for (const auto algo : {AllGatherAlgo::kRing, AllGatherAlgo::kDirect,
                          AllGatherAlgo::kHostStaged}) {
    for (int m = 1; m <= 4; ++m) {
      std::vector<std::uint64_t> parts;
      for (int g = 0; g < m; ++g) {
        parts.push_back(g == 1 ? 0 : (std::uint64_t{1} << 16) * (g + 1) + 24);
      }
      auto platform = sim::make_default_platform(m);
      const auto report = allgather_factor_rows(platform, parts, algo);
      EXPECT_EQ(allgather_bytes(parts, algo), report.bytes_moved)
          << to_string(algo) << " on " << m << " GPUs";
    }
  }
}

}  // namespace
}  // namespace amped
