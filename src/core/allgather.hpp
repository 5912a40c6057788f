// Inter-GPU all-gather of output factor-matrix partitions (paper §4.9,
// Algorithm 3).
//
// After a mode's MTTKRP, each GPU holds the updated rows it owns; every
// GPU needs the full matrix before the next mode. The paper uses a ring:
// (M-1) steps, each GPU forwarding the partition it received in the
// previous step to its successor, with a barrier per step. Two alternative
// algorithms are provided for the ablation bench: direct exchange (each
// GPU sends its partition to every peer) and host-staged gather
// (D2H -> concatenate -> broadcast H2D), the strategy AMPED explicitly
// avoids because it routes bulk traffic through the host.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "sim/platform.hpp"

namespace amped {

enum class AllGatherAlgo { kRing, kDirect, kHostStaged };

std::string to_string(AllGatherAlgo algo);
// Parses the names produced by to_string; throws std::invalid_argument
// listing the accepted names on a typo.
AllGatherAlgo parse_allgather(const std::string& name);

struct AllGatherReport {
  double seconds = 0.0;          // platform makespan growth
  std::uint64_t bytes_moved = 0; // total bytes crossing any link
};

// `part_bytes[g]` is the byte size of GPU g's owned partition. All GPU
// clocks advance; a barrier is issued before and after so the report's
// `seconds` is the full synchronised cost of the exchange.
AllGatherReport allgather_factor_rows(sim::Platform& platform,
                                      std::span<const std::uint64_t> part_bytes,
                                      AllGatherAlgo algo = AllGatherAlgo::kRing);

// Pure-cost twin of allgather_factor_rows: the seconds the exchange would
// take on already-synchronised devices, with no clock side effects. The
// graph interpreter (exec/plan.cpp) prices gather *edges* with this so a
// gather can occupy an interval of the modelled timeline without forcing
// every device clock through a barrier.
double allgather_seconds(const sim::Platform& platform,
                         std::span<const std::uint64_t> part_bytes,
                         AllGatherAlgo algo = AllGatherAlgo::kRing);

// Total bytes the exchange puts on the wire, one GPU per entry of
// `part_bytes` — equal to allgather_factor_rows' bytes_moved. Ring and
// direct send every partition to M-1 peers; host-staged moves each
// partition D2H once and broadcasts the concatenation to all M GPUs.
std::uint64_t allgather_bytes(std::span<const std::uint64_t> part_bytes,
                              AllGatherAlgo algo = AllGatherAlgo::kRing);

}  // namespace amped
