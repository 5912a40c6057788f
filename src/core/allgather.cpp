#include "core/allgather.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace amped {

std::string to_string(AllGatherAlgo algo) {
  switch (algo) {
    case AllGatherAlgo::kRing: return "ring";
    case AllGatherAlgo::kDirect: return "direct";
    case AllGatherAlgo::kHostStaged: return "host-staged";
  }
  return "?";
}

AllGatherAlgo parse_allgather(const std::string& name) {
  if (name == "ring") return AllGatherAlgo::kRing;
  if (name == "direct") return AllGatherAlgo::kDirect;
  if (name == "host-staged") return AllGatherAlgo::kHostStaged;
  throw std::invalid_argument("unknown all-gather algorithm \"" + name +
                              "\" (expected ring, direct, or host-staged)");
}

namespace {

// One synchronous exchange round: every GPU sends and receives
// concurrently (links are full duplex and pairwise independent), so after
// a barrier each device is busy for the longer of its send and receive.
void exchange_round(sim::Platform& platform,
                    std::span<const std::uint64_t> send_bytes,
                    std::span<const std::uint64_t> recv_bytes,
                    AllGatherReport& report) {
  platform.barrier();
  for (int g = 0; g < platform.num_gpus(); ++g) {
    const auto s = send_bytes[static_cast<std::size_t>(g)];
    const auto r = recv_bytes[static_cast<std::size_t>(g)];
    const double busy =
        std::max(platform.p2p_seconds(s), platform.p2p_seconds(r));
    if (s > 0 || r > 0) {
      platform.gpu(g).advance(sim::Phase::kPeerToPeer, busy);
      report.bytes_moved += s;
    }
  }
  platform.barrier();  // Algorithm 3 line 12: barrier per step
}

}  // namespace

double allgather_seconds(const sim::Platform& platform,
                         std::span<const std::uint64_t> part_bytes,
                         AllGatherAlgo algo) {
  const int m = platform.num_gpus();
  assert(static_cast<int>(part_bytes.size()) == m);
  if (m <= 1) return 0.0;
  const auto mod = [m](int x) { return ((x % m) + m) % m; };
  double total = 0.0;
  switch (algo) {
    case AllGatherAlgo::kRing: {
      // Barrier per step: every round lasts as long as its busiest GPU.
      for (int z = 0; z < m - 1; ++z) {
        double round = 0.0;
        for (int g = 0; g < m; ++g) {
          const auto s = part_bytes[static_cast<std::size_t>(mod(g - z))];
          const auto r = part_bytes[static_cast<std::size_t>(mod(g - z - 1))];
          if (s > 0 || r > 0) {
            round = std::max(round, std::max(platform.p2p_seconds(s),
                                             platform.p2p_seconds(r)));
          }
        }
        total += round;
      }
      break;
    }
    case AllGatherAlgo::kDirect: {
      for (int z = 1; z < m; ++z) {
        double round = 0.0;
        for (int g = 0; g < m; ++g) {
          const auto s = part_bytes[static_cast<std::size_t>(g)];
          const auto r = part_bytes[static_cast<std::size_t>(mod(g - z))];
          if (s > 0 || r > 0) {
            round = std::max(round, std::max(platform.p2p_seconds(s),
                                             platform.p2p_seconds(r)));
          }
        }
        total += round;
      }
      break;
    }
    case AllGatherAlgo::kHostStaged: {
      std::uint64_t full = 0;
      double d2h = 0.0;
      for (int g = 0; g < m; ++g) {
        const auto p = part_bytes[static_cast<std::size_t>(g)];
        full += p;
        d2h = std::max(d2h, platform.d2h_seconds(p));
      }
      const double concat =
          2.0 * static_cast<double>(full) /
          platform.host_cost_model().spec().mem_bandwidth;
      total = d2h + concat + platform.h2d_seconds(full);
      break;
    }
  }
  return total;
}

std::uint64_t allgather_bytes(std::span<const std::uint64_t> part_bytes,
                              AllGatherAlgo algo) {
  const auto m = static_cast<std::uint64_t>(part_bytes.size());
  if (m <= 1) return 0;
  std::uint64_t total = 0;
  for (const auto p : part_bytes) total += p;
  return algo == AllGatherAlgo::kHostStaged ? total + m * total
                                            : (m - 1) * total;
}

AllGatherReport allgather_factor_rows(sim::Platform& platform,
                                      std::span<const std::uint64_t> part_bytes,
                                      AllGatherAlgo algo) {
  const int m = platform.num_gpus();
  assert(static_cast<int>(part_bytes.size()) == m);
  AllGatherReport report;
  if (m <= 1) return report;

  platform.barrier();
  const double start = platform.makespan();
  std::vector<std::uint64_t> send(static_cast<std::size_t>(m)),
      recv(static_cast<std::size_t>(m));

  switch (algo) {
    case AllGatherAlgo::kRing: {
      // Algorithm 3: at step z, GPU g forwards partition (g - z) mod M to
      // GPU (g + 1) mod M while receiving partition (g - z - 1) mod M.
      for (int z = 0; z < m - 1; ++z) {
        for (int g = 0; g < m; ++g) {
          const int sends = ((g - z) % m + m) % m;
          const int recvs = ((g - z - 1) % m + m) % m;
          send[static_cast<std::size_t>(g)] =
              part_bytes[static_cast<std::size_t>(sends)];
          recv[static_cast<std::size_t>(g)] =
              part_bytes[static_cast<std::size_t>(recvs)];
        }
        exchange_round(platform, send, recv, report);
      }
      break;
    }
    case AllGatherAlgo::kDirect: {
      // Round z: GPU g pushes its own partition to peer (g + z) mod M and
      // receives the partition of (g - z) mod M. A GPU's own partition
      // crosses its egress link M-1 times.
      for (int z = 1; z < m; ++z) {
        for (int g = 0; g < m; ++g) {
          send[static_cast<std::size_t>(g)] =
              part_bytes[static_cast<std::size_t>(g)];
          recv[static_cast<std::size_t>(g)] =
              part_bytes[static_cast<std::size_t>(((g - z) % m + m) % m)];
        }
        exchange_round(platform, send, recv, report);
      }
      break;
    }
    case AllGatherAlgo::kHostStaged: {
      // D2H every partition (concurrent per-GPU links), host concatenation
      // (a memcpy-rate pass), then broadcast the full matrix H2D.
      std::uint64_t full = 0;
      for (int g = 0; g < m; ++g) {
        platform.d2h(g, part_bytes[static_cast<std::size_t>(g)]);
        report.bytes_moved += part_bytes[static_cast<std::size_t>(g)];
        full += part_bytes[static_cast<std::size_t>(g)];
      }
      platform.barrier();
      platform.host().wait_until(platform.makespan());
      const double concat =
          2.0 * static_cast<double>(full) /
          platform.host_cost_model().spec().mem_bandwidth;
      platform.host().advance(sim::Phase::kHostCompute, concat);
      // GPUs cannot start their H2D before the host finishes concatenating.
      for (int g = 0; g < m; ++g) {
        platform.gpu(g).wait_until(platform.host().clock());
        platform.h2d(g, full);
        report.bytes_moved += full;
      }
      break;
    }
  }

  platform.barrier();
  report.seconds = platform.makespan() - start;
  return report;
}

}  // namespace amped
