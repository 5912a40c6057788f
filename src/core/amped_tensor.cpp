#include "core/amped_tensor.hpp"

#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/cpd.hpp"  // tensor_norm_sq
#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/shard_stream.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace amped {

namespace {
// Sustained parallel sort rate of the 2-socket EPYC host for 16-24 byte
// records, in keys/s per sort pass. Comparison-based parallel sorts reach
// a few hundred million keys/s at this scale; the log(nnz) depth is folded
// in by the caller.
constexpr double kHostSortKeysPerSec = 3.2e9;
}  // namespace

void AmpedBuildOptions::validate() const {
  if (num_gpus < 1) {
    throw std::invalid_argument(
        "AmpedBuildOptions: num_gpus must be >= 1 (got " +
        std::to_string(num_gpus) + ")");
  }
  if (shards_per_gpu < 1) {
    throw std::invalid_argument(
        "AmpedBuildOptions: shards_per_gpu must be >= 1 (got 0)");
  }
}

double model_amped_preprocess_seconds(nnz_t nnz, std::size_t modes,
                                      double host_sort_keys_per_sec) {
  if (host_sort_keys_per_sec <= 0.0) {
    host_sort_keys_per_sec = kHostSortKeysPerSec;
  }
  if (nnz == 0) return 0.0;
  const double n = static_cast<double>(nnz);
  const double depth = std::max(1.0, std::log2(n) / 16.0);
  // One full sort pass per output mode, each O(n log n) with the depth
  // normalised so the rate constant is calibrated at n = 2^16.
  return static_cast<double>(modes) * n * depth / host_sort_keys_per_sec;
}

AmpedTensor AmpedTensor::build_impl(const CooColumns& input,
                                    const AmpedBuildOptions& options,
                                    PreprocessStats* stats) {
  options.validate();
  WallTimer timer;

  const std::size_t modes = input.dims.size();
  AmpedTensor out;
  out.dims_.assign(input.dims.begin(), input.dims.end());
  out.nnz_ = input.values.size();
  out.copies_.resize(modes);

  const std::size_t shards =
      options.shards_per_gpu * static_cast<std::size_t>(options.num_gpus);
  const std::uint64_t copy_bytes = out.nnz_ * out.bytes_per_nnz();
  const std::uint64_t footprint =
      copy_bytes * static_cast<std::uint64_t>(modes);

  auto& budget = io::HostMemoryBudget::global();
  bool spill = options.storage == BuildStorage::kSpilled;
  if (options.storage == BuildStorage::kAuto && budget.limit() != 0 &&
      footprint > budget.remaining()) {
    spill = true;
    AMPED_LOG_INFO << "amped build: " << modes << " copies ("
                   << io::format_bytes(footprint)
                   << ") exceed the host memory budget ("
                   << io::format_bytes(budget.remaining())
                   << " available); spilling mode copies to disk";
  }

  if (!spill) {
    // Resident build: charge the full footprint up front (this is what
    // "host residency" costs), then build per-mode copies in parallel.
    // Per-mode copy builds are independent (each reads the input's
    // columns, builds its sorted copy from them and writes its own slot),
    // so they spread across the host thread pool. Slot order makes the
    // result independent of completion order.
    out.reservation_ = std::make_shared<io::BudgetReservation>(
        budget, footprint, "AmpedTensor resident mode copies");
    std::vector<std::exception_ptr> errors(modes);
    global_thread_pool().parallel_for(
        modes, [&](std::size_t d) {
          try {
            ModeCopy copy;
            copy.tensor = sorted_copy_by_mode(input, d);
            copy.partition = build_mode_partition(copy.tensor, d, shards);
            // Overlaps the other modes' builds; only this task writes it.
            if (d == 0) out.values_norm_sq_ = tensor_norm_sq(copy.tensor);
            out.copies_[d] = std::move(copy);
          } catch (...) {
            errors[d] = std::current_exception();
          }
        });
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  } else {
    // Out-of-core build: one mode at a time, bounding tracked host usage
    // at a single copy; each sorted copy is spilled to a snapshot-v2
    // file and freed before the next mode starts. (Serial by design —
    // parallel mode builds would multiply the transient footprint.)
    const std::string dir = io::resolve_spill_dir(options.spill_dir);
    io::SpillStats spill_stats;
    std::size_t degraded = 0;
    for (std::size_t d = 0; d < modes; ++d) {
      auto charge = std::make_shared<io::BudgetReservation>(
          budget, copy_bytes, "AmpedTensor mode copy under build");
      ModeCopy copy;
      CooTensor sorted = sorted_copy_by_mode(input, d);
      copy.partition = build_mode_partition(sorted, d, shards);
      if (d == 0) {
        // Same accumulation order as the resident path (mode-0 sorted).
        out.values_norm_sq_ = tensor_norm_sq(sorted);
      }
      try {
        copy.spill = std::make_shared<io::SpilledModeCopy>(sorted, d, dir,
                                                           &spill_stats);
      } catch (const std::exception& spill_error) {
        // Graceful degradation: the spill failed permanently (retries and
        // rebuilds exhausted inside SpilledModeCopy), but the sorted copy
        // is still in memory. Keep it resident if the budget allows both
        // this copy and the transient copy the next mode's build needs;
        // otherwise the spill error propagates.
        const bool more_modes = d + 1 < modes;
        if (more_modes && budget.limit() != 0 &&
            budget.remaining() < copy_bytes) {
          throw std::runtime_error(
              "amped build: spilling mode " + std::to_string(d) +
              " failed (" + spill_error.what() +
              ") and the host memory budget has no headroom to keep the "
              "copy resident (" +
              io::format_bytes(budget.remaining()) + " free, " +
              io::format_bytes(copy_bytes) + " needed for the next mode)");
        }
        AMPED_LOG_WARN << "amped build: spilling mode " << d << " failed ("
                       << spill_error.what() << "); keeping the copy "
                       << "resident (" << io::format_bytes(copy_bytes)
                       << " charged against the budget)";
        // The build-transient charge becomes the copy's permanent one.
        copy.tensor = std::move(sorted);
        copy.reservation = std::move(charge);
        ++degraded;
        metrics::counter("build.degraded_to_resident").inc();
      }
      out.copies_[d] = std::move(copy);
    }
    if (stats) {
      stats->spill_retries = spill_stats.retries;
      stats->spill_rebuilds = spill_stats.rebuilds;
      stats->degraded_to_resident = degraded;
    }
  }

  if (stats) {
    stats->wall_seconds = timer.seconds();
    stats->host_seconds =
        model_amped_preprocess_seconds(out.nnz_, modes);
    stats->bytes_built = out.total_bytes();
    stats->spilled = spill;
  }
  // Mirror PreprocessStats into the registry so --report-json and the
  // metrics snapshot agree with the stats struct callers get in hand.
  {
    static metrics::Histogram& build_seconds =
        metrics::histogram("build.wall_seconds");
    build_seconds.record_seconds(timer.seconds());
    metrics::counter("build.bytes").inc(out.total_bytes());
    if (spill) metrics::counter("build.spilled").inc();
  }
  return out;
}

AmpedTensor AmpedTensor::build(const CooTensor& input,
                               const AmpedBuildOptions& options,
                               PreprocessStats* stats) {
  return build_impl(input.columns(), options, stats);
}

AmpedTensor AmpedTensor::build(const io::MappedCooTensor& input,
                               const AmpedBuildOptions& options,
                               PreprocessStats* stats) {
  return build_impl(input.columns(), options, stats);
}

bool AmpedTensor::spilled() const {
  for (const auto& c : copies_) {
    if (c.spilled()) return true;
  }
  return false;
}

std::uint64_t AmpedTensor::shard_bytes(std::size_t d,
                                       std::size_t shard_id) const {
  const auto& shard = copies_[d].partition.shards[shard_id];
  return shard.nnz() * bytes_per_nnz();
}

std::uint64_t AmpedTensor::total_bytes() const {
  return static_cast<std::uint64_t>(copies_.size()) * nnz_ * bytes_per_nnz();
}

}  // namespace amped
