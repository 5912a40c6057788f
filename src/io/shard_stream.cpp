#include "io/shard_stream.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "io/snapshot.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped::io {

// ---------------------------------------------------------------------------
// SpilledModeCopy

std::string resolve_spill_dir(const std::string& requested) {
  if (!requested.empty()) return requested;
  const char* env = std::getenv("AMPED_SPILL_DIR");
  if (env != nullptr && *env != '\0') return env;
  return std::filesystem::temp_directory_path().string();
}

namespace {
std::string next_spill_path(const std::string& dir, std::size_t mode) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/amped-spill-p" + std::to_string(::getpid()) + "-m" +
         std::to_string(mode) + "-" +
         std::to_string(counter.fetch_add(1)) + ".amptns";
}
}  // namespace

SpilledModeCopy::SpilledModeCopy(const CooTensor& sorted, std::size_t mode,
                                 const std::string& dir, SpillStats* stats)
    : path_(next_spill_path(resolve_spill_dir(dir), mode)) {
  constexpr int kMaxRebuilds = 3;
  SpillStats local;
  try {
    for (int attempt = 1;; ++attempt) {
      // Transient write failures (injected faults, interrupted syscalls
      // surfaced as TransientError) are retried; each failed attempt's
      // temp file is removed by AtomicFileWriter's destructor.
      fault::retry_transient(
          "spill write",
          [&] { write_snapshot_file(sorted, path_); }, {},
          &local.retries);
      try {
        AMPED_FAULT_POINT("spill.verify");
        // Just written and renamed into place by this process; skip the
        // checksum sweep so mapping stays O(1) instead of O(file).
        map_ = MappedCooTensor(path_, {.verify_checksums = false});
        break;
      } catch (const std::exception& e) {
        // The published file does not map back as a valid snapshot
        // (bitrot, a lying disk, or an injected corruption): the source
        // tensor is still resident, so rebuild instead of aborting.
        std::remove(path_.c_str());
        if (attempt > kMaxRebuilds) {
          throw std::runtime_error("spill: " + path_ +
                                   " failed validation after " +
                                   std::to_string(kMaxRebuilds) +
                                   " rebuilds: " + e.what());
        }
        ++local.rebuilds;
        AMPED_LOG_WARN << "spill: " << path_
                       << " failed validation; rebuilding from the source "
                          "tensor (" << e.what() << ")";
      }
    }
  } catch (...) {
    // No orphan spill files on any failure path: the destructor will not
    // run for a throwing constructor, so unlink here.
    std::remove(path_.c_str());
    throw;
  }
  if (stats != nullptr) {
    stats->retries += local.retries;
    stats->rebuilds += local.rebuilds;
  }
  if (local.retries) {
    metrics::counter("stream.spill_retries")
        .inc(static_cast<std::uint64_t>(local.retries));
  }
  if (local.rebuilds) {
    metrics::counter("stream.spill_rebuilds")
        .inc(static_cast<std::uint64_t>(local.rebuilds));
  }
}

SpilledModeCopy::~SpilledModeCopy() {
  // Unlink before the mapping goes away: POSIX keeps the bytes reachable
  // through the mapping, and the directory entry disappears immediately.
  std::remove(path_.c_str());
}

CooTensor SpilledModeCopy::read_range(nnz_t begin, nnz_t end) const {
  AMPED_FAULT_POINT("spill.read");
  assert(begin <= end && end <= nnz());
  const std::size_t modes = num_modes();
  std::vector<std::vector<index_t>> cols(modes);
  for (std::size_t m = 0; m < modes; ++m) {
    const auto src = map_.indices(m);
    cols[m].assign(src.begin() + static_cast<std::ptrdiff_t>(begin),
                   src.begin() + static_cast<std::ptrdiff_t>(end));
  }
  const auto vals = map_.values();
  return CooTensor::from_parts(
      map_.dims(), std::move(cols),
      std::vector<value_t>(vals.begin() + static_cast<std::ptrdiff_t>(begin),
                           vals.begin() + static_cast<std::ptrdiff_t>(end)));
}

// ---------------------------------------------------------------------------
// ShardStreamer

namespace {
enum SlotState { kIdle, kQueued, kRunning, kDone, kCancelled };
}  // namespace

struct ShardStreamer::Slot {
  std::mutex mutex;
  std::condition_variable cv;
  int state = kIdle;
  std::size_t pos = 0;
  CooTensor buffer;
  BudgetReservation charge;
  std::exception_ptr error;
};

struct ShardStreamer::StreamState {
  const SpilledModeCopy* spill = nullptr;
  std::vector<std::pair<nnz_t, nnz_t>> ranges;
  std::array<Slot, 2> slots;

  // Fetches range `pos` into `slot` (caller already moved it to
  // kRunning). Never throws: failures land in slot.error.
  void load(Slot& slot, std::size_t pos) {
    CooTensor buffer;
    BudgetReservation charge;
    std::exception_ptr error;
    try {
      // Transient read-ahead failures (injected faults, EINTR-class
      // conditions) retry with bounded backoff before the error is
      // surfaced to the consumer at acquire().
      fault::retry_transient("shard stream read-ahead", [&] {
        AMPED_FAULT_POINT("stream.readahead");
        const auto [begin, end] = ranges[pos];
        charge = BudgetReservation(
            HostMemoryBudget::global(),
            (end - begin) * spill->bytes_per_nnz(), "shard stream buffer");
        buffer = spill->read_range(begin, end);
      });
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(slot.mutex);
    slot.buffer = std::move(buffer);
    slot.charge = std::move(charge);
    slot.error = error;
    slot.state = kDone;
    slot.cv.notify_all();
  }
};

ShardStreamer::ShardStreamer(const CooTensor& resident)
    : resident_(&resident) {}

ShardStreamer::ShardStreamer(const SpilledModeCopy& spill,
                             std::vector<std::pair<nnz_t, nnz_t>> ranges)
    : state_(std::make_shared<StreamState>()) {
  state_->spill = &spill;
  state_->ranges = std::move(ranges);
  if (!state_->ranges.empty()) schedule(0);
}

ShardStreamer::~ShardStreamer() {
  if (!state_) return;
  for (auto& slot : state_->slots) {
    std::unique_lock lock(slot.mutex);
    if (slot.state == kQueued) {
      // The pool task will observe the cancellation and return without
      // touching the (about to be invalid) spill source.
      slot.state = kCancelled;
    } else if (slot.state == kRunning) {
      slot.cv.wait(lock, [&] { return slot.state == kDone; });
    }
  }
}

void ShardStreamer::schedule(std::size_t pos) {
  auto& slot = state_->slots[pos % 2];
  {
    std::lock_guard lock(slot.mutex);
    assert(slot.state == kIdle);
    slot.state = kQueued;
    slot.pos = pos;
    slot.error = nullptr;
  }
  // The task shares ownership of the state so a load queued behind busy
  // workers stays valid even if the streamer is destroyed first.
  global_thread_pool().submit([state = state_, pos] {
    auto& s = state->slots[pos % 2];
    {
      std::lock_guard lock(s.mutex);
      if (s.state != kQueued || s.pos != pos) return;  // claimed/cancelled
      s.state = kRunning;
    }
    state->load(s, pos);
  });
}

ShardStreamer::View ShardStreamer::acquire(std::size_t pos) {
  if (resident_ != nullptr) return {resident_, 0};
  auto& st = *state_;
  assert(pos < st.ranges.size());
  if (pos >= 1) {
    // The caller is done with pos-1's view; recycle its slot for the
    // next read-ahead.
    auto& prev = st.slots[(pos - 1) % 2];
    std::lock_guard lock(prev.mutex);
    assert(prev.state == kDone && prev.pos == pos - 1);
    prev.buffer = CooTensor{};
    prev.charge.reset();
    prev.state = kIdle;
  }
  if (pos + 1 < st.ranges.size()) schedule(pos + 1);

  auto& slot = st.slots[pos % 2];
  std::unique_lock lock(slot.mutex);
  if (slot.state == kQueued && slot.pos == pos) {
    // All workers busy — claim the queued load and run it inline rather
    // than blocking on a task that cannot start.
    static metrics::Counter& inline_loads =
        metrics::counter("stream.inline_loads");
    inline_loads.inc();
    slot.state = kRunning;
    lock.unlock();
    st.load(slot, pos);
    lock.lock();
  } else {
    // The read-ahead pool either delivered already or is in flight: the
    // double-buffering did its job.
    static metrics::Counter& readahead_hits =
        metrics::counter("stream.readahead_hits");
    readahead_hits.inc();
  }
  slot.cv.wait(lock, [&] { return slot.state == kDone && slot.pos == pos; });
  if (slot.error) {
    const auto error = slot.error;
    lock.unlock();
    std::rethrow_exception(error);
  }
  return {&slot.buffer, st.ranges[pos].first};
}

}  // namespace amped::io
