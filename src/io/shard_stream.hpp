// Disk tier of the shard streaming hierarchy: spilled mode copies and the
// double-buffered shard streamer.
//
// The paper streams shards host→GPU from N resident sorted copies (§4.4).
// When the host memory budget cannot hold those copies,
// `AmpedTensor::build` spills each finished copy to a snapshot-v2 file and
// execution extends the hierarchy one level down: disk→host→GPU. A
// `SpilledModeCopy` owns one spilled file (mapped, deleted on
// destruction); a `ShardStreamer` feeds the executor shard payloads from
// either a resident copy (zero-cost views) or a spilled one
// (double-buffered: a read-ahead task on the global thread pool fetches
// shard i+1 while shard i computes — a host-side copy engine, mirroring
// the device-side double buffering of `execute_pipelined`).
//
// Read-ahead tasks are *claimable*: if every pool worker is busy (the
// per-GPU executor loops run on the same pool), the consumer claims the
// queued task and loads inline instead of blocking on an unstarted task —
// overlap is opportunistic, deadlock is impossible. Stream buffers are
// charged against the HostMemoryBudget, so tracked peak usage stays under
// the configured limit end to end.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "tensor/coo_tensor.hpp"

namespace amped::io {

// Recovery accounting of one spill (fault-injection tests and the build
// report read these): transient write attempts retried, and corrupt
// files rebuilt from the still-resident source tensor.
struct SpillStats {
  std::size_t retries = 0;
  std::size_t rebuilds = 0;
};

// A mode copy that lives on disk as a snapshot-v2 file instead of in host
// memory. The file is written on construction (atomic rename, checksums)
// and unlinked on destruction; reads go through a persistent mapping, so
// the kernel's page cache — not resident vectors — backs repeated sweeps.
class SpilledModeCopy {
 public:
  // Spills `sorted` (the mode-`mode` sorted copy) to a new file under
  // `dir` (empty = AMPED_SPILL_DIR env or the system temp directory).
  //
  // Failure handling: transient write errors (injected faults, EINTR
  // class) are retried with bounded backoff; a written file that fails
  // validation when mapped back is unlinked and rebuilt from `sorted`
  // (bounded attempts). On permanent failure the constructor throws and
  // leaves no file behind. `stats`, when non-null, accumulates the
  // recovery work performed.
  SpilledModeCopy(const CooTensor& sorted, std::size_t mode,
                  const std::string& dir, SpillStats* stats = nullptr);
  ~SpilledModeCopy();

  SpilledModeCopy(const SpilledModeCopy&) = delete;
  SpilledModeCopy& operator=(const SpilledModeCopy&) = delete;

  std::size_t num_modes() const { return map_.num_modes(); }
  nnz_t nnz() const { return map_.nnz(); }
  const std::vector<index_t>& dims() const { return map_.dims(); }
  std::size_t bytes_per_nnz() const { return map_.bytes_per_nnz(); }
  const std::string& path() const { return path_; }
  std::uint64_t file_bytes() const { return map_.mapped_bytes(); }

  // Copies elements [begin, end) of the sorted copy into an owned tensor
  // (the stream buffer). Budget accounting is the caller's concern.
  CooTensor read_range(nnz_t begin, nnz_t end) const;

 private:
  std::string path_;
  MappedCooTensor map_;
};

// Resolves the spill directory: `requested` if nonempty, else the
// AMPED_SPILL_DIR environment variable, else the system temp directory.
std::string resolve_spill_dir(const std::string& requested);

// Sequential-position shard fetcher over one mode copy. Construction
// declares the fetch order (absolute [begin, end) nnz ranges); acquire(p)
// blocks until range p is resident and schedules read-ahead of p+1.
// Positions must be acquired in order; the view returned for p stays
// valid until acquire(p + 1).
class ShardStreamer {
 public:
  struct View {
    const CooTensor* data = nullptr;  // backing elements
    nnz_t base = 0;  // absolute nnz index of data's element 0
  };

  // Resident source: every view is the copy itself (base 0), no buffering.
  explicit ShardStreamer(const CooTensor& resident);

  // Disk source: ranges stream through two budget-charged buffers.
  ShardStreamer(const SpilledModeCopy& spill,
                std::vector<std::pair<nnz_t, nnz_t>> ranges);

  ~ShardStreamer();

  ShardStreamer(const ShardStreamer&) = delete;
  ShardStreamer& operator=(const ShardStreamer&) = delete;

  View acquire(std::size_t pos);

 private:
  struct Slot;
  struct StreamState;

  void schedule(std::size_t pos);

  const CooTensor* resident_ = nullptr;
  // Shared with pool tasks so a queued load can outlive the streamer
  // (cancelled loads never touch the spill source).
  std::shared_ptr<StreamState> state_;
};

}  // namespace amped::io
