// The AMPED execution format: one sharded tensor copy per output mode.
//
// Following §3.1/§3.2, preprocessing builds, for every mode d, a copy of
// the tensor sorted by the mode-d index and a shard directory over it.
// All copies live in (simulated) host CPU memory (§4.4); shards stream to
// GPUs during execution. Unlike FLYCOO-GPU there is no dynamic remapping
// and no shard IDs embedded in elements — the multiple host-side copies
// replace them (§3, "we maintain multiple copies of the input tensor in
// CPU external memory").
//
// When the N sorted copies do not fit the host memory budget
// (io/memory_budget.hpp), the build switches to the out-of-core path:
// copies are constructed one at a time and spilled to snapshot-v2 files,
// and MTTKRP streams shards back from disk (io/shard_stream.hpp) —
// bit-identical output, one more level in the streaming hierarchy
// (disk→host→GPU).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "tensor/coo_tensor.hpp"

namespace amped {

namespace io {
class BudgetReservation;
class MappedCooTensor;
class SpilledModeCopy;
}  // namespace io

// Where the per-mode sorted copies live after the build.
enum class BuildStorage {
  kAuto,      // resident unless the budget says the copies will not fit
  kResident,  // always in host memory (the paper's configuration)
  kSpilled,   // always on disk (forced; tests and budget-constrained runs)
};

struct AmpedBuildOptions {
  // Shards per GPU per mode; more shards give the balancer finer grain at
  // the cost of per-shard transfer latency and grid-launch overhead.
  std::size_t shards_per_gpu = 24;
  int num_gpus = 4;
  BuildStorage storage = BuildStorage::kAuto;
  // Directory for spill files ("" = AMPED_SPILL_DIR env or system temp).
  std::string spill_dir;

  // Throws std::invalid_argument for num_gpus < 1 or shards_per_gpu < 1
  // (a build with either would hold copies with zero shards). Called by
  // both AmpedTensor::build overloads.
  void validate() const;
};

// Simulated host-CPU preprocessing cost (Fig. 10) plus real wall time.
struct PreprocessStats {
  double host_seconds = 0.0;  // simulated, at the modelled host throughput
  double wall_seconds = 0.0;  // actual time this process spent building
  std::size_t bytes_built = 0;
  bool spilled = false;       // copies went to disk instead of host memory
  // Fault-recovery accounting of the out-of-core path: transient spill
  // writes retried, corrupt spill files rebuilt from the source tensor,
  // and mode copies kept resident because their spill failed permanently
  // but the memory budget had headroom (graceful degradation).
  std::size_t spill_retries = 0;
  std::size_t spill_rebuilds = 0;
  std::size_t degraded_to_resident = 0;
};

class AmpedTensor {
 public:
  // One sorted + sharded copy per output mode. Exactly one of `tensor`
  // (resident) or `spill` (on disk) backs the elements.
  struct ModeCopy {
    CooTensor tensor;        // sorted by `partition.mode`; empty if spilled
    ModePartition partition;
    std::shared_ptr<io::SpilledModeCopy> spill;  // null when resident
    // Budget charge for a copy kept resident as the degradation fallback
    // of a failed spill (null otherwise; fully-resident builds charge one
    // shared footprint reservation on the tensor instead).
    std::shared_ptr<io::BudgetReservation> reservation;
    // Per-ISP run structure of this copy's shards, filled by the first
    // kernel that runs each (shard, ISP size) and read by every later
    // one (exec::make_shard_kernel). Shared: copies of the tensor hold
    // the same sorted elements, hence the same entries.
    std::shared_ptr<IspRunTable> isp_runs = std::make_shared<IspRunTable>();

    bool spilled() const { return spill != nullptr; }
  };

  static AmpedTensor build(const CooTensor& input,
                           const AmpedBuildOptions& options,
                           PreprocessStats* stats = nullptr);
  // Same build from an mmap-backed snapshot view: per-mode copies are
  // sorted straight from the mapping (no parse, no intermediate copy).
  static AmpedTensor build(const io::MappedCooTensor& input,
                           const AmpedBuildOptions& options,
                           PreprocessStats* stats = nullptr);

  std::size_t num_modes() const { return copies_.size(); }
  const std::vector<index_t>& dims() const { return dims_; }
  nnz_t nnz() const { return nnz_; }

  const ModeCopy& mode_copy(std::size_t d) const { return copies_[d]; }

  // True when any mode copy lives on disk.
  bool spilled() const;

  // Bytes one element occupies in any copy (COO payload).
  std::size_t bytes_per_nnz() const {
    return dims_.size() * sizeof(index_t) + sizeof(value_t);
  }

  // Bytes of one shard when streamed to a GPU (COO payload).
  std::uint64_t shard_bytes(std::size_t d, std::size_t shard_id) const;

  // Logical footprint of all copies — the host memory a fully resident
  // build occupies (spilled builds keep the same bytes on disk instead).
  std::uint64_t total_bytes() const;

  // Frobenius norm squared of the nonzero values, accumulated in mode-0
  // sorted order at build time (so CPD's fit needs no resident copy).
  double values_norm_sq() const { return values_norm_sq_; }

 private:
  static AmpedTensor build_impl(const CooColumns& input,
                                const AmpedBuildOptions& options,
                                PreprocessStats* stats);

  std::vector<index_t> dims_;
  nnz_t nnz_ = 0;
  double values_norm_sq_ = 0.0;
  std::vector<ModeCopy> copies_;
  // Budget charge for resident copies; shared so the (rare) copied
  // AmpedTensor does not double-release.
  std::shared_ptr<io::BudgetReservation> reservation_;
};

// Simulated host seconds to build the AMPED copies for a tensor with `nnz`
// nonzeros and `modes` modes (N sort passes over the nonzeros); shared
// with the Fig. 10 bench so the number printed always matches the model.
double model_amped_preprocess_seconds(nnz_t nnz, std::size_t modes,
                                      double host_sort_keys_per_sec = 0.0);

}  // namespace amped
