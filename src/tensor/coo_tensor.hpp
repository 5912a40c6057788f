// N-mode sparse tensor in COOrdinate (COO) format, structure-of-arrays.
//
// COO is the interchange format of this project: generators produce it,
// the FROSTT .tns reader parses into it, and every execution format
// (AMPED shards, CSF, HiCOO, BLCO) is built from a COO tensor during
// preprocessing. Indices are stored one contiguous array per mode (SoA)
// so mode-specific passes stream exactly the coordinates they touch.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/types.hpp"

namespace amped {

// Read-only column spans of a COO tensor, owned (CooTensor::columns) or
// mapped (io::MappedCooTensor::columns): the input of a mode-copy build.
struct CooColumns {
  std::span<const index_t> dims;
  std::array<std::span<const index_t>, kMaxModes> indices{};  // dims.size()
  std::span<const value_t> values;
};

class CooTensor {
 public:
  CooTensor() = default;

  // Creates an empty tensor with the given mode sizes.
  explicit CooTensor(std::vector<index_t> dims);

  // Adopts fully-built SoA arrays without per-element appends: `indices`
  // holds one column per mode, all sized like `values`. This is the bulk
  // path used by the storage engine (snapshot reloads, parallel ingest,
  // shard streams); push_back stays the incremental one.
  static CooTensor from_parts(std::vector<index_t> dims,
                              std::vector<std::vector<index_t>> indices,
                              std::vector<value_t> values);

  std::size_t num_modes() const { return dims_.size(); }
  nnz_t nnz() const { return values_.size(); }
  const std::vector<index_t>& dims() const { return dims_; }
  index_t dim(std::size_t mode) const { return dims_[mode]; }

  std::span<const index_t> indices(std::size_t mode) const {
    return index_[mode];
  }
  std::span<index_t> mutable_indices(std::size_t mode) { return index_[mode]; }
  std::span<const value_t> values() const { return values_; }
  std::span<value_t> mutable_values() { return values_; }
  CooColumns columns() const;

  // Appends one nonzero. `coords` must have num_modes() entries.
  void push_back(std::span<const index_t> coords, value_t value);
  void reserve(nnz_t n);

  // Sorts nonzeros lexicographically with `major_mode` as the most
  // significant key, remaining modes in ascending mode order. This is the
  // order in which an output-mode-d tensor copy is laid out. Same as
  // `*this = sorted_copy_by_mode(columns(), major_mode)`.
  void sort_by_mode(std::size_t major_mode);

  // Merges duplicate coordinates (summing values). Requires any sorted
  // order; returns the number of merged-away entries.
  nnz_t coalesce();

  // True when every index is within its mode size.
  bool indices_in_bounds() const;

  // Bytes one nonzero occupies in COO (indices + value); used by the
  // simulator's memory-capacity and transfer accounting.
  std::size_t bytes_per_nnz() const {
    return num_modes() * sizeof(index_t) + sizeof(value_t);
  }
  std::size_t storage_bytes() const { return nnz() * bytes_per_nnz(); }

  // Gathers the coordinates of nonzero `n` into `out` (size >= num_modes).
  void coords_of(nnz_t n, std::span<index_t> out) const;

  // Human-readable "8.2M x 177K x 8.1M, 4.7B nnz"-style description.
  std::string shape_string() const;

  // Applies `perm` (a permutation of [0, nnz)) to all index arrays and the
  // value array: element i of the result is element perm[i] of the input.
  void apply_permutation(std::span<const nnz_t> perm);

 private:
  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> index_;  // index_[mode][n]
  std::vector<value_t> values_;
};

// A copy of `input` in CooTensor::sort_by_mode(major_mode) order, built
// straight from the column spans: the one build behind sort_by_mode and
// every AmpedTensor mode copy. Keys that fit 64 bits (the mode-major
// concatenation of every mode's index bits) take three streaming steps:
//  - pack: one pass writes a 64-bit record per nonzero — `key << 32 |
//    bits(value)` when the key fits 32 bits, else the bare key with the
//    value in a parallel array — and counts every digit's histogram;
//  - sort: a stable LSD radix sort of the records by the key bits only
//    (util::radix_sort_records), so ties keep input order;
//  - unpack: one pass writes the index columns and values back out.
// Wider keys fall back to lexicographic_sort_permutation +
// apply_permutation on a deep copy. Either way the result is
// memcmp-identical to sorting a copy through the permutation.
CooTensor sorted_copy_by_mode(const CooColumns& input, std::size_t major_mode);

// The "8.2M x 177K x 8.1M, 4.7B nnz" rendering behind
// CooTensor::shape_string, shared with non-owning tensor views.
std::string shape_string(std::span<const index_t> dims, nnz_t nnz);

}  // namespace amped
