// LSD radix sort for the preprocessing hot path.
//
// Every execution format build starts by sorting nonzeros under some
// lexicographic key (mode-major order, block-major order, linearised
// order). Comparison sorts pay a multi-array gather per comparison —
// O(n log n) cache-hostile loads. When the concatenated key fits in 64
// bits the order is equivalent to an integer sort of packed keys, which an
// LSD radix sort finishes in ceil(bits/11) streaming passes (digits of at
// most 11 bits, split evenly: 24 bits sort in 3 passes of 8, 35 bits in 4
// of 9). The digit histograms are counted while the caller packs the keys
// (RadixHistogram), so the passes only scatter.
//
// Two entry points share the pass engine: radix_sort_records moves whole
// 64-bit records (key in the high bits, payload such as a float value in
// the low bits) — what mode-copy builds use (CooTensor::sorted_copy_by_mode)
// — and radix_sort_permutation returns the sorting permutation for callers
// that reorder several arrays themselves. This lives in util/ (not
// formats/) because tensor/ must not depend on formats/.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/types.hpp"

namespace amped::util {

// One lexicographic key component: `keys[i]` is element i's value for this
// component, all values < `bound`. Components are given most significant
// first.
struct SortKeyColumn {
  std::span<const index_t> keys;
  index_t bound = 0;
};

// Bits needed to store values in [0, bound); at least 1.
unsigned bits_for_bound(index_t bound);

// Widest digit one pass sorts on: 2^11 counters stay in L1/L2.
inline constexpr unsigned kMaxRadixDigitBits = 11;

// Bucket counts of every digit of a `key_bits`-bit key (key_bits <= 64),
// for the fewest passes whose digits are at most kMaxRadixDigitBits wide.
// Counting is permutation-invariant, so the caller fills it in the same
// streaming pass that writes the keys.
class RadixHistogram {
 public:
  explicit RadixHistogram(unsigned key_bits);

  unsigned passes() const { return passes_; }
  unsigned digit_bits() const { return digit_bits_; }
  std::size_t buckets() const { return std::size_t{1} << digit_bits_; }

  void count(std::uint64_t key) {
    for (unsigned p = 0; p < passes_; ++p) {
      ++counts_[(p << digit_bits_) + ((key >> (p * digit_bits_)) & mask_)];
    }
  }
  // Counts of pass `p` (digit p, least significant first).
  std::span<const nnz_t> pass_counts(unsigned p) const {
    return {counts_.data() + (std::size_t{p} << digit_bits_), buckets()};
  }

 private:
  unsigned passes_ = 0;
  unsigned digit_bits_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<nnz_t> counts_;
};

// Uninitialised array of `n` elements: the sorts overwrite every element,
// so a zero-fill (std::vector's resize) would be a wasted pass over fresh
// pages.
template <typename T>
std::unique_ptr<T[]> uninitialized_array(nnz_t n) {
  return std::make_unique_for_overwrite<T[]>(n);
}

// Stable LSD sort of `n` records by their bits [key_shift, key_shift +
// key_bits), where `hist` counted exactly those keys (`record >>
// key_shift`); the bits below key_shift ride along. Passes whose digit is
// the same for every record are skipped. `scratch` holds n records; the
// sorted records end in `records` (the buffers are swapped when needed).
void radix_sort_records(std::unique_ptr<std::uint64_t[]>& records,
                        std::unique_ptr<std::uint64_t[]>& scratch, nnz_t n,
                        unsigned key_shift, const RadixHistogram& hist);

// Same over bare keys (key_shift 0) with a parallel value array moved
// alongside: the layout for keys too wide to share a word with a value.
void radix_sort_records(std::unique_ptr<std::uint64_t[]>& keys,
                        std::unique_ptr<std::uint64_t[]>& key_scratch,
                        std::unique_ptr<value_t[]>& values,
                        std::unique_ptr<value_t[]>& value_scratch, nnz_t n,
                        const RadixHistogram& hist);

// Stable LSD radix sort of `keys` (only the low `key_bits` bits are
// significant). Returns the sorting permutation: element i of the sorted
// order is input element perm[i]. Ties keep input order.
std::vector<nnz_t> radix_sort_permutation(std::span<const std::uint64_t> keys,
                                          unsigned key_bits);

// Permutation sorting elements lexicographically by `columns` (first
// column most significant). Packs the columns into 64-bit keys and radix
// sorts when the total bit width allows; otherwise falls back to a
// comparison sort with the same ordering. The radix path is stable; the
// fallback breaks full-key ties arbitrarily (callers that need full
// determinism must make keys unique, as all format builds do).
std::vector<nnz_t> lexicographic_sort_permutation(
    std::span<const SortKeyColumn> columns);

}  // namespace amped::util
