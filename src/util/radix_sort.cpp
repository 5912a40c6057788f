#include "util/radix_sort.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <type_traits>
#include <utility>

namespace amped::util {

unsigned bits_for_bound(index_t bound) {
  unsigned b = 1;
  while ((std::uint64_t{1} << b) < bound) ++b;
  return b;
}

RadixHistogram::RadixHistogram(unsigned key_bits) {
  assert(key_bits <= 64);
  passes_ = (key_bits + kMaxRadixDigitBits - 1) / kMaxRadixDigitBits;
  digit_bits_ = passes_ == 0 ? 0 : (key_bits + passes_ - 1) / passes_;
  mask_ = (std::uint64_t{1} << digit_bits_) - 1;
  counts_.assign(std::size_t{passes_} << digit_bits_, 0);
}

namespace {

// Payload type of records that carry nothing beside their key word.
struct NoPayload {};

// The LSD passes shared by every entry point: scatter (key, payload)
// pairs by one digit per pass, ping-ponging between the data and scratch
// buffers. Returns true when the sorted data ended in the scratch buffers.
template <typename Payload>
bool lsd_passes(std::uint64_t* keys, std::uint64_t* key_scratch,
                Payload* payload, Payload* payload_scratch, nnz_t n,
                unsigned key_shift, const RadixHistogram& hist) {
  if (n <= 1) return false;
  const std::uint64_t mask = hist.buckets() - 1;
  std::vector<nnz_t> offset(hist.buckets());
  bool in_scratch = false;
  for (unsigned p = 0; p < hist.passes(); ++p) {
    const unsigned shift = key_shift + p * hist.digit_bits();
    const auto count = hist.pass_counts(p);
    // A pass where every key shares the digit is the common case for the
    // top passes of narrow keys; it would be a pure copy, so skip it.
    if (count[(keys[0] >> shift) & mask] == n) continue;
    std::exclusive_scan(count.begin(), count.end(), offset.begin(), nnz_t{0});
    for (nnz_t i = 0; i < n; ++i) {
      const nnz_t dst = offset[(keys[i] >> shift) & mask]++;
      key_scratch[dst] = keys[i];
      if constexpr (!std::is_same_v<Payload, NoPayload>) {
        payload_scratch[dst] = payload[i];
      }
    }
    std::swap(keys, key_scratch);
    std::swap(payload, payload_scratch);
    in_scratch = !in_scratch;
  }
  return in_scratch;
}

// Sorting permutation of `n` packed keys that `hist` counted; `keys` is
// consumed as one of the ping-pong buffers. Moving (key, index) pairs
// keeps each pass sequential, where re-gathering keys through the
// permutation every pass would not be.
std::vector<nnz_t> permutation_of(std::unique_ptr<std::uint64_t[]> keys,
                                  nnz_t n, const RadixHistogram& hist) {
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  auto key_scratch = uninitialized_array<std::uint64_t>(n);
  std::vector<nnz_t> perm_scratch(n);
  if (lsd_passes(keys.get(), key_scratch.get(), perm.data(),
                 perm_scratch.data(), n, 0, hist)) {
    perm.swap(perm_scratch);
  }
  return perm;
}

}  // namespace

void radix_sort_records(std::unique_ptr<std::uint64_t[]>& records,
                        std::unique_ptr<std::uint64_t[]>& scratch, nnz_t n,
                        unsigned key_shift, const RadixHistogram& hist) {
  if (lsd_passes<NoPayload>(records.get(), scratch.get(), nullptr, nullptr,
                            n, key_shift, hist)) {
    records.swap(scratch);
  }
}

void radix_sort_records(std::unique_ptr<std::uint64_t[]>& keys,
                        std::unique_ptr<std::uint64_t[]>& key_scratch,
                        std::unique_ptr<value_t[]>& values,
                        std::unique_ptr<value_t[]>& value_scratch, nnz_t n,
                        const RadixHistogram& hist) {
  if (lsd_passes(keys.get(), key_scratch.get(), values.get(),
                 value_scratch.get(), n, 0, hist)) {
    keys.swap(key_scratch);
    values.swap(value_scratch);
  }
}

std::vector<nnz_t> radix_sort_permutation(std::span<const std::uint64_t> keys,
                                          unsigned key_bits) {
  const nnz_t n = keys.size();
  RadixHistogram hist(key_bits);
  auto copy = uninitialized_array<std::uint64_t>(n);
  for (nnz_t i = 0; i < n; ++i) {
    copy[i] = keys[i];
    hist.count(keys[i]);
  }
  return permutation_of(std::move(copy), n, hist);
}

std::vector<nnz_t> lexicographic_sort_permutation(
    std::span<const SortKeyColumn> columns) {
  nnz_t n = columns.empty() ? 0 : columns[0].keys.size();
  std::vector<unsigned> bits;
  bits.reserve(columns.size());
  unsigned total_bits = 0;
  for (const auto& col : columns) {
    assert(col.keys.size() == n);
    bits.push_back(bits_for_bound(col.bound));
    total_bits += bits.back();
  }

  if (total_bits <= 64) {
    RadixHistogram hist(total_bits);
    auto packed = uninitialized_array<std::uint64_t>(n);
    for (nnz_t i = 0; i < n; ++i) {
      std::uint64_t key = 0;
      for (std::size_t c = 0; c < columns.size(); ++c) {
        key = (key << bits[c]) | columns[c].keys[i];
      }
      packed[i] = key;
      hist.count(key);
    }
    return permutation_of(std::move(packed), n, hist);
  }

  // Keys wider than 64 bits: comparison sort, same ordering.
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (const auto& col : columns) {
      if (col.keys[a] != col.keys[b]) return col.keys[a] < col.keys[b];
    }
    return false;
  });
  return perm;
}

}  // namespace amped::util
