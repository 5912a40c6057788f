#include "tensor/coo_tensor.hpp"

#include <bit>
#include <cassert>
#include <memory>
#include <sstream>

#include "util/radix_sort.hpp"

namespace amped {

CooTensor::CooTensor(std::vector<index_t> dims) : dims_(std::move(dims)) {
  assert(!dims_.empty() && dims_.size() <= kMaxModes);
  index_.resize(dims_.size());
}

CooTensor CooTensor::from_parts(std::vector<index_t> dims,
                                std::vector<std::vector<index_t>> indices,
                                std::vector<value_t> values) {
  CooTensor t(std::move(dims));
  assert(indices.size() == t.num_modes());
  for ([[maybe_unused]] const auto& col : indices) {
    assert(col.size() == values.size());
  }
  t.index_ = std::move(indices);
  t.values_ = std::move(values);
  return t;
}

void CooTensor::push_back(std::span<const index_t> coords, value_t value) {
  assert(coords.size() == num_modes());
  for (std::size_t m = 0; m < num_modes(); ++m) {
    index_[m].push_back(coords[m]);
  }
  values_.push_back(value);
}

void CooTensor::reserve(nnz_t n) {
  for (auto& v : index_) v.reserve(n);
  values_.reserve(n);
}

void CooTensor::apply_permutation(std::span<const nnz_t> perm) {
  assert(perm.size() == nnz());
  std::vector<value_t> new_vals(values_.size());
  for (nnz_t i = 0; i < perm.size(); ++i) new_vals[i] = values_[perm[i]];
  values_ = std::move(new_vals);
  for (auto& idx : index_) {
    std::vector<index_t> next(idx.size());
    for (nnz_t i = 0; i < perm.size(); ++i) next[i] = idx[perm[i]];
    idx = std::move(next);
  }
}

CooColumns CooTensor::columns() const {
  CooColumns c;
  c.dims = dims_;
  for (std::size_t m = 0; m < num_modes(); ++m) c.indices[m] = index_[m];
  c.values = values_;
  return c;
}

void CooTensor::sort_by_mode(std::size_t major_mode) {
  *this = sorted_copy_by_mode(columns(), major_mode);
}

CooTensor sorted_copy_by_mode(const CooColumns& input, std::size_t major_mode) {
  const std::size_t modes = input.dims.size();
  assert(major_mode < modes);
  const nnz_t n = input.values.size();
  std::vector<index_t> dims(input.dims.begin(), input.dims.end());

  // Key order: major mode first, then the remaining modes ascending.
  std::array<std::size_t, kMaxModes> order{};
  std::size_t k = 0;
  order[k++] = major_mode;
  for (std::size_t m = 0; m < modes; ++m) {
    if (m != major_mode) order[k++] = m;
  }
  std::array<unsigned, kMaxModes> bits{};
  unsigned key_bits = 0;
  for (k = 0; k < modes; ++k) {
    bits[k] = util::bits_for_bound(dims[order[k]]);
    key_bits += bits[k];
  }

  if (key_bits > 64) {
    std::vector<std::vector<index_t>> cols;
    cols.reserve(modes);
    for (std::size_t m = 0; m < modes; ++m) {
      cols.emplace_back(input.indices[m].begin(), input.indices[m].end());
    }
    CooTensor t = CooTensor::from_parts(
        std::move(dims), std::move(cols),
        std::vector<value_t>(input.values.begin(), input.values.end()));
    std::vector<util::SortKeyColumn> key_columns;
    key_columns.reserve(modes);
    for (k = 0; k < modes; ++k) {
      key_columns.push_back({t.indices(order[k]), t.dim(order[k])});
    }
    t.apply_permutation(util::lexicographic_sort_permutation(key_columns));
    return t;
  }

  // Pack.
  std::array<const index_t*, kMaxModes> src{};
  for (k = 0; k < modes; ++k) src[k] = input.indices[order[k]].data();
  auto key_of = [&](nnz_t i) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < modes; ++j) key = (key << bits[j]) | src[j][i];
    return key;
  };
  const bool fused = key_bits <= 32;
  util::RadixHistogram hist(key_bits);
  auto records = util::uninitialized_array<std::uint64_t>(n);
  std::unique_ptr<value_t[]> values;  // only when the value has its own array
  if (fused) {
    for (nnz_t i = 0; i < n; ++i) {
      const std::uint64_t key = key_of(i);
      hist.count(key);
      records[i] = key << 32 | std::bit_cast<std::uint32_t>(input.values[i]);
    }
  } else {
    values = util::uninitialized_array<value_t>(n);
    for (nnz_t i = 0; i < n; ++i) {
      const std::uint64_t key = key_of(i);
      hist.count(key);
      records[i] = key;
      values[i] = input.values[i];
    }
  }

  // Sort. The scratch buffers are freed before the unpack allocates the
  // output columns.
  {
    auto scratch = util::uninitialized_array<std::uint64_t>(n);
    if (fused) {
      util::radix_sort_records(records, scratch, n, 32, hist);
    } else {
      auto value_scratch = util::uninitialized_array<value_t>(n);
      util::radix_sort_records(records, scratch, values, value_scratch, n,
                               hist);
    }
  }

  // Unpack.
  std::vector<std::vector<index_t>> cols(modes, std::vector<index_t>(n));
  std::vector<value_t> out_values(n);
  std::array<index_t*, kMaxModes> dst{};
  for (k = 0; k < modes; ++k) dst[k] = cols[order[k]].data();
  auto unpack_key = [&](nnz_t i, std::uint64_t key) {
    for (std::size_t j = modes; j-- > 0;) {
      dst[j][i] =
          static_cast<index_t>(key & ((std::uint64_t{1} << bits[j]) - 1));
      key >>= bits[j];
    }
  };
  if (fused) {
    for (nnz_t i = 0; i < n; ++i) {
      unpack_key(i, records[i] >> 32);
      out_values[i] =
          std::bit_cast<value_t>(static_cast<std::uint32_t>(records[i]));
    }
  } else {
    for (nnz_t i = 0; i < n; ++i) {
      unpack_key(i, records[i]);
      out_values[i] = values[i];
    }
  }
  return CooTensor::from_parts(std::move(dims), std::move(cols),
                               std::move(out_values));
}

nnz_t CooTensor::coalesce() {
  if (nnz() == 0) return 0;
  const nnz_t n = nnz();
  nnz_t write = 0;
  auto same_coords = [&](nnz_t a, nnz_t b) {
    for (std::size_t m = 0; m < num_modes(); ++m) {
      if (index_[m][a] != index_[m][b]) return false;
    }
    return true;
  };
  for (nnz_t read = 1; read < n; ++read) {
    if (same_coords(write, read)) {
      values_[write] += values_[read];
    } else {
      ++write;
      for (std::size_t m = 0; m < num_modes(); ++m) {
        index_[m][write] = index_[m][read];
      }
      values_[write] = values_[read];
    }
  }
  const nnz_t kept = write + 1;
  for (auto& idx : index_) idx.resize(kept);
  values_.resize(kept);
  return n - kept;
}

bool CooTensor::indices_in_bounds() const {
  for (std::size_t m = 0; m < num_modes(); ++m) {
    for (index_t idx : index_[m]) {
      if (idx >= dims_[m]) return false;
    }
  }
  return true;
}

void CooTensor::coords_of(nnz_t n, std::span<index_t> out) const {
  assert(n < nnz() && out.size() >= num_modes());
  for (std::size_t m = 0; m < num_modes(); ++m) out[m] = index_[m][n];
}

namespace {
std::string human_count(double v) {
  std::ostringstream os;
  os.precision(3);
  if (v >= 1e9) {
    os << v / 1e9 << "B";
  } else if (v >= 1e6) {
    os << v / 1e6 << "M";
  } else if (v >= 1e3) {
    os << v / 1e3 << "K";
  } else {
    os << v;
  }
  return os.str();
}
}  // namespace

std::string CooTensor::shape_string() const {
  return amped::shape_string(dims_, nnz());
}

std::string shape_string(std::span<const index_t> dims, nnz_t nnz) {
  std::ostringstream os;
  for (std::size_t m = 0; m < dims.size(); ++m) {
    if (m) os << " x ";
    os << human_count(static_cast<double>(dims[m]));
  }
  os << ", " << human_count(static_cast<double>(nnz)) << " nnz";
  return os.str();
}

}  // namespace amped
