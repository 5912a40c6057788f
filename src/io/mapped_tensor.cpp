#include "io/mapped_tensor.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace amped::io {

MappedCooTensor::MappedCooTensor(const std::string& path, Options options)
    : file_(path) {
  if (file_.size() >= 8 &&
      std::memcmp(file_.data(), kSnapshotMagicV1, 8) == 0) {
    throw std::runtime_error(
        "snapshot: " + path +
        " is a v1 snapshot, which cannot be mapped zero-copy; convert it "
        "with write_snapshot_file(read_snapshot_file(path), path)");
  }
  view_ = parse_snapshot({file_.data(), file_.size()},
                         options.verify_checksums, path);
}

void MappedCooTensor::coords_of(nnz_t n, std::span<index_t> out) const {
  assert(n < nnz() && out.size() >= num_modes());
  for (std::size_t m = 0; m < num_modes(); ++m) {
    out[m] = view_.indices[m][n];
  }
}

bool MappedCooTensor::indices_in_bounds() const {
  for (std::size_t m = 0; m < num_modes(); ++m) {
    for (index_t idx : view_.indices[m]) {
      if (idx >= view_.dims[m]) return false;
    }
  }
  return true;
}

std::string MappedCooTensor::shape_string() const {
  return amped::shape_string(view_.dims, nnz());
}

CooColumns MappedCooTensor::columns() const {
  CooColumns c;
  c.dims = view_.dims;
  for (std::size_t m = 0; m < num_modes(); ++m) {
    c.indices[m] = view_.indices[m];
  }
  c.values = view_.values;
  return c;
}

CooTensor MappedCooTensor::materialize() const {
  if (view_.dims.empty()) return CooTensor{};
  std::vector<std::vector<index_t>> cols;
  cols.reserve(num_modes());
  for (const auto& span : view_.indices) {
    cols.emplace_back(span.begin(), span.end());
  }
  return CooTensor::from_parts(
      view_.dims, std::move(cols),
      std::vector<value_t>(view_.values.begin(), view_.values.end()));
}

}  // namespace amped::io
