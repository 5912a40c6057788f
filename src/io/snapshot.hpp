// Snapshot v2: the versioned on-disk tensor format of the storage engine.
//
// Layout (all fields little-endian, as written by the host):
//
//   offset 0   header, 64 bytes
//     [ 0.. 8)  magic "AMPTNS02"
//     [ 8..16)  u64 num_modes
//     [16..24)  u64 nnz
//     [24..32)  u64 num_segments  (= num_modes + 2)
//     [32..40)  u64 segment table offset (= 64)
//     [40..48)  u64 FNV checksum of the segment table bytes
//     [48..64)  reserved, zero
//   offset 64  segment table, num_segments x 40-byte entries
//     u32 kind (0 = dims, 1 = indices, 2 = values)
//     u32 param (mode number for kind 1, else 0)
//     u64 offset    -- absolute, 64-byte aligned
//     u64 bytes     -- payload size
//     u64 checksum  -- FNV over the payload
//     u64 reserved, zero
//   then one 64-byte-aligned segment per entry:
//     dims: num_modes x u64; indices: nnz x u32 per mode; values: nnz x f32
//
// 64-byte segment alignment means a mapped segment can be consumed
// in place as a typed array on any cache-line-aligned architecture — the
// zero-copy property `MappedCooTensor` relies on. Writes go to a temp
// file in the destination directory and are published with an atomic
// rename after fsync, so a crash mid-write never corrupts an existing
// snapshot. The reader also accepts v1 ("AMPTNS01") files for backward
// compatibility.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"

namespace amped::io {

inline constexpr char kSnapshotMagicV2[8] = {'A', 'M', 'P', 'T',
                                             'N', 'S', '0', '2'};
inline constexpr char kSnapshotMagicV1[8] = {'A', 'M', 'P', 'T',
                                             'N', 'S', '0', '1'};
inline constexpr std::size_t kSnapshotAlignment = 64;

enum class SegmentKind : std::uint32_t {
  kDims = 0,
  kIndices = 1,
  kValues = 2,
};

// FNV-1a variant over 64-bit little-endian words (tail zero-padded, length
// folded into the seed): one multiply per 8 bytes keeps verification at
// memory-bandwidth order instead of byte-at-a-time speed.
std::uint64_t checksum64(const void* data, std::size_t bytes);

// Writes `t` as a v2 snapshot via temp file + fsync + atomic rename.
void write_snapshot_file(const CooTensor& t, const std::string& path);

// Reads a v2 snapshot (checksums verified) into an owned tensor; v1 files
// are accepted and routed through the v1 reader. Throws std::runtime_error
// on open failure, bad structure, truncation, or checksum mismatch.
CooTensor read_snapshot_file(const std::string& path);

// Borrowed, validated view of a v2 snapshot's payload inside a mapped
// byte range. The spans alias the underlying bytes.
struct SnapshotView {
  std::vector<index_t> dims;
  nnz_t nnz = 0;
  std::vector<std::span<const index_t>> indices;  // one span per mode
  std::span<const value_t> values;
};

// Parses and validates a v2 snapshot held in `file`; `context` names the
// source in error messages. With verify_checksums the payload of every
// segment is hashed (touches all pages); without, only the header and
// segment table are validated.
SnapshotView parse_snapshot(std::span<const std::byte> file,
                            bool verify_checksums,
                            const std::string& context);

// Segment directory of a v2 snapshot file, for tests and tooling.
struct SnapshotSegmentInfo {
  SegmentKind kind = SegmentKind::kDims;
  std::uint32_t param = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};
struct SnapshotLayout {
  std::uint64_t num_modes = 0;
  nnz_t nnz = 0;
  std::vector<SnapshotSegmentInfo> segments;
};
SnapshotLayout inspect_snapshot(const std::string& path);

// Crash-safe file writer: bytes accumulate in `path + ".tmp-<pid>"`;
// commit() flushes, fsyncs, and atomically renames onto `path`. If the
// writer is destroyed uncommitted (error paths), the temp file is
// removed and any previous file at `path` is untouched.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  void write(const void* data, std::size_t bytes);
  // Writes zero bytes until the file offset reaches `offset`.
  void pad_to(std::uint64_t offset);
  std::uint64_t offset() const { return offset_; }
  void commit();

 private:
  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;
  bool committed_ = false;
};

}  // namespace amped::io
