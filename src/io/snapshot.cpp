#include "io/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "io/mapped_file.hpp"
#include "tensor/tns_io.hpp"
#include "util/fault.hpp"

namespace amped::io {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kSegmentEntryBytes = 40;

std::uint64_t align_up(std::uint64_t offset) {
  return (offset + kSnapshotAlignment - 1) & ~(kSnapshotAlignment - 1);
}

// On-disk segment table entry. Field-order writes keep this independent of
// struct padding; sizes are asserted where it is serialised.
struct SegmentEntry {
  std::uint32_t kind = 0;
  std::uint32_t param = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

template <typename T>
T load_le(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void append_le(std::vector<std::byte>& out, T v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

std::vector<std::byte> serialise_table(const std::vector<SegmentEntry>& table) {
  std::vector<std::byte> bytes;
  bytes.reserve(table.size() * kSegmentEntryBytes);
  for (const auto& e : table) {
    append_le(bytes, e.kind);
    append_le(bytes, e.param);
    append_le(bytes, e.offset);
    append_le(bytes, e.bytes);
    append_le(bytes, e.checksum);
    append_le(bytes, std::uint64_t{0});  // reserved
  }
  return bytes;
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t bytes) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull ^ bytes;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t n = bytes;
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kPrime;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * kPrime;
  }
  return h;
}

// ---------------------------------------------------------------------------
// AtomicFileWriter

AtomicFileWriter::AtomicFileWriter(const std::string& path)
    : path_(path),
      temp_path_(path + ".tmp-" + std::to_string(::getpid())) {
  file_ = std::fopen(temp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    fail("cannot open " + temp_path_ + " for writing: " +
         std::strerror(errno));
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!committed_) {
    std::remove(temp_path_.c_str());
  }
}

void AtomicFileWriter::write(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  if (file_ == nullptr) {
    fail("write to " + temp_path_ + " after commit or close");
  }
  AMPED_FAULT_POINT("snapshot.write");
  if (std::fwrite(data, 1, bytes, file_) != bytes) {
    fail("short write to " + temp_path_);
  }
  offset_ += bytes;
}

void AtomicFileWriter::pad_to(std::uint64_t offset) {
  if (offset < offset_) fail("pad_to before current offset");
  static constexpr std::array<std::byte, kSnapshotAlignment> kZeros{};
  std::uint64_t remaining = offset - offset_;
  while (remaining > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining,
                                                         kZeros.size()));
    write(kZeros.data(), chunk);
    remaining -= chunk;
  }
}

void AtomicFileWriter::commit() {
  if (file_ == nullptr) fail("commit of " + temp_path_ + " after close");
  if (std::fflush(file_) != 0) fail("flush failed for " + temp_path_);
  AMPED_FAULT_POINT("snapshot.fsync");
  // fsync may be interrupted by a signal before any I/O happens; retry
  // until it succeeds or fails for a real reason.
  while (::fsync(::fileno(file_)) != 0) {
    if (errno != EINTR) {
      fail("fsync failed for " + temp_path_ + ": " + std::strerror(errno));
    }
  }
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    fail("close failed for " + temp_path_);
  }
  file_ = nullptr;
  AMPED_FAULT_POINT("snapshot.rename");
  std::error_code ec;
  std::filesystem::rename(temp_path_, path_, ec);
  if (ec) {
    fail("rename " + temp_path_ + " -> " + path_ + ": " + ec.message());
  }
  committed_ = true;
}

// ---------------------------------------------------------------------------
// Writer

void write_snapshot_file(const CooTensor& t, const std::string& path) {
  const std::uint64_t modes = t.num_modes();
  const std::uint64_t nnz = t.nnz();
  const std::uint64_t segments = modes + 2;

  std::vector<std::uint64_t> dims64(t.dims().begin(), t.dims().end());

  std::vector<SegmentEntry> table;
  table.reserve(segments);
  std::uint64_t cursor =
      align_up(kHeaderBytes + segments * kSegmentEntryBytes);
  auto add_segment = [&](SegmentKind kind, std::uint32_t param,
                         const void* data, std::uint64_t bytes) {
    SegmentEntry e;
    e.kind = static_cast<std::uint32_t>(kind);
    e.param = param;
    e.offset = cursor;
    e.bytes = bytes;
    e.checksum = checksum64(data, static_cast<std::size_t>(bytes));
    table.push_back(e);
    cursor = align_up(cursor + bytes);
  };
  add_segment(SegmentKind::kDims, 0, dims64.data(),
              dims64.size() * sizeof(std::uint64_t));
  for (std::uint64_t m = 0; m < modes; ++m) {
    add_segment(SegmentKind::kIndices, static_cast<std::uint32_t>(m),
                t.indices(m).data(), nnz * sizeof(index_t));
  }
  add_segment(SegmentKind::kValues, 0, t.values().data(),
              nnz * sizeof(value_t));

  const auto table_bytes = serialise_table(table);

  std::vector<std::byte> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(),
                reinterpret_cast<const std::byte*>(kSnapshotMagicV2),
                reinterpret_cast<const std::byte*>(kSnapshotMagicV2) + 8);
  append_le(header, modes);
  append_le(header, nnz);
  append_le(header, static_cast<std::uint64_t>(table.size()));
  append_le(header, static_cast<std::uint64_t>(kHeaderBytes));
  append_le(header, checksum64(table_bytes.data(), table_bytes.size()));
  header.resize(kHeaderBytes, std::byte{0});

  AtomicFileWriter out(path);
  out.write(header.data(), header.size());
  out.write(table_bytes.data(), table_bytes.size());
  for (const auto& e : table) {
    out.pad_to(e.offset);
    // Re-derive the source pointer from the entry so write order always
    // matches the table.
    const void* src = nullptr;
    switch (static_cast<SegmentKind>(e.kind)) {
      case SegmentKind::kDims: src = dims64.data(); break;
      case SegmentKind::kIndices: src = t.indices(e.param).data(); break;
      case SegmentKind::kValues: src = t.values().data(); break;
    }
    out.write(src, static_cast<std::size_t>(e.bytes));
  }
  out.commit();
}

// ---------------------------------------------------------------------------
// Reader

SnapshotView parse_snapshot(std::span<const std::byte> file,
                            bool verify_checksums,
                            const std::string& context) {
  AMPED_FAULT_POINT("snapshot.read");
  auto bad = [&](const std::string& what) -> void {
    fail(what + " in " + context);
  };
  if (file.size() < kHeaderBytes) bad("file shorter than the header");
  if (std::memcmp(file.data(), kSnapshotMagicV2, 8) != 0) {
    bad("bad magic (not an AMPTNS02 snapshot)");
  }
  const auto modes = load_le<std::uint64_t>(file.data() + 8);
  const auto nnz = load_le<std::uint64_t>(file.data() + 16);
  const auto num_segments = load_le<std::uint64_t>(file.data() + 24);
  const auto table_offset = load_le<std::uint64_t>(file.data() + 32);
  const auto table_checksum = load_le<std::uint64_t>(file.data() + 40);

  if (modes > kMaxModes) bad("too many modes");
  if (num_segments != modes + 2) bad("bad segment count");
  // Overflow-safe range checks: a corrupt header must produce a clear
  // error, never an out-of-bounds read (offsets/counts are attacker- or
  // bitrot-controlled here).
  if (table_offset < kHeaderBytes || table_offset > file.size() ||
      num_segments > (file.size() - table_offset) / kSegmentEntryBytes) {
    bad("segment table out of range (truncated file?)");
  }
  if (nnz > file.size() / sizeof(value_t)) {
    // Every element needs at least one 4-byte value in its segment, so a
    // larger claim cannot be honest; this also bounds nnz far below any
    // multiplication overflow in the per-segment size checks.
    bad("nnz larger than the file can hold (truncated file?)");
  }
  const std::byte* table = file.data() + table_offset;
  const std::size_t table_bytes =
      static_cast<std::size_t>(num_segments) * kSegmentEntryBytes;
  if (checksum64(table, table_bytes) != table_checksum) {
    bad("segment table checksum mismatch");
  }

  SnapshotView view;
  view.nnz = nnz;
  view.indices.resize(static_cast<std::size_t>(modes));
  std::vector<bool> mode_seen(static_cast<std::size_t>(modes), false);
  bool dims_seen = false, values_seen = false;

  for (std::uint64_t s = 0; s < num_segments; ++s) {
    const std::byte* e = table + s * kSegmentEntryBytes;
    const auto kind = load_le<std::uint32_t>(e);
    const auto param = load_le<std::uint32_t>(e + 4);
    const auto offset = load_le<std::uint64_t>(e + 8);
    const auto bytes = load_le<std::uint64_t>(e + 16);
    const auto checksum = load_le<std::uint64_t>(e + 24);

    if (offset % kSnapshotAlignment != 0) bad("misaligned segment");
    if (offset > file.size() || bytes > file.size() - offset) {
      bad("segment out of range (truncated file?)");
    }
    const std::byte* payload = file.data() + offset;
    if (verify_checksums &&
        checksum64(payload, static_cast<std::size_t>(bytes)) != checksum) {
      bad("checksum mismatch in segment " + std::to_string(s));
    }

    switch (static_cast<SegmentKind>(kind)) {
      case SegmentKind::kDims: {
        if (dims_seen || bytes != modes * sizeof(std::uint64_t)) {
          bad("bad dims segment");
        }
        dims_seen = true;
        view.dims.resize(static_cast<std::size_t>(modes));
        for (std::uint64_t m = 0; m < modes; ++m) {
          const auto d =
              load_le<std::uint64_t>(payload + m * sizeof(std::uint64_t));
          if (d > UINT32_MAX) bad("mode size exceeds 32-bit index space");
          view.dims[static_cast<std::size_t>(m)] =
              static_cast<index_t>(d);
        }
        break;
      }
      case SegmentKind::kIndices: {
        if (param >= modes || mode_seen[param] ||
            bytes != nnz * sizeof(index_t)) {
          bad("bad index segment");
        }
        mode_seen[param] = true;
        view.indices[param] = std::span<const index_t>(
            reinterpret_cast<const index_t*>(payload),
            static_cast<std::size_t>(nnz));
        break;
      }
      case SegmentKind::kValues: {
        if (values_seen || bytes != nnz * sizeof(value_t)) {
          bad("bad values segment");
        }
        values_seen = true;
        view.values = std::span<const value_t>(
            reinterpret_cast<const value_t*>(payload),
            static_cast<std::size_t>(nnz));
        break;
      }
      default:
        bad("unknown segment kind " + std::to_string(kind));
    }
  }
  if (!dims_seen || !values_seen) bad("missing segment");
  for (std::uint64_t m = 0; m < modes; ++m) {
    if (!mode_seen[static_cast<std::size_t>(m)]) bad("missing index segment");
  }
  return view;
}

CooTensor read_snapshot_file(const std::string& path) {
  MappedFile file(path);
  if (file.size() >= 8 &&
      std::memcmp(file.data(), kSnapshotMagicV1, 8) == 0) {
    return read_binary_file(path);  // v1 compatibility
  }
  const auto view = parse_snapshot({file.data(), file.size()},
                                   /*verify_checksums=*/true, path);
  if (view.dims.empty()) return CooTensor{};

  std::vector<std::vector<index_t>> cols;
  cols.reserve(view.indices.size());
  for (const auto& span : view.indices) {
    cols.emplace_back(span.begin(), span.end());
  }
  return CooTensor::from_parts(
      view.dims, std::move(cols),
      std::vector<value_t>(view.values.begin(), view.values.end()));
}

SnapshotLayout inspect_snapshot(const std::string& path) {
  MappedFile file(path);
  // Structure-only parse; payload checksums are the caller's business.
  parse_snapshot({file.data(), file.size()}, /*verify_checksums=*/false,
                 path);
  SnapshotLayout layout;
  layout.num_modes = load_le<std::uint64_t>(file.data() + 8);
  layout.nnz = load_le<std::uint64_t>(file.data() + 16);
  const auto num_segments = load_le<std::uint64_t>(file.data() + 24);
  const auto table_offset = load_le<std::uint64_t>(file.data() + 32);
  for (std::uint64_t s = 0; s < num_segments; ++s) {
    const std::byte* e = file.data() + table_offset + s * kSegmentEntryBytes;
    SnapshotSegmentInfo info;
    info.kind = static_cast<SegmentKind>(load_le<std::uint32_t>(e));
    info.param = load_le<std::uint32_t>(e + 4);
    info.offset = load_le<std::uint64_t>(e + 8);
    info.bytes = load_le<std::uint64_t>(e + 16);
    info.checksum = load_le<std::uint64_t>(e + 24);
    layout.segments.push_back(info);
  }
  return layout;
}

}  // namespace amped::io
