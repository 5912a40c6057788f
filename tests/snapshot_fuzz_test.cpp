// Fuzz-style robustness tests for the snapshot v2 reader: every header
// and segment-table byte of a valid .amptns file is bit-flipped, payload
// and checksum regions are corrupted, and the file is truncated at every
// interesting boundary. The contract under attack is "clean error, never
// a crash": read_snapshot_file either succeeds (a flip in a reserved or
// redundant byte may be harmless) or throws std::runtime_error — it must
// never segfault, overflow, or read out of bounds. The ASan CI preset
// runs this suite, which is what turns "no crash observed" into "no UB
// observed".
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "tensor/generator.hpp"

namespace amped {
namespace {

namespace fs = std::filesystem;

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("amped_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);

    GeneratorOptions opt;
    opt.dims = {48, 32, 24};
    opt.nnz = 500;
    opt.zipf_exponents = {0.5, 0.5, 0.5};
    opt.seed = 99;
    auto tensor = generate_random(opt);
    tensor.sort_by_mode(0);

    valid_path_ = (dir_ / "valid.amptns").string();
    io::write_snapshot_file(tensor, valid_path_);

    std::ifstream in(valid_path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    valid_bytes_.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    ASSERT_GT(valid_bytes_.size(), 64u);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_corrupted(const std::vector<char>& bytes) const {
    const std::string path = (dir_ / "corrupt.amptns").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // The property under test: the reader finishes — success or a typed
  // error — and never escapes with a crash, UB, or a foreign exception.
  // Returns true when the file was rejected.
  static bool read_survives(const std::string& path, const std::string& what) {
    try {
      const CooTensor t = io::read_snapshot_file(path);
      // A successful read must at least be self-consistent.
      EXPECT_TRUE(t.num_modes() == 0 || t.indices_in_bounds()) << what;
      return false;
    } catch (const std::runtime_error&) {
      return true;  // the clean error the contract promises
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": non-runtime_error exception: " << e.what();
      return true;
    }
  }

  fs::path dir_;
  std::string valid_path_;
  std::vector<char> valid_bytes_;
};

TEST_F(SnapshotFuzzTest, ValidFileRoundTrips) {
  const CooTensor t = io::read_snapshot_file(valid_path_);
  EXPECT_EQ(t.nnz(), 500u);
  EXPECT_EQ(t.num_modes(), 3u);
}

TEST_F(SnapshotFuzzTest, EveryHeaderBitFlipIsHandled) {
  // All 512 single-bit corruptions of the 64-byte header.
  for (std::size_t byte = 0; byte < 64; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = valid_bytes_;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      read_survives(write_corrupted(bytes),
                    "header byte " + std::to_string(byte) + " bit " +
                        std::to_string(bit));
    }
  }
}

TEST_F(SnapshotFuzzTest, EverySegmentTableBitFlipIsRejected) {
  const auto layout = io::inspect_snapshot(valid_path_);
  const std::size_t table_bytes = layout.segments.size() * 40;
  ASSERT_EQ(layout.segments.size(), 5u);  // dims + 3 indices + values
  for (std::size_t byte = 64; byte < 64 + table_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = valid_bytes_;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      // The table is covered end-to-end by the header's table checksum,
      // so every single-bit flip must be rejected, reserved bytes
      // included.
      EXPECT_TRUE(read_survives(
          write_corrupted(bytes),
          "table byte " + std::to_string(byte) + " bit " +
              std::to_string(bit)))
          << "segment-table flip at byte " << byte << " bit " << bit
          << " was not detected";
    }
  }
}

TEST_F(SnapshotFuzzTest, PayloadCorruptionIsRejectedByChecksums) {
  // Flip a bit at the start, middle, and end of every segment payload:
  // each must trip that segment's checksum.
  const auto layout = io::inspect_snapshot(valid_path_);
  for (std::size_t s = 0; s < layout.segments.size(); ++s) {
    const auto& seg = layout.segments[s];
    if (seg.bytes == 0) continue;
    for (std::uint64_t rel : {std::uint64_t{0}, seg.bytes / 2,
                              seg.bytes - 1}) {
      auto bytes = valid_bytes_;
      const std::size_t pos = static_cast<std::size_t>(seg.offset + rel);
      ASSERT_LT(pos, bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
      EXPECT_TRUE(read_survives(write_corrupted(bytes),
                                "segment " + std::to_string(s) + " offset " +
                                    std::to_string(rel)))
          << "payload corruption in segment " << s << " at +" << rel
          << " was not detected";
    }
  }
}

TEST_F(SnapshotFuzzTest, TruncationAtEveryBoundaryIsRejected) {
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 63, 64, 65};
  const auto layout = io::inspect_snapshot(valid_path_);
  for (const auto& seg : layout.segments) {
    lengths.push_back(static_cast<std::size_t>(seg.offset));
    lengths.push_back(static_cast<std::size_t>(seg.offset + 1));
    if (seg.bytes > 0) {
      lengths.push_back(static_cast<std::size_t>(seg.offset + seg.bytes - 1));
    }
  }
  lengths.push_back(valid_bytes_.size() - 1);
  for (std::size_t len : lengths) {
    if (len >= valid_bytes_.size()) continue;
    auto bytes = valid_bytes_;
    bytes.resize(len);
    EXPECT_TRUE(read_survives(write_corrupted(bytes),
                              "truncated to " + std::to_string(len)))
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST_F(SnapshotFuzzTest, GrowingGarbageTailIsHandled) {
  // Trailing garbage after the last segment: the reader may ignore or
  // reject it, but must not misparse.
  auto bytes = valid_bytes_;
  bytes.insert(bytes.end(), 256, static_cast<char>(0xAB));
  read_survives(write_corrupted(bytes), "garbage tail");
}

TEST_F(SnapshotFuzzTest, AdversarialHeaderFieldValues) {
  // Targeted overwrites of whole header fields with hostile values:
  // extreme counts and offsets whose byte products overflow u64 or point
  // far outside the file.
  struct Case {
    std::size_t offset;  // header field position
    std::uint64_t value;
  };
  const Case cases[] = {
      {8, 0},                     // num_modes = 0
      {8, UINT64_MAX},            // num_modes astronomical
      {8, 1u << 20},              // num_modes large but plausible-ish
      {16, UINT64_MAX},           // nnz overflows any size computation
      {16, UINT64_MAX / 4},       // nnz * 4 overflows
      {24, 0},                    // no segments
      {24, UINT64_MAX},           // segment count overflows table size
      {24, 1u << 24},             // table larger than the file
      {32, 0},                    // table at offset 0 (inside header)
      {32, UINT64_MAX},           // table offset out of range
      {32, UINT64_MAX - 39},      // offset + entry size wraps
  };
  for (const auto& c : cases) {
    auto bytes = valid_bytes_;
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[c.offset + i] = static_cast<char>((c.value >> (8 * i)) & 0xFF);
    }
    read_survives(write_corrupted(bytes),
                  "field@" + std::to_string(c.offset) + "=" +
                      std::to_string(c.value));
  }
}

TEST_F(SnapshotFuzzTest, AdversarialSegmentEntryValues) {
  // Hostile segment-table entries with the table checksum recomputed so
  // the entry itself is what the reader must survive (the previous tests
  // prove a *stale* checksum is caught; this one proves a *consistent*
  // but malicious table cannot cause UB either).
  const auto layout = io::inspect_snapshot(valid_path_);
  const std::size_t table_off = 64;
  const std::size_t entry_bytes = 40;
  const std::size_t table_bytes = layout.segments.size() * entry_bytes;
  struct Case {
    std::size_t entry;
    std::size_t field_off;  // within the entry
    std::uint64_t value;
    std::size_t field_size;
  };
  const Case cases[] = {
      {0, 0, 7, 4},                    // unknown segment kind
      {1, 4, 1u << 20, 4},             // indices segment for absurd mode
      {0, 8, UINT64_MAX, 8},           // offset out of file
      {0, 8, UINT64_MAX - 8, 8},       // offset + bytes wraps
      {0, 16, UINT64_MAX, 8},          // bytes out of file
      {2, 16, 3, 8},                   // bytes not a multiple of the type
      {0, 8, 1, 8},                    // misaligned offset
  };
  for (const auto& c : cases) {
    auto bytes = valid_bytes_;
    const std::size_t pos = table_off + c.entry * entry_bytes + c.field_off;
    for (std::size_t i = 0; i < c.field_size; ++i) {
      bytes[pos + i] = static_cast<char>((c.value >> (8 * i)) & 0xFF);
    }
    // Recompute the header's table checksum over the altered table.
    const std::uint64_t sum =
        io::checksum64(bytes.data() + table_off, table_bytes);
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[40 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    }
    EXPECT_TRUE(read_survives(write_corrupted(bytes),
                              "entry " + std::to_string(c.entry) + " field+" +
                                  std::to_string(c.field_off)))
        << "malicious entry " << c.entry << " field+" << c.field_off
        << " value " << c.value << " was accepted";
  }
}

}  // namespace
}  // namespace amped
