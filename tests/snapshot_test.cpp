#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/mapped_tensor.hpp"
#include "io/snapshot.hpp"
#include "tensor/generator.hpp"
#include "tensor/tns_io.hpp"

namespace amped {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("amped_snapshot_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

CooTensor make_tensor(std::vector<index_t> dims, nnz_t nnz,
                      std::uint64_t seed) {
  GeneratorOptions opt;
  opt.dims = std::move(dims);
  opt.nnz = nnz;
  opt.seed = seed;
  return generate_random(opt);
}

// The full shape set the satellite asks for: 1 through 5 modes plus an
// empty (0-nnz) tensor.
std::vector<CooTensor> test_tensor_set() {
  std::vector<CooTensor> set;
  set.push_back(make_tensor({64}, 100, 1));                     // 1 mode
  set.push_back(make_tensor({40, 30}, 300, 2));                 // 2 modes
  set.push_back(make_tensor({20, 30, 10}, 500, 3));             // 3 modes
  set.push_back(make_tensor({12, 9, 7, 5, 4}, 400, 5));         // 5 modes
  set.push_back(CooTensor{std::vector<index_t>{8, 6}});         // nnz == 0
  return set;
}

void expect_tensors_equal(const CooTensor& a, const CooTensor& b) {
  ASSERT_EQ(a.num_modes(), b.num_modes());
  ASSERT_EQ(a.dims(), b.dims());
  ASSERT_EQ(a.nnz(), b.nnz());
  if (a.nnz() == 0) return;  // empty spans may be backed by nullptr
  for (std::size_t m = 0; m < a.num_modes(); ++m) {
    ASSERT_EQ(0, std::memcmp(a.indices(m).data(), b.indices(m).data(),
                             a.nnz() * sizeof(index_t)))
        << "mode " << m << " differs";
  }
  ASSERT_EQ(0, std::memcmp(a.values().data(), b.values().data(),
                           a.nnz() * sizeof(value_t)));
}

TEST_F(SnapshotTest, V2RoundTripAcrossShapes) {
  std::size_t i = 0;
  for (const auto& t : test_tensor_set()) {
    const auto p = path("rt" + std::to_string(i++) + ".amptns");
    io::write_snapshot_file(t, p);
    expect_tensors_equal(t, io::read_snapshot_file(p));
  }
}

TEST_F(SnapshotTest, MappedViewEqualsOwnedTensor) {
  std::size_t i = 0;
  for (const auto& t : test_tensor_set()) {
    const auto p = path("map" + std::to_string(i++) + ".amptns");
    io::write_snapshot_file(t, p);
    io::MappedCooTensor mapped(p);
    ASSERT_EQ(mapped.num_modes(), t.num_modes());
    ASSERT_EQ(mapped.dims(), t.dims());
    ASSERT_EQ(mapped.nnz(), t.nnz());
    for (std::size_t m = 0; m < t.num_modes() && t.nnz() > 0; ++m) {
      ASSERT_EQ(0, std::memcmp(mapped.indices(m).data(),
                               t.indices(m).data(),
                               t.nnz() * sizeof(index_t)));
    }
    if (t.nnz() > 0) {
      ASSERT_EQ(0, std::memcmp(mapped.values().data(), t.values().data(),
                               t.nnz() * sizeof(value_t)));
    }
    EXPECT_EQ(mapped.bytes_per_nnz(), t.bytes_per_nnz());
    EXPECT_EQ(mapped.storage_bytes(), t.storage_bytes());
    EXPECT_EQ(mapped.shape_string(), t.shape_string());
    EXPECT_TRUE(mapped.indices_in_bounds());
    expect_tensors_equal(t, mapped.materialize());
  }
}

TEST_F(SnapshotTest, V1FileReadableThroughV2Reader) {
  const auto t = make_tensor({50, 40}, 500, 3);
  const auto p = path("v1.amptns");
  write_binary_file(t, p);  // v1 writer
  expect_tensors_equal(t, io::read_snapshot_file(p));
}

TEST_F(SnapshotTest, V2FileReadableThroughV1Entry) {
  const auto t = make_tensor({50, 40}, 500, 3);
  const auto p = path("v2.amptns");
  io::write_snapshot_file(t, p);
  expect_tensors_equal(t, read_binary_file(p));  // v1-era call site
}

TEST_F(SnapshotTest, SegmentsAreAligned) {
  const auto t = make_tensor({20, 30, 10}, 123, 9);
  const auto p = path("aligned.amptns");
  io::write_snapshot_file(t, p);
  const auto layout = io::inspect_snapshot(p);
  EXPECT_EQ(layout.num_modes, 3u);
  EXPECT_EQ(layout.nnz, t.nnz());
  ASSERT_EQ(layout.segments.size(), 5u);  // dims + 3 index cols + values
  for (const auto& seg : layout.segments) {
    EXPECT_EQ(seg.offset % io::kSnapshotAlignment, 0u);
  }
}

TEST_F(SnapshotTest, RetiredRunStatsSegmentRejected) {
  // Spill files once carried a fourth segment kind (per-shard run stats).
  // The reader knows dims, indices and values only: a table naming kind
  // 3, or holding one segment more than the modes need, is rejected with
  // a clear error even when its checksum is consistent.
  const auto t = make_tensor({20, 30, 10}, 500, 11);
  const auto p = path("retired.amptns");
  io::write_snapshot_file(t, p);
  const auto layout = io::inspect_snapshot(p);
  ASSERT_EQ(layout.segments.size(), 5u);  // dims + 3 index cols + values

  std::vector<char> valid;
  {
    std::ifstream in(p, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto rejects = [&](std::vector<char> bytes, const std::string& why) {
    const auto bad = path("bad.amptns");
    {
      std::ofstream out(bad, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      (void)io::read_snapshot_file(bad);
      ADD_FAILURE() << "accepted a file with " << why;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };

  // The values entry relabelled kind 3, table checksum recomputed.
  constexpr std::size_t kTable = 64, kEntry = 40;
  auto kind3 = valid;
  kind3[kTable + 4 * kEntry] = 3;
  const std::uint64_t sum = io::checksum64(kind3.data() + kTable, 5 * kEntry);
  std::memcpy(kind3.data() + 40, &sum, sizeof(sum));
  rejects(kind3, "unknown segment kind 3");

  // A header claiming modes + 3 segments.
  auto extra = valid;
  const std::uint64_t six = 6;
  std::memcpy(extra.data() + 24, &six, sizeof(six));
  rejects(extra, "bad segment count");
}

TEST_F(SnapshotTest, ChecksumCorruptionRejected) {
  const auto t = make_tensor({20, 30, 10}, 500, 4);
  const auto p = path("corrupt.amptns");
  io::write_snapshot_file(t, p);

  // Flip one byte in the middle of the values segment (found through the
  // segment table, so the corruption never lands in padding).
  const auto layout = io::inspect_snapshot(p);
  std::uint64_t target = 0;
  for (const auto& seg : layout.segments) {
    if (seg.kind == io::SegmentKind::kValues) {
      target = seg.offset + seg.bytes / 2;
    }
  }
  ASSERT_GT(target, 0u);
  {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(target));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(target));
    f.write(&byte, 1);
  }
  EXPECT_THROW(io::read_snapshot_file(p), std::runtime_error);
  EXPECT_THROW(io::MappedCooTensor{p}, std::runtime_error);
}

TEST_F(SnapshotTest, CorruptHeaderCountsRejected) {
  const auto t = make_tensor({20, 30, 10}, 200, 10);
  auto patch_u64 = [&](const std::string& p, std::streamoff off,
                       std::uint64_t v) {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(off);
    f.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  // A huge nnz whose byte-size computation would wrap must be rejected,
  // not turned into spans past the mapping.
  const auto p1 = path("huge_nnz.amptns");
  io::write_snapshot_file(t, p1);
  patch_u64(p1, 16, 1ull << 62);
  EXPECT_THROW(io::read_snapshot_file(p1), std::runtime_error);
  // Same for a table offset that wraps the range check.
  const auto p2 = path("huge_table.amptns");
  io::write_snapshot_file(t, p2);
  patch_u64(p2, 32, 0xFFFFFFFFFFFFFF00ull);
  EXPECT_THROW(io::read_snapshot_file(p2), std::runtime_error);
}

TEST_F(SnapshotTest, TruncatedV2Rejected) {
  const auto t = make_tensor({20, 30, 10}, 500, 5);
  const auto p = path("trunc.amptns");
  io::write_snapshot_file(t, p);
  fs::resize_file(p, fs::file_size(p) / 2);
  EXPECT_THROW(io::read_snapshot_file(p), std::runtime_error);
  EXPECT_THROW(io::MappedCooTensor{p}, std::runtime_error);
}

TEST_F(SnapshotTest, TruncatedV1Rejected) {
  const auto t = make_tensor({20, 30}, 400, 6);
  const auto p = path("trunc_v1.amptns");
  write_binary_file(t, p);
  fs::resize_file(p, fs::file_size(p) - 7);
  try {
    read_binary_file(p);
    FAIL() << "expected truncation to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(SnapshotTest, V1HugeNnzHeaderRejectedWithoutAllocating) {
  // A corrupt nnz chosen so the naive expected-size product would wrap
  // to the real payload size must still be rejected (and must not
  // trigger a multi-exabyte allocation first).
  const auto t = make_tensor({20, 30}, 400, 6);
  const auto p = path("huge_v1.amptns");
  write_binary_file(t, p);
  {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t huge = 1ull << 61;
    f.seekp(16);  // v1 header: magic(8) + modes(8) + nnz(8)
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  try {
    read_binary_file(p);
    FAIL() << "expected corrupt header to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(SnapshotTest, MappedViewRejectsV1) {
  const auto t = make_tensor({20, 30}, 100, 7);
  const auto p = path("v1_for_map.amptns");
  write_binary_file(t, p);
  EXPECT_THROW(io::MappedCooTensor{p}, std::runtime_error);
}

TEST_F(SnapshotTest, WritesAreAtomic) {
  const auto t = make_tensor({20, 30, 10}, 500, 8);
  const auto p = path("atomic.amptns");
  io::write_snapshot_file(t, p);
  write_binary_file(t, path("atomic_v1.amptns"));
  // Neither writer leaves its temp file behind on success.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp-"), std::string::npos)
        << "stray temp file: " << entry.path();
  }
  // Overwriting an existing snapshot goes through the same temp+rename.
  const auto t2 = make_tensor({20, 30, 10}, 700, 9);
  io::write_snapshot_file(t2, p);
  expect_tensors_equal(t2, io::read_snapshot_file(p));
}

TEST_F(SnapshotTest, ChecksumIsDeterministicAndSensitive) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const auto a = io::checksum64(data, sizeof(data));
  EXPECT_EQ(a, io::checksum64(data, sizeof(data)));
  char tweaked[sizeof(data)];
  std::memcpy(tweaked, data, sizeof(data));
  tweaked[10] ^= 1;
  EXPECT_NE(a, io::checksum64(tweaked, sizeof(tweaked)));
  // Length is folded in: a zero-padded prefix does not collide.
  EXPECT_NE(io::checksum64(data, 8), io::checksum64(data, 9));
}

TEST_F(SnapshotTest, MissingFileThrows) {
  EXPECT_THROW(io::read_snapshot_file(path("nope.amptns")),
               std::runtime_error);
  EXPECT_THROW(io::MappedCooTensor{path("nope.amptns")},
               std::runtime_error);
}

}  // namespace
}  // namespace amped
