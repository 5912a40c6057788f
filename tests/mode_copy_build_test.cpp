// Mode-copy builds: the record radix sort behind sorted_copy_by_mode,
// CooTensor::sort_by_mode and both AmpedTensor::build overloads must lay
// out every copy exactly as sorting a deep copy through the permutation
// (lexicographic_sort_permutation + apply_permutation) does — same order,
// same ties, same value bits.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "io/mapped_tensor.hpp"
#include "io/shard_stream.hpp"
#include "io/snapshot.hpp"
#include "tensor/generator.hpp"
#include "util/radix_sort.hpp"
#include "util/random.hpp"

namespace amped {
namespace {

namespace fs = std::filesystem;

// The permutation path, kept as the oracle: key columns in
// sort_by_mode's order (major mode, then the rest ascending).
CooTensor oracle_sorted(const CooTensor& t, std::size_t major) {
  CooTensor out = t;
  std::vector<util::SortKeyColumn> columns;
  columns.push_back({out.indices(major), out.dim(major)});
  for (std::size_t m = 0; m < out.num_modes(); ++m) {
    if (m != major) columns.push_back({out.indices(m), out.dim(m)});
  }
  out.apply_permutation(util::lexicographic_sort_permutation(columns));
  return out;
}

// An oracle that shares no code with the radix engine: a stable
// comparison sort in the same key order (ties keep input order).
CooTensor stable_sorted(const CooTensor& t, std::size_t major) {
  std::vector<std::size_t> order = {major};
  for (std::size_t m = 0; m < t.num_modes(); ++m) {
    if (m != major) order.push_back(m);
  }
  std::vector<nnz_t> perm(t.nnz());
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (std::size_t m : order) {
      if (t.indices(m)[a] != t.indices(m)[b]) {
        return t.indices(m)[a] < t.indices(m)[b];
      }
    }
    return false;
  });
  CooTensor out = t;
  out.apply_permutation(perm);
  return out;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void expect_identical(const CooTensor& a, const CooTensor& b,
                      const std::string& what) {
  ASSERT_EQ(a.dims(), b.dims()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  for (std::size_t m = 0; m < a.num_modes(); ++m) {
    EXPECT_TRUE(same_bytes(a.indices(m), b.indices(m)))
        << what << ": mode " << m << " indices differ";
  }
  EXPECT_TRUE(same_bytes(a.values(), b.values())) << what << ": values differ";
}

unsigned key_bits(const std::vector<index_t>& dims) {
  unsigned bits = 0;
  for (index_t d : dims) bits += util::bits_for_bound(d);
  return bits;
}

// Uniform coordinates with distinct values (value i + 1 for element i),
// then the first quarter repeated with new values, so any reordering of
// duplicate coordinates shows in the value column.
CooTensor make_tensor(std::vector<index_t> dims, nnz_t nnz,
                      std::uint64_t seed) {
  Rng rng(seed);
  CooTensor t(dims);
  std::vector<index_t> coords(dims.size());
  for (nnz_t i = 0; i < nnz; ++i) {
    for (std::size_t m = 0; m < dims.size(); ++m) {
      coords[m] = static_cast<index_t>(rng.next_u64() % dims[m]);
    }
    t.push_back(coords, static_cast<value_t>(i + 1));
  }
  for (nnz_t i = 0; i < nnz / 4; ++i) {
    t.coords_of(i, coords);
    t.push_back(coords, static_cast<value_t>(nnz + i + 1));
  }
  return t;
}

struct Case {
  const char* name;
  std::vector<index_t> dims;
  nnz_t nnz;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// Key widths on both sides of the 32-bit (value fused into the record)
// and 64-bit (permutation fallback) boundaries, tiny and degenerate
// shapes, and a 5-mode tensor.
const Case kCases[] = {
    {"bits24_patents_like", {46, 478, 478}, 6000},
    {"bits32_exact", {1u << 16, 1u << 16}, 3000},
    {"bits33", {1u << 16, 1u << 16, 2}, 3000},
    {"bits36", {1u << 12, 1u << 12, 1u << 12}, 5000},
    {"bits64_exact", {65536, 65536, 65536, 65536}, 4000},
    {"bits70_fallback", {1024, 1024, 1024, 1024, 1024, 1024, 1024}, 3000},
    {"heavy_duplicates", {3, 2, 5}, 400},
    {"bits62", {3, 1u << 20, 1u << 20, 1u << 20}, 500},
    {"bits65_fallback", {2, 2, 1u << 31, 1u << 31, 2}, 500},
    {"unit_dims", {1, 7, 1}, 50},
    {"all_unit_dims", {1, 1, 1}, 20},
    {"nnz0", {8, 6, 4}, 0},
    {"nnz1", {8, 6, 4}, 1},
    {"five_modes", {12, 9, 7, 5, 4}, 1500},
    {"one_mode", {300}, 700},
};

class RecordSortOracle : public ::testing::TestWithParam<Case> {};

TEST_P(RecordSortOracle, EveryMajorModeMatchesPermutationSort) {
  const Case& c = GetParam();
  const CooTensor t = make_tensor(c.dims, c.nnz, 7);
  for (std::size_t d = 0; d < t.num_modes(); ++d) {
    const CooTensor expected = oracle_sorted(t, d);
    const std::string what = std::string(c.name) + " major " +
                             std::to_string(d) + " (" +
                             std::to_string(key_bits(c.dims)) + " bits)";
    expect_identical(sorted_copy_by_mode(t.columns(), d), expected, what);
    if (key_bits(c.dims) <= 64) {
      // Radix keys sort stably; the wider fallback breaks ties freely.
      expect_identical(expected, stable_sorted(t, d), what + " stable");
    }
    CooTensor in_place = t;
    in_place.sort_by_mode(d);
    expect_identical(in_place, expected, what + " in place");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecordSortOracle, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(RecordSortTest, DuplicateCoordinatesKeepInputOrder) {
  // Keys up to 64 bits sort stably: within a run of equal coordinates the
  // values (increasing in input order) stay increasing.
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{3, 2, 5},
        std::vector<index_t>{3, 1u << 20, 2, 1u << 20}}) {
    const CooTensor t = make_tensor(dims, 600, 11);
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const CooTensor s = sorted_copy_by_mode(t.columns(), d);
      for (nnz_t i = 1; i < s.nnz(); ++i) {
        bool same = true;
        for (std::size_t m = 0; m < dims.size(); ++m) {
          same = same && s.indices(m)[i] == s.indices(m)[i - 1];
        }
        if (same) {
          ASSERT_LT(s.values()[i - 1], s.values()[i])
              << key_bits(dims) << "-bit key, major " << d << ", at " << i;
        }
      }
    }
  }
}

TEST(RecordSortTest, ValueBitsSurviveTheRecord) {
  // Values ride in the low half of a 64-bit record: negative zero, NaN
  // payloads, denormals and infinities must come back bit for bit.
  const std::vector<float> specials = {
      -0.0f,
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::max(),
      -1.5f};
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{16, 16, 16},
        std::vector<index_t>{1u << 20, 4096, 16}}) {
    CooTensor t = make_tensor(dims, 300, 5);
    auto vals = t.mutable_values();
    for (nnz_t i = 0; i < vals.size(); ++i) {
      vals[i] = specials[i % specials.size()];
    }
    for (std::size_t d = 0; d < dims.size(); ++d) {
      expect_identical(sorted_copy_by_mode(t.columns(), d),
                       oracle_sorted(t, d),
                       std::to_string(key_bits(dims)) + "-bit specials");
    }
  }
}

TEST(RecordSortTest, DigitWidthMinimisesPasses) {
  // At most 11 bits per digit, split evenly over the fewest passes.
  const struct {
    unsigned key_bits, passes, digit_bits;
  } expected[] = {{1, 1, 1},   {8, 1, 8},   {11, 1, 11}, {12, 2, 6},
                  {24, 3, 8},  {32, 3, 11}, {35, 4, 9},  {44, 4, 11},
                  {45, 5, 9},  {64, 6, 11}};
  for (const auto& e : expected) {
    const util::RadixHistogram h(e.key_bits);
    EXPECT_EQ(h.passes(), e.passes) << e.key_bits << " bits";
    EXPECT_EQ(h.digit_bits(), e.digit_bits) << e.key_bits << " bits";
  }
}

// ---------------------------------------------------------------------------
// AmpedTensor::build from a mapped snapshot equals the build from the
// owned tensor, copy for copy, resident and spilled.

class AmpedBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("amped_mode_copy_build_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

CooTensor copy_elements(const AmpedTensor& t, std::size_t d) {
  const auto& copy = t.mode_copy(d);
  return copy.spilled() ? copy.spill->read_range(0, t.nnz()) : copy.tensor;
}

TEST_F(AmpedBuildTest, MappedInputBuildsIdenticalCopies) {
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{46, 478, 478},
        std::vector<index_t>{1u << 14, 3000, 1u << 12},
        std::vector<index_t>{12, 9, 7, 5, 4}}) {
    GeneratorOptions gen;
    gen.dims = dims;
    gen.nnz = 4000;
    gen.zipf_exponents.assign(dims.size(), 0.8);
    gen.seed = 3;
    const CooTensor input = generate_random(gen);
    const std::string snap = (dir_ / "input.amptns").string();
    io::write_snapshot_file(input, snap);
    const io::MappedCooTensor mapped(snap);

    for (const BuildStorage storage :
         {BuildStorage::kResident, BuildStorage::kSpilled}) {
      AmpedBuildOptions opt;
      opt.num_gpus = 2;
      opt.shards_per_gpu = 4;
      opt.storage = storage;
      opt.spill_dir = dir_.string();
      const AmpedTensor from_owned = AmpedTensor::build(input, opt);
      const AmpedTensor from_mapped = AmpedTensor::build(mapped, opt);
      ASSERT_EQ(from_owned.spilled(), storage == BuildStorage::kSpilled);
      ASSERT_EQ(from_mapped.spilled(), storage == BuildStorage::kSpilled);
      const double norm_owned = from_owned.values_norm_sq();
      const double norm_mapped = from_mapped.values_norm_sq();
      EXPECT_EQ(std::memcmp(&norm_owned, &norm_mapped, sizeof(double)), 0);
      for (std::size_t d = 0; d < input.num_modes(); ++d) {
        const std::string what = std::to_string(dims.size()) +
                                 "-mode copy " + std::to_string(d) +
                                 (storage == BuildStorage::kSpilled
                                      ? " spilled"
                                      : " resident");
        const CooTensor owned = copy_elements(from_owned, d);
        expect_identical(copy_elements(from_mapped, d), owned, what);
        expect_identical(owned, oracle_sorted(input, d), what + " vs oracle");
        const auto& a = from_owned.mode_copy(d).partition.shards;
        const auto& b = from_mapped.mode_copy(d).partition.shards;
        ASSERT_EQ(a.size(), b.size()) << what;
        for (std::size_t s = 0; s < a.size(); ++s) {
          EXPECT_EQ(a[s].nnz_begin, b[s].nnz_begin) << what;
          EXPECT_EQ(a[s].nnz_end, b[s].nnz_end) << what;
        }
      }
    }
  }
}

TEST_F(AmpedBuildTest, OptionsValidateAtBothEntryPoints) {
  const CooTensor input = make_tensor({20, 30, 10}, 500, 9);
  const std::string snap = (dir_ / "input.amptns").string();
  io::write_snapshot_file(input, snap);
  const io::MappedCooTensor mapped(snap);
  const struct {
    const char* name;
    int num_gpus;
    std::size_t shards_per_gpu;
    bool valid;
  } rows[] = {
      {"defaults", 4, 24, true},
      {"one_gpu_one_shard", 1, 1, true},
      {"zero_gpus", 0, 24, false},
      {"negative_gpus", -2, 24, false},
      {"zero_shards", 4, 0, false},
      {"zero_everything", 0, 0, false},
  };
  for (const auto& row : rows) {
    AmpedBuildOptions opt;
    opt.num_gpus = row.num_gpus;
    opt.shards_per_gpu = row.shards_per_gpu;
    opt.spill_dir = dir_.string();
    if (row.valid) {
      EXPECT_NO_THROW(opt.validate()) << row.name;
      // Mode 0 has 20 indices, which caps its shard count.
      EXPECT_EQ(
          AmpedTensor::build(input, opt).mode_copy(0).partition.shards.size(),
          std::min<std::size_t>(
              row.shards_per_gpu * static_cast<std::size_t>(row.num_gpus), 20))
          << row.name;
      EXPECT_NO_THROW(AmpedTensor::build(mapped, opt)) << row.name;
    } else {
      EXPECT_THROW(opt.validate(), std::invalid_argument) << row.name;
      EXPECT_THROW(AmpedTensor::build(input, opt), std::invalid_argument)
          << row.name;
      EXPECT_THROW(AmpedTensor::build(mapped, opt), std::invalid_argument)
          << row.name;
      opt.storage = BuildStorage::kSpilled;
      EXPECT_THROW(AmpedTensor::build(input, opt), std::invalid_argument)
          << row.name << " spilled";
    }
  }
}

}  // namespace
}  // namespace amped
