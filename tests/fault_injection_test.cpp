// The robustness acceptance suite: deterministic fault injection
// (util/fault.hpp) drives every recovery path end to end.
//
// Three classes of property are asserted per site:
//   * fatal sites surface exactly one clean std::runtime_error naming the
//     site, with no leaked temp/spill files and no corrupted global state
//     (the same operation succeeds after disarming);
//   * recoverable sites (transient I/O, corrupt spill files, failed
//     spills with budget headroom) recover *bit-identically* — factors
//     and MTTKRP outputs memcmp-equal to a fault-free run;
//   * a CP-ALS run killed mid-iteration restarts from its checkpoint and
//     finishes byte-equal to one that was never interrupted.
// This suite runs in both sanitizer CI lanes: the host-backend fault
// tests exercise structured cancellation across real lane threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "exec/backend.hpp"
#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/snapshot.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "tensor/tns_io.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

namespace fs = std::filesystem;

// Real concurrency for the host-backend cancellation tests and the
// streamer read-ahead, even on single-core CI runners.
class FaultParallelismEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_host_parallelism(4); }
  void TearDown() override { set_host_parallelism(0); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new FaultParallelismEnv);

// Every test starts and ends with a clean registry: a leaked armed site
// would make later tests (in any suite of this binary) order-dependent.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

class BudgetGuard {
 public:
  explicit BudgetGuard(std::uint64_t limit) {
    auto& b = io::HostMemoryBudget::global();
    b.set_limit(limit);
    b.reset_peak();
  }
  ~BudgetGuard() { io::HostMemoryBudget::global().set_limit(0); }
};

// A scratch directory that must be empty (no leaked temp / spill files)
// when the test ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  std::size_t entries() const {
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator(path_), fs::directory_iterator{}));
  }

 private:
  fs::path path_;
};

CooTensor make_tensor(std::uint64_t seed = 42, nnz_t nnz = 3000) {
  GeneratorOptions opt;
  opt.dims = {60, 50, 40};
  opt.nnz = nnz;
  opt.zipf_exponents = {0.6, 0.6, 0.6};
  opt.seed = seed;
  return generate_random(opt);
}

// AMPED_FAULT_POINT needs a literal-ish C string; this wraps it for the
// framework unit tests.
void poke(const char* site) { AMPED_FAULT_POINT(site); }

// Runs `fn`, requiring a std::runtime_error whose what() contains `site`
// (every failure in this codebase must be attributable from the message).
template <typename Fn>
void expect_fault_naming(const std::string& site, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected a fault at " << site << ", but the call succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(site), std::string::npos)
        << "error does not name the site: " << e.what();
  }
}

void expect_matrices_identical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(), a.bytes()));
}

void expect_results_identical(const CpdResult& a, const CpdResult& b) {
  ASSERT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.fit, b.fit);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  for (std::size_t c = 0; c < a.lambda.size(); ++c) {
    EXPECT_EQ(a.lambda[c], b.lambda[c]) << "lambda[" << c << "]";
  }
  ASSERT_EQ(a.fit_history.size(), b.fit_history.size());
  for (std::size_t i = 0; i < a.fit_history.size(); ++i) {
    EXPECT_EQ(a.fit_history[i], b.fit_history[i]) << "fit_history[" << i
                                                  << "]";
  }
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(a.factors.factor(d), b.factors.factor(d));
  }
}

// ---------------------------------------------------------------------------
// Framework semantics

TEST_F(FaultInjectionTest, DisabledFrameworkIsInert) {
  EXPECT_FALSE(fault::any_armed());
  poke("zz.unarmed");  // must not throw, must not count
  EXPECT_EQ(fault::call_count("zz.unarmed"), 0u);
}

TEST_F(FaultInjectionTest, NthAndTimesFireDeterministically) {
  fault::arm("zz.det", {.nth = 2, .times = 2});
  poke("zz.det");  // call 1: before the window
  EXPECT_THROW(poke("zz.det"), fault::FaultInjected);  // call 2
  EXPECT_THROW(poke("zz.det"), fault::FaultInjected);  // call 3
  poke("zz.det");  // call 4: window exhausted
  EXPECT_EQ(fault::call_count("zz.det"), 4u);
  EXPECT_EQ(fault::fire_count("zz.det"), 2u);
}

TEST_F(FaultInjectionTest, TransientSpecThrowsTransientError) {
  fault::arm("zz.trans", {.nth = 1, .times = 1, .transient = true});
  try {
    poke("zz.trans");
    FAIL() << "expected a transient fault";
  } catch (const fault::TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("zz.trans"), std::string::npos);
  }
}

TEST_F(FaultInjectionTest, ProbabilityIsDeterministicPerSeed) {
  auto pattern = [&] {
    fault::arm("zz.prob", {.times = 0, .probability = 0.3, .seed = 99});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool f = false;
      try {
        poke("zz.prob");
      } catch (const fault::FaultInjected&) {
        f = true;
      }
      fired.push_back(f);
    }
    fault::disarm("zz.prob");
    return fired;
  };
  const auto first = pattern();
  const auto second = pattern();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultInjectionTest, ConfigureParsesTheEnvGrammar) {
  fault::configure(
      "zz.a:nth=2:times=1:transient,zz.b:prob=0.5:seed=7,zz.c");
  poke("zz.a");                                          // call 1
  EXPECT_THROW(poke("zz.a"), fault::TransientError);     // call 2
  poke("zz.a");                                          // window over
  EXPECT_THROW(poke("zz.c"), fault::FaultInjected);      // defaults: nth=1
  // prob-only clause: must not fire deterministically on call 1.
  EXPECT_EQ(fault::call_count("zz.b"), 0u);

  EXPECT_THROW(fault::configure("zz.bad:frequency=2"), std::runtime_error);
  EXPECT_THROW(fault::configure("zz.bad:nth=abc"), std::runtime_error);
  EXPECT_THROW(fault::configure(":nth=1"), std::runtime_error);
  EXPECT_THROW(fault::configure("zz.bad:nth"), std::runtime_error);
}

TEST_F(FaultInjectionTest, FaultScopeDisarmsOnExit) {
  {
    fault::FaultScope scope("zz.scoped", {.nth = 1, .times = 100});
    EXPECT_THROW(poke("zz.scoped"), fault::FaultInjected);
  }
  poke("zz.scoped");  // disarmed: inert again
  EXPECT_FALSE(fault::any_armed());
}

TEST_F(FaultInjectionTest, RetryTransientAbsorbsBoundedFailures) {
  int calls = 0;
  std::size_t retries = 0;
  const int result = fault::retry_transient(
      "unit op",
      [&] {
        if (++calls < 3) throw fault::TransientError("flaky");
        return 7;
      },
      {}, &retries);
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST_F(FaultInjectionTest, RetryTransientGivesUpAndWrapsPermanently) {
  int calls = 0;
  try {
    fault::retry_transient("doomed op", [&]() -> int {
      ++calls;
      throw fault::TransientError("still down");
    });
    FAIL() << "expected exhaustion";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(calls, 4);  // RetryPolicy default max_attempts
    const std::string what = e.what();
    EXPECT_NE(what.find("doomed op"), std::string::npos);
    EXPECT_NE(what.find("persisted after 4 attempts"), std::string::npos);
    // The wrapper must be permanent, not retryable.
    EXPECT_EQ(dynamic_cast<const fault::TransientError*>(&e), nullptr);
  }
}

TEST_F(FaultInjectionTest, NonTransientErrorsPropagateOnFirstThrow) {
  int calls = 0;
  EXPECT_THROW(fault::retry_transient("once",
                                      [&]() -> int {
                                        ++calls;
                                        throw std::logic_error("permanent");
                                      }),
               std::logic_error);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Fatal I/O sites: one clean error naming the site, no leaked files

TEST_F(FaultInjectionTest, MappedFileOpenFaultNamesTheSite) {
  ScratchDir dir("amped_fault_open");
  const auto path = dir.file("t.amptns");
  io::write_snapshot_file(make_tensor(), path);
  fault::FaultScope scope("mapped_file.open", {});
  expect_fault_naming("mapped_file.open",
                      [&] { io::MappedCooTensor map(path); });
}

TEST_F(FaultInjectionTest, SnapshotWriteFaultLeavesNoTempFile) {
  ScratchDir dir("amped_fault_write");
  fault::FaultScope scope("snapshot.write", {});
  expect_fault_naming("snapshot.write", [&] {
    io::write_snapshot_file(make_tensor(), dir.file("t.amptns"));
  });
  EXPECT_EQ(dir.entries(), 0u) << "temp file leaked on the failure path";
}

TEST_F(FaultInjectionTest, SnapshotFsyncFaultLeavesNoTempFile) {
  ScratchDir dir("amped_fault_fsync");
  fault::FaultScope scope("snapshot.fsync", {});
  expect_fault_naming("snapshot.fsync", [&] {
    io::write_snapshot_file(make_tensor(), dir.file("t.amptns"));
  });
  EXPECT_EQ(dir.entries(), 0u);
}

TEST_F(FaultInjectionTest, SnapshotRenameFaultLeavesNoTempFile) {
  ScratchDir dir("amped_fault_rename");
  fault::FaultScope scope("snapshot.rename", {});
  expect_fault_naming("snapshot.rename", [&] {
    io::write_snapshot_file(make_tensor(), dir.file("t.amptns"));
  });
  EXPECT_EQ(dir.entries(), 0u);
}

TEST_F(FaultInjectionTest, SnapshotReadFaultNamesTheSite) {
  ScratchDir dir("amped_fault_read");
  const auto path = dir.file("t.amptns");
  io::write_snapshot_file(make_tensor(), path);
  fault::FaultScope scope("snapshot.read", {});
  expect_fault_naming("snapshot.read",
                      [&] { (void)io::read_snapshot_file(path); });
}

TEST_F(FaultInjectionTest, IngestChunkFaultSurfacesFromParallelIngest) {
  ScratchDir dir("amped_fault_ingest");
  const auto path = dir.file("t.tns");
  write_tns_file(make_tensor(), path);
  fault::FaultScope scope("ingest.chunk", {});
  expect_fault_naming("ingest.chunk", [&] { (void)read_tns_file(path); });
  // The parse machinery recovers fully once the fault clears.
  const auto reparsed = read_tns_file(path);
  EXPECT_EQ(reparsed.nnz(), make_tensor().nnz());
}

// ---------------------------------------------------------------------------
// Spill recovery: retry, rebuild, degrade

AmpedBuildOptions spilled_build(const ScratchDir& dir) {
  AmpedBuildOptions opt;
  opt.num_gpus = 4;
  opt.storage = BuildStorage::kSpilled;
  opt.spill_dir = dir.path().string();
  return opt;
}

std::vector<DenseMatrix> run_mttkrp(const AmpedTensor& tensor,
                                    const CooTensor& input,
                                    bool pipelined = false) {
  Rng rng(5);
  const FactorSet factors(input.dims(), 8, rng);
  MttkrpOptions options;
  options.pipelined_streaming = pipelined;
  auto platform = sim::make_default_platform(4);
  std::vector<DenseMatrix> out;
  mttkrp_all_modes(platform, tensor, factors, out, options);
  return out;
}

TEST_F(FaultInjectionTest, TransientSpillWriteIsRetriedBitIdentically) {
  const auto input = make_tensor();
  ScratchDir clean_dir("amped_fault_spill_clean");
  ScratchDir faulty_dir("amped_fault_spill_retry");
  const auto reference =
      AmpedTensor::build(input, spilled_build(clean_dir));

  PreprocessStats stats;
  AmpedTensor recovered;
  {
    // The first two write() calls of the first spill fail transiently;
    // retry_transient around write_snapshot_file must absorb both.
    fault::FaultScope scope("snapshot.write",
                            {.nth = 1, .times = 2, .transient = true});
    recovered = AmpedTensor::build(input, spilled_build(faulty_dir), &stats);
  }
  EXPECT_EQ(stats.spill_retries, 2u);
  EXPECT_EQ(stats.spill_rebuilds, 0u);
  EXPECT_EQ(stats.degraded_to_resident, 0u);
  EXPECT_TRUE(recovered.spilled());

  const auto ref_out = run_mttkrp(reference, input);
  const auto rec_out = run_mttkrp(recovered, input);
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(ref_out[d], rec_out[d]);
  }
}

TEST_F(FaultInjectionTest, PersistentTransientSpillWriteFailsCleanly) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_spill_exhaust");
  BudgetGuard guard(input.storage_bytes() + input.storage_bytes() / 2);
  fault::FaultScope scope("snapshot.write",
                          {.nth = 1, .times = 1u << 20, .transient = true});
  expect_fault_naming("spill write", [&] {
    (void)AmpedTensor::build(input, spilled_build(dir));
  });
  EXPECT_EQ(dir.entries(), 0u) << "spill or temp file leaked";
}

TEST_F(FaultInjectionTest, CorruptSpillFileIsRebuiltFromSource) {
  const auto input = make_tensor();
  ScratchDir clean_dir("amped_fault_rebuild_clean");
  ScratchDir faulty_dir("amped_fault_rebuild");
  const auto reference =
      AmpedTensor::build(input, spilled_build(clean_dir));

  PreprocessStats stats;
  AmpedTensor recovered;
  {
    // The first spilled file fails validation when mapped back (as if the
    // disk lied); the copy is rebuilt from the still-resident source.
    fault::FaultScope scope("spill.verify", {.nth = 1, .times = 1});
    recovered = AmpedTensor::build(input, spilled_build(faulty_dir), &stats);
  }
  EXPECT_EQ(stats.spill_rebuilds, 1u);
  EXPECT_EQ(stats.degraded_to_resident, 0u);
  EXPECT_TRUE(recovered.spilled());
  EXPECT_EQ(faulty_dir.entries(), 3u);  // one live spill file per mode

  const auto ref_out = run_mttkrp(reference, input);
  const auto rec_out = run_mttkrp(recovered, input);
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(ref_out[d], rec_out[d]);
  }
}

TEST_F(FaultInjectionTest, UnspillableCopiesDegradeToResidentWithHeadroom) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_degrade");
  const auto resident = AmpedTensor::build(input, AmpedBuildOptions{});

  PreprocessStats stats;
  AmpedTensor degraded;
  {
    // Every spill attempt fails validation; with an unlimited budget the
    // build must keep each copy resident instead of aborting.
    fault::FaultScope scope("spill.verify", {.nth = 1, .times = 1u << 20});
    degraded = AmpedTensor::build(input, spilled_build(dir), &stats);
  }
  EXPECT_EQ(stats.degraded_to_resident, 3u);
  EXPECT_FALSE(degraded.spilled());
  EXPECT_EQ(dir.entries(), 0u) << "rejected spill files must be unlinked";

  const auto ref_out = run_mttkrp(resident, input);
  const auto deg_out = run_mttkrp(degraded, input);
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(ref_out[d], deg_out[d]);
  }
}

TEST_F(FaultInjectionTest, DegradationWithoutHeadroomFailsCleanly) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_no_headroom");
  // Budget fits 1.5 copies: the build must spill, and a permanently
  // failing spill cannot fall back to resident storage for 3 modes.
  BudgetGuard guard(input.storage_bytes() + input.storage_bytes() / 2);
  fault::FaultScope scope("spill.verify", {.nth = 1, .times = 1u << 20});
  expect_fault_naming("headroom", [&] {
    AmpedBuildOptions opt;
    opt.num_gpus = 4;
    opt.spill_dir = dir.path().string();
    (void)AmpedTensor::build(input, opt);
  });
  EXPECT_EQ(dir.entries(), 0u);
  EXPECT_EQ(io::HostMemoryBudget::global().in_use(), 0u)
      << "budget charge leaked on the failure path";
}

TEST_F(FaultInjectionTest, SpillReadFaultNamesTheSite) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_spill_read");
  const auto tensor = AmpedTensor::build(input, spilled_build(dir));
  fault::FaultScope scope("spill.read", {});
  expect_fault_naming("spill.read",
                      [&] { (void)run_mttkrp(tensor, input); });
  // The spilled tensor is still usable once the fault clears.
  const auto out = run_mttkrp(tensor, input);
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(FaultInjectionTest, TransientReadAheadFaultRecoversBitIdentically) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_readahead");
  const auto tensor = AmpedTensor::build(input, spilled_build(dir));
  const auto reference = run_mttkrp(tensor, input, /*pipelined=*/true);

  fault::FaultScope scope("stream.readahead",
                          {.nth = 2, .times = 3, .transient = true});
  const auto recovered = run_mttkrp(tensor, input, /*pipelined=*/true);
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(reference[d], recovered[d]);
  }
  EXPECT_GE(fault::fire_count("stream.readahead"), 3u);
}

TEST_F(FaultInjectionTest, PersistentReadAheadFaultSurfacesCleanly) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_readahead_fatal");
  const auto tensor = AmpedTensor::build(input, spilled_build(dir));
  fault::FaultScope scope("stream.readahead",
                          {.nth = 1, .times = 1u << 20, .transient = true});
  expect_fault_naming("shard stream read-ahead",
                      [&] { (void)run_mttkrp(tensor, input); });
}

// ---------------------------------------------------------------------------
// Host-backend structured cancellation

std::vector<DenseMatrix> run_host_mttkrp(const AmpedTensor& tensor,
                                         const CooTensor& input,
                                         SchedulingPolicy policy,
                                         bool pipelined) {
  Rng rng(5);
  const FactorSet factors(input.dims(), 8, rng);
  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  options.backend = exec::ExecBackend::kHostParallel;
  auto platform = sim::make_default_platform(4);
  std::vector<DenseMatrix> out;
  mttkrp_all_modes(platform, tensor, factors, out, options);
  return out;
}

TEST_F(FaultInjectionTest, HostLaneFaultCancelsSiblingsCleanly) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  {
    fault::FaultScope scope("host.lane", {.nth = 3, .times = 1});
    expect_fault_naming("host.lane", [&] {
      (void)run_host_mttkrp(tensor, input,
                            SchedulingPolicy::kStaticGreedy, false);
    });
  }
  // All lane threads joined, no poisoned state: the same run succeeds
  // and matches the simulator bit for bit.
  const auto host = run_host_mttkrp(tensor, input,
                                    SchedulingPolicy::kStaticGreedy, false);
  const auto sim = run_mttkrp(tensor, input);
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(sim[d], host[d]);
  }
}

TEST_F(FaultInjectionTest, EveryHostLaneFaultingYieldsOneError) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  fault::FaultScope scope("host.lane", {.nth = 1, .times = 1u << 20});
  // All four lanes throw; exactly one exception may escape (the others
  // are absorbed by the cancel group) and the process must not terminate.
  expect_fault_naming("host.lane", [&] {
    (void)run_host_mttkrp(tensor, input, SchedulingPolicy::kStaticGreedy,
                          false);
  });
}

TEST_F(FaultInjectionTest, HostPipelinedCopyFaultCancelsCleanly) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_host_copy");
  const auto tensor = AmpedTensor::build(input, spilled_build(dir));
  {
    fault::FaultScope scope("host.copy", {.nth = 2, .times = 1});
    expect_fault_naming("host.copy", [&] {
      (void)run_host_mttkrp(tensor, input, SchedulingPolicy::kStaticGreedy,
                            true);
    });
  }
  const auto host = run_host_mttkrp(tensor, input,
                                    SchedulingPolicy::kStaticGreedy, true);
  const auto sim = run_mttkrp(tensor, input, /*pipelined=*/true);
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(sim[d], host[d]);
  }
}

TEST_F(FaultInjectionTest, HostPipelinedConsumerFaultJoinsCopyEngine) {
  const auto input = make_tensor();
  ScratchDir dir("amped_fault_host_pipe_lane");
  const auto tensor = AmpedTensor::build(input, spilled_build(dir));
  fault::FaultScope scope("host.lane", {.nth = 2, .times = 1});
  // Before the cancel group existed this std::terminate'd: the consumer
  // threw while its copy-engine thread was still joinable.
  expect_fault_naming("host.lane", [&] {
    (void)run_host_mttkrp(tensor, input, SchedulingPolicy::kStaticGreedy,
                          true);
  });
}

TEST_F(FaultInjectionTest, HostDynamicWorkerFaultCancelsQueue) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  {
    fault::FaultScope scope("host.worker", {.nth = 3, .times = 1});
    expect_fault_naming("host.worker", [&] {
      (void)run_host_mttkrp(tensor, input, SchedulingPolicy::kDynamicQueue,
                            false);
    });
  }
  const auto host = run_host_mttkrp(tensor, input,
                                    SchedulingPolicy::kDynamicQueue, false);
  EXPECT_EQ(host.size(), 3u);
}

// ---------------------------------------------------------------------------
// Numeric guards

TEST_F(FaultInjectionTest, NonFiniteMttkrpOutputFailsNamingModeAndIteration) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  CpdOptions options;
  options.rank = 4;
  detail::AlsState state(tensor, options);
  DenseMatrix& out = state.prepare_mode(0);
  for (auto& v : out.data()) v = std::numeric_limits<value_t>::quiet_NaN();
  try {
    state.update_mode(0, 0.0);
    FAIL() << "expected the numeric guard to fire";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("mode-0"), std::string::npos) << what;
    EXPECT_NE(what.find("iteration 0"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / restart

CpdResult run_als(const AmpedTensor& tensor, const CpdOptions& options) {
  auto platform = sim::make_default_platform(4);
  return cp_als(platform, tensor, options);
}

CpdOptions als_options() {
  CpdOptions opt;
  opt.rank = 8;
  opt.max_iterations = 8;
  opt.tolerance = 0.0;  // fixed iteration count: bit-identity needs it
  return opt;
}

TEST_F(FaultInjectionTest, CheckpointingDoesNotPerturbTheRun) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  ScratchDir dir("amped_fault_ckpt_noop");

  const auto plain = run_als(tensor, als_options());
  auto ckpt_opt = als_options();
  ckpt_opt.checkpoint_path = dir.file("run.ampckp");
  ckpt_opt.checkpoint_every = 2;
  const auto checkpointed = run_als(tensor, ckpt_opt);
  expect_results_identical(plain, checkpointed);
  EXPECT_TRUE(fs::exists(ckpt_opt.checkpoint_path));
}

TEST_F(FaultInjectionTest, ResumeAfterMidAlsCrashIsBitIdentical) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  ScratchDir dir("amped_fault_ckpt_resume");

  const auto reference = run_als(tensor, als_options());

  auto crashing = als_options();
  crashing.checkpoint_path = dir.file("run.ampckp");
  crashing.checkpoint_every = 2;
  {
    // Crash at the end of iteration 5: the newest checkpoint on disk is
    // iteration 4's, so the resumed run must replay 5..8.
    fault::FaultScope scope("cpd.iteration", {.nth = 5, .times = 1});
    expect_fault_naming("cpd.iteration",
                        [&] { (void)run_als(tensor, crashing); });
  }
  const auto resumed_from = read_als_checkpoint(crashing.checkpoint_path);
  EXPECT_EQ(resumed_from.iterations, 4u);

  auto resume = crashing;
  resume.resume = true;
  const auto resumed = run_als(tensor, resume);
  expect_results_identical(reference, resumed);
}

TEST_F(FaultInjectionTest, ResumeWithoutCheckpointStartsFresh) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  ScratchDir dir("amped_fault_ckpt_fresh");

  auto opt = als_options();
  opt.checkpoint_path = dir.file("never_written.ampckp");
  opt.resume = true;
  const auto fresh = run_als(tensor, opt);
  expect_results_identical(run_als(tensor, als_options()), fresh);
}

TEST_F(FaultInjectionTest, CorruptCheckpointFailsCleanly) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  ScratchDir dir("amped_fault_ckpt_corrupt");
  const auto path = dir.file("run.ampckp");

  auto opt = als_options();
  opt.max_iterations = 2;
  opt.checkpoint_path = path;
  (void)run_als(tensor, opt);
  ASSERT_TRUE(fs::exists(path));

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(40);
    f.write(&b, 1);
  }
  expect_fault_naming("checksum", [&] { (void)read_als_checkpoint(path); });
  auto resume = opt;
  resume.resume = true;
  EXPECT_THROW((void)run_als(tensor, resume), std::runtime_error);

  // Truncation must fail structurally, never read out of bounds.
  fs::resize_file(path, 24);
  expect_fault_naming("checkpoint", [&] { (void)read_als_checkpoint(path); });
}

TEST_F(FaultInjectionTest, MismatchedCheckpointIsRejected) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  ScratchDir dir("amped_fault_ckpt_mismatch");
  const auto path = dir.file("run.ampckp");

  auto opt = als_options();
  opt.max_iterations = 2;
  opt.checkpoint_path = path;
  (void)run_als(tensor, opt);

  auto wrong_rank = opt;
  wrong_rank.rank = 4;
  wrong_rank.resume = true;
  expect_fault_naming("rank", [&] { (void)run_als(tensor, wrong_rank); });
}

TEST_F(FaultInjectionTest, FailedCheckpointWriteLeavesPreviousIntact) {
  const auto input = make_tensor();
  const auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  ScratchDir dir("amped_fault_ckpt_atomic");
  const auto path = dir.file("run.ampckp");

  auto opt = als_options();
  opt.max_iterations = 2;
  opt.checkpoint_path = path;
  (void)run_als(tensor, opt);
  const auto before = read_als_checkpoint(path);

  {
    // Persistent transient fsync failures exhaust the retry budget; the
    // atomic writer must leave the previous checkpoint untouched and
    // remove its temp file.
    fault::FaultScope scope("snapshot.fsync",
                            {.nth = 1, .times = 1u << 20, .transient = true});
    expect_fault_naming("checkpoint write", [&] {
      write_als_checkpoint(before, path);
    });
  }
  EXPECT_EQ(dir.entries(), 1u) << "temp checkpoint file leaked";
  const auto after = read_als_checkpoint(path);
  EXPECT_EQ(after.iterations, before.iterations);
  ASSERT_EQ(after.factors.size(), before.factors.size());
  for (std::size_t d = 0; d < before.factors.size(); ++d) {
    expect_matrices_identical(before.factors[d], after.factors[d]);
  }
}

TEST_F(FaultInjectionTest, BatchResumeAfterCrashIsBitIdentical) {
  const auto input_a = make_tensor(11, 2000);
  const auto input_b = make_tensor(12, 1500);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor_a = AmpedTensor::build(input_a, build);
  const auto tensor_b = AmpedTensor::build(input_b, build);
  const AmpedTensor* tensors[] = {&tensor_a, &tensor_b};
  ScratchDir dir("amped_fault_ckpt_batch");

  auto opt = als_options();
  opt.max_iterations = 6;
  const auto reference = [&] {
    auto platform = sim::make_default_platform(4);
    return cpd_batch(platform, tensors, opt);
  }();

  auto crashing = opt;
  crashing.checkpoint_path = dir.file("batch.ampckp");
  crashing.checkpoint_every = 2;
  {
    // finish_iteration runs once per tensor per round: call 5 is tensor
    // A's iteration-3 finish, after both tensors checkpointed at 2.
    fault::FaultScope scope("cpd.iteration", {.nth = 5, .times = 1});
    expect_fault_naming("cpd.iteration", [&] {
      auto platform = sim::make_default_platform(4);
      (void)cpd_batch(platform, tensors, crashing);
    });
  }
  EXPECT_EQ(read_als_checkpoint(crashing.checkpoint_path + ".0").iterations,
            2u);
  EXPECT_EQ(read_als_checkpoint(crashing.checkpoint_path + ".1").iterations,
            2u);

  auto resume = crashing;
  resume.resume = true;
  const auto resumed = [&] {
    auto platform = sim::make_default_platform(4);
    return cpd_batch(platform, tensors, resume);
  }();
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_results_identical(reference[i], resumed[i]);
  }
}

// ---------------------------------------------------------------------------
// Host-backend graph plans

// Threads alive in this process (Linux): engine threads must all be
// joined when a cancelled run returns.
std::size_t live_threads() {
  const fs::path tasks = "/proc/self/task";
  if (!fs::exists(tasks)) return 0;
  return static_cast<std::size_t>(std::distance(fs::directory_iterator(tasks),
                                                fs::directory_iterator{}));
}

TEST_F(FaultInjectionTest, HostGraphBatchFaultCancelsEveryEngine) {
  // A windowed cpd_batch on the host backend runs one graph plan on copy
  // and compute engine threads per GPU. A fault on either engine kind
  // must surface as exactly one exception with every engine joined, and
  // an unarmed rerun must still equal solo cp_als bit for bit.
  const auto input_a = make_tensor(42, 3000);
  const auto input_b = make_tensor(43, 2500);
  const auto tensor_a = AmpedTensor::build(input_a, AmpedBuildOptions{});
  const auto tensor_b = AmpedTensor::build(input_b, AmpedBuildOptions{});
  const AmpedTensor* tensors[] = {&tensor_a, &tensor_b};
  auto options = als_options();
  options.max_iterations = 2;
  const std::vector<CpdResult> solo = {run_als(tensor_a, options),
                                       run_als(tensor_b, options)};

  options.graph_window = 2;
  options.mttkrp.backend = exec::ExecBackend::kHostParallel;
  auto run_batch = [&] {
    auto platform = sim::make_default_platform(4);
    BatchReport report;
    auto results = cpd_batch(platform, tensors, options, &report);
    EXPECT_EQ(report.graph_dispatches, 1u);
    return results;
  };
  const std::size_t threads_before = live_threads();
  for (const char* site : {"host.lane", "host.copy"}) {
    fault::FaultScope scope(site, {.nth = 3, .times = 1});
    expect_fault_naming(site, [&] { (void)run_batch(); });
    EXPECT_EQ(fault::fire_count(site), 1u) << site;
    EXPECT_EQ(live_threads(), threads_before) << site;
  }
  const auto batched = run_batch();
  ASSERT_EQ(batched.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    expect_results_identical(batched[i], solo[i]);
  }
}

}  // namespace
}  // namespace amped
