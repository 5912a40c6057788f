// Host execution engine throughput — wall-clock nnz/s of the paths that
// run *real* arithmetic on the host: the EC kernel, format-build sorting,
// and end-to-end mttkrp_all_modes. Unlike every other bench binary these
// numbers are measured time, not simulated time; they track the PR-over-PR
// speedup of the host engine (CI uploads the JSON as an artifact).
//
// The `*_reference` benchmarks are the pre-optimisation implementations
// kept verbatim (hash-map multiplicity tally in the element loop,
// comparison sort with per-comparison coordinate gathers), so one run
// reports the speedup ratio directly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "core/amped_tensor.hpp"
#include "core/ec_kernel.hpp"
#include "core/kernel_cache.hpp"
#include "core/mttkrp.hpp"
#include "exec/reference_loop.hpp"
#include "formats/sorting.hpp"
#include "io/mapped_tensor.hpp"
#include "io/snapshot.hpp"
#include "io/tns_ingest.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "tensor/tns_io.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace amped;

constexpr nnz_t kNnz = 1u << 20;

// Two working-set regimes for the EC kernel's factor gathers:
//  - kCacheResident: input-mode factors fit L2 even at rank 64 — the
//    regime AMPED's shard kernels run in (bounded per-shard row sets).
//  - kDramBound: multi-MB input factors; gathers stream from L3/DRAM.
enum class EcWorkingSet { kCacheResident, kDramBound };

const CooTensor& sorted_tensor(EcWorkingSet ws) {
  auto make = [](std::vector<index_t> dims, std::uint64_t seed) {
    GeneratorOptions gen;
    gen.dims = std::move(dims);
    gen.nnz = kNnz;
    gen.zipf_exponents = {1.0, 0.0, 0.5};
    gen.seed = seed;
    auto out = generate_random(gen);
    out.sort_by_mode(0);
    return out;
  };
  static const CooTensor cache_resident =
      make({1u << 16, 1u << 12, 1u << 12}, 21);
  static const CooTensor dram_bound = make({1u << 16, 1u << 13, 1u << 14}, 21);
  return ws == EcWorkingSet::kCacheResident ? cache_resident : dram_bound;
}

const CooTensor& unsorted_tensor() {
  static const CooTensor t = [] {
    GeneratorOptions gen;
    gen.dims = {1u << 16, 1u << 13, 1u << 14};
    gen.nnz = kNnz;
    gen.zipf_exponents = {1.0, 0.0, 0.5};
    gen.seed = 22;
    return generate_random(gen);
  }();
  return t;
}

const FactorSet& factors(EcWorkingSet ws, std::size_t rank) {
  static std::unordered_map<std::size_t, FactorSet> cache[2];
  auto& slot = cache[static_cast<std::size_t>(ws)];
  auto it = slot.find(rank);
  if (it == slot.end()) {
    Rng rng(7 + rank);
    it = slot.emplace(rank,
                      FactorSet(sorted_tensor(ws).dims(), rank, rng)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// EC kernel

void bm_ec_sorted(benchmark::State& state, EcWorkingSet ws) {
  const auto& t = sorted_tensor(ws);
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  const auto& f = factors(ws, rank);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats =
        run_ec_block(t, 0, t.nnz(), 0, f, out, BlockOrder::kOutputSorted);
    benchmark::DoNotOptimize(stats.max_run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK_CAPTURE(bm_ec_sorted, l2, EcWorkingSet::kCacheResident)
    ->Name("ec/sorted")->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    // Off-menu ranks: tiled dispatch (greedy 64s + one multiple-of-4
    // tile + <=3 remainder). 20/48/100/200 track the rank-cliff repair
    // in the trajectory JSON alongside the single-tile menu ranks.
    ->Arg(20)->Arg(48)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_ec_sorted, dram, EcWorkingSet::kDramBound)
    ->Name("ec/sorted_dram")->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Unsorted off-menu series: same tiled passes plus the exact per-index
// multiplicity tally unsorted blocks pay for their stats.
void bm_ec_unsorted(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  Rng rng(7 + rank);
  const FactorSet f(t.dims(), rank, rng);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats = run_ec_block(t, 0, t.nnz(), 0, f, out,
                              BlockOrder::kUnsorted);
    benchmark::DoNotOptimize(stats.max_multiplicity);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_ec_unsorted)->Name("ec/unsorted")->Arg(100)
    ->Unit(benchmark::kMillisecond);

// The retained single-pass runtime-rank kernel (the pre-tiling fallback
// every off-menu rank used to hit). ec/sorted/100 vs ec/generic/100 is
// the rank-cliff repair measured on the same machine in the same run —
// the ratio CI gates on, because absolute nnz/s is runner hardware.
void bm_ec_generic(benchmark::State& state, EcWorkingSet ws) {
  const auto& t = sorted_tensor(ws);
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  const auto& f = factors(ws, rank);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats = run_ec_block_generic(t, 0, t.nnz(), 0, f, out,
                                      BlockOrder::kOutputSorted);
    benchmark::DoNotOptimize(stats.max_run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK_CAPTURE(bm_ec_generic, l2, EcWorkingSet::kCacheResident)
    ->Name("ec/generic")->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Pre-PR EC kernel, verbatim: per-element span gathers, per-element
// unordered_map multiplicity insert.
sim::EcBlockStats reference_ec_block(const CooTensor& t, nnz_t begin,
                                     nnz_t end, std::size_t output_mode,
                                     const FactorSet& f, DenseMatrix& out) {
  const std::size_t modes = t.num_modes();
  const std::size_t rank = f.rank();
  sim::EcBlockStats stats;
  stats.nnz = end - begin;
  stats.modes = modes;
  stats.rank = rank;
  if (begin == end) return stats;
  const auto out_idx = t.indices(output_mode);
  const auto vals = t.values();
  std::array<value_t, 256> scratch{};
  index_t run_index = out_idx[begin];
  nnz_t run_len = 0;
  stats.output_runs = 1;
  std::unordered_map<index_t, nnz_t> multiplicity;
  multiplicity.reserve(static_cast<std::size_t>(end - begin));
  for (nnz_t n = begin; n < end; ++n) {
    const value_t v = vals[n];
    for (std::size_t r = 0; r < rank; ++r) scratch[r] = v;
    for (std::size_t w = 0; w < modes; ++w) {
      if (w == output_mode) continue;
      const auto row = f.factor(w).row(t.indices(w)[n]);
      for (std::size_t r = 0; r < rank; ++r) scratch[r] *= row[r];
    }
    const index_t i = out_idx[n];
    auto out_row = out.row(i);
    for (std::size_t r = 0; r < rank; ++r) out_row[r] += scratch[r];
    if (i == run_index) {
      ++run_len;
    } else {
      stats.max_run = std::max(stats.max_run, run_len);
      ++stats.output_runs;
      run_index = i;
      run_len = 1;
    }
    stats.max_multiplicity =
        std::max(stats.max_multiplicity, ++multiplicity[i]);
  }
  stats.max_run = std::max(stats.max_run, run_len);
  return stats;
}

void bm_ec_reference(benchmark::State& state, EcWorkingSet ws) {
  const auto& t = sorted_tensor(ws);
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  const auto& f = factors(ws, rank);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats = reference_ec_block(t, 0, t.nnz(), 0, f, out);
    benchmark::DoNotOptimize(stats.max_run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK_CAPTURE(bm_ec_reference, l2, EcWorkingSet::kCacheResident)
    ->Name("ec/reference")->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_ec_reference, dram, EcWorkingSet::kDramBound)
    ->Name("ec/reference_dram")->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Preprocessing sorts

void bm_sort_radix(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  std::vector<std::size_t> order(t.num_modes());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (auto _ : state) {
    auto perm = formats::lexicographic_permutation(t, order);
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_sort_radix)->Name("sort/lexicographic")
    ->Unit(benchmark::kMillisecond);

// Pre-PR lexicographic permutation, verbatim.
void bm_sort_reference(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  std::vector<std::size_t> order(t.num_modes());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (auto _ : state) {
    std::vector<nnz_t> perm(t.nnz());
    std::iota(perm.begin(), perm.end(), nnz_t{0});
    std::sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
      for (std::size_t m : order) {
        const auto idx = t.indices(m);
        if (idx[a] != idx[b]) return idx[a] < idx[b];
      }
      return false;
    });
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_sort_reference)->Name("sort/reference")
    ->Unit(benchmark::kMillisecond);

// One mode copy: the record radix sort (pack, LSD passes over the key
// bits, unpack) of sorted_copy_by_mode behind CooTensor::sort_by_mode;
// the name predates it (it used to apply a sorting permutation) and is
// kept so the trajectory stays continuous.
void bm_sort_by_mode(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  for (auto _ : state) {
    CooTensor copy = t;
    copy.sort_by_mode(1);
    benchmark::DoNotOptimize(copy.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_sort_by_mode)->Name("sort/by_mode_with_apply")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Storage engine: text ingest and snapshot reload (nnz/s series tracked
// PR over PR alongside the kernel numbers; the ISSUE-3 targets are
// ingest/parallel >= 3x ingest/serial and snapshot reload >= 10x text
// parse on the same tensor).

const CooTensor& io_tensor() {
  static const CooTensor t = [] {
    GeneratorOptions gen;
    gen.dims = {1u << 15, 1u << 12, 1u << 13};
    gen.nnz = 1u << 19;
    gen.zipf_exponents = {1.0, 0.0, 0.5};
    gen.seed = 23;
    return generate_random(gen);
  }();
  return t;
}

const std::string& io_tns_text() {
  static const std::string text = [] {
    std::ostringstream out;
    write_tns(io_tensor(), out);
    return out.str();
  }();
  return text;
}

// Snapshot written once to the temp dir and cleaned at process exit.
const std::string& io_snapshot_path() {
  static const std::string path = [] {
    auto p = (std::filesystem::temp_directory_path() /
              "amped_bench_host_throughput.amptns").string();
    io::write_snapshot_file(io_tensor(), p);
    static struct Cleanup {
      std::string path;
      ~Cleanup() { std::remove(path.c_str()); }
    } cleanup{p};
    return p;
  }();
  return path;
}

void bm_tns_ingest_serial(benchmark::State& state) {
  const auto& text = io_tns_text();
  for (auto _ : state) {
    std::istringstream in(text);
    auto t = read_tns(in);
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_tns_ingest_serial)->Name("io/tns_ingest_serial")
    ->Unit(benchmark::kMillisecond);

void bm_tns_ingest_parallel(benchmark::State& state) {
  const auto& text = io_tns_text();
  for (auto _ : state) {
    auto t = io::read_tns_text(text);
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_tns_ingest_parallel)->Name("io/tns_ingest_parallel")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_snapshot_write(benchmark::State& state) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "amped_bench_snapshot_write.amptns").string();
  for (auto _ : state) {
    io::write_snapshot_file(io_tensor(), path);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_snapshot_write)->Name("io/snapshot_write")
    ->Unit(benchmark::kMillisecond);

// Owned reload: checksum-verified read into resident vectors.
void bm_snapshot_reload(benchmark::State& state) {
  const auto& path = io_snapshot_path();
  for (auto _ : state) {
    auto t = io::read_snapshot_file(path);
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_snapshot_reload)->Name("io/snapshot_reload")
    ->Unit(benchmark::kMillisecond);

// Zero-copy reload: mmap + checksum sweep, no materialisation.
void bm_snapshot_reload_mmap(benchmark::State& state) {
  const auto& path = io_snapshot_path();
  for (auto _ : state) {
    io::MappedCooTensor mapped(path);
    benchmark::DoNotOptimize(mapped.values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_snapshot_reload_mmap)->Name("io/snapshot_reload_mmap")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// End to end

void bm_amped_build(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  for (auto _ : state) {
    auto tensor = AmpedTensor::build(t, build);
    benchmark::DoNotOptimize(tensor.total_bytes());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}
BENCHMARK(bm_amped_build)->Name("e2e/amped_build")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// A resident AmpedTensor::build on the pool (all mode copies in parallel,
// plus partitions and the mode-0 norm) of a patents-shaped tensor: its
// 6+9+9 = 24-bit keys take the fused (key << 32 | value) record path,
// where e2e/amped_build's 43-bit keys carry values in a parallel array.
void bm_build_resident(benchmark::State& state) {
  static const CooTensor t = [] {
    GeneratorOptions gen;
    gen.dims = {46, 478, 478};
    gen.nnz = kNnz;
    gen.zipf_exponents = {0.9, 0.6, 0.6};
    gen.seed = 24;
    return generate_random(gen);
  }();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  build.storage = BuildStorage::kResident;
  for (auto _ : state) {
    auto tensor = AmpedTensor::build(t, build);
    benchmark::DoNotOptimize(tensor.total_bytes());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}
BENCHMARK(bm_build_resident)->Name("build/resident")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_mttkrp_all_modes(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(t, build);
  const auto& f = factors(EcWorkingSet::kDramBound, 32);
  MttkrpOptions options;
  for (auto _ : state) {
    auto platform = sim::make_default_platform(build.num_gpus);
    std::vector<DenseMatrix> outputs;
    auto report = mttkrp_all_modes(platform, tensor, f, outputs, options);
    benchmark::DoNotOptimize(report.total_seconds);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}
BENCHMARK(bm_mttkrp_all_modes)->Name("e2e/mttkrp_all_modes")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Plan-engine dispatch overhead: the same MTTKRP sweep through the
// execution-plan engine (dispatch/plan_engine), through the frozen
// pre-engine loop (dispatch/reference_loop, exec/reference_loop.cpp), and
// as bare arithmetic with no plan (dispatch/bare_sweep). The first two
// run identical arithmetic and produce identical simulated times; CI
// fails if the plan engine is more than 5% slower than the loop, which
// still rescans every shard's indices to price it (the engine prices
// from the copy's ISP run table after the first sweep). The engine ÷ bare
// ratio is what planning, dispatch and pricing cost over the arithmetic.
// The sweeps run lanes on the host pool, so all report wall time.

template <typename Fn>
void bm_dispatch(benchmark::State& state, Fn mttkrp) {
  const auto& t = unsorted_tensor();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(t, build);
  const auto& f = factors(EcWorkingSet::kDramBound, 32);
  MttkrpOptions options;
  auto sweep = [&] {
    auto platform = sim::make_default_platform(build.num_gpus);
    std::vector<DenseMatrix> outputs;
    return mttkrp(platform, tensor, f, outputs, options).total_seconds;
  };
  // One untimed sweep first: every series then measures the steady state
  // an ALS iteration sees (the engine's first sweep fills the ISP run
  // table; the bare sweep below warms up the same way).
  sweep();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}

void bm_dispatch_plan(benchmark::State& state) {
  bm_dispatch(state, [](auto&... args) { return mttkrp_all_modes(args...); });
}
BENCHMARK(bm_dispatch_plan)->Name("dispatch/plan_engine")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_dispatch_reference(benchmark::State& state) {
  bm_dispatch(state, [](auto&... args) {
    return exec::reference_loop_mttkrp_all_modes(args...);
  });
}
BENCHMARK(bm_dispatch_reference)->Name("dispatch/reference_loop")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The engine sweep's arithmetic alone: each mode's shards dealt to GPU
// lanes by the same static-greedy assignment, one host-pool task per lane
// (as the engine runs parallel lanes), every shard through run_ec_block
// on the resident copy. No plan, no streamer, no pricing.
void bm_dispatch_bare(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(t, build);
  const auto& f = factors(EcWorkingSet::kDramBound, 32);
  const TileProgram& program = KernelCache::global().find_or_create(
      KernelShape::of(tensor.num_modes(), f.rank(), BlockOrder::kOutputSorted));
  std::vector<ShardAssignment> lanes;
  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    lanes.push_back(assign_shards(tensor.mode_copy(d).partition,
                                  build.num_gpus,
                                  SchedulingPolicy::kStaticGreedy));
  }
  auto sweep = [&] {
    std::vector<DenseMatrix> outputs;
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      const auto& copy = tensor.mode_copy(d);
      DenseMatrix& out = outputs.emplace_back(tensor.dims()[d], f.rank());
      const auto& per_gpu = lanes[d].per_gpu;
      global_thread_pool().parallel_for(per_gpu.size(), [&](std::size_t g) {
        for (std::size_t id : per_gpu[g]) {
          const Shard& shard = copy.partition.shards[id];
          run_ec_block(program, copy.tensor, shard.nnz_begin, shard.nnz_end,
                       d, f, out);
        }
      });
    }
    return outputs.back().data()[0];
  };
  sweep();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}
BENCHMARK(bm_dispatch_bare)->Name("dispatch/bare_sweep")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The same sweep with the metrics registry disabled: CI compares
// dispatch/plan_engine against this series and fails if instrumentation
// costs more than 2% (the counters on this path drop after one relaxed
// flag load when disabled, so the delta IS the instrumentation price).
void bm_dispatch_plan_metrics_off(benchmark::State& state) {
  metrics::set_enabled(false);
  bm_dispatch(state, [](auto&... args) { return mttkrp_all_modes(args...); });
  metrics::set_enabled(true);
}
BENCHMARK(bm_dispatch_plan_metrics_off)->Name("dispatch/plan_engine_metrics_off")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Metrics-overhead microbenchmarks: the raw cost of one instrumentation
// event, on and off, so a regression in the hot-path price is visible
// without running a full sweep.

void bm_metrics_counter_inc(benchmark::State& state) {
  auto& c = metrics::counter("bench.counter");
  for (auto _ : state) c.inc();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_counter_inc)->Name("metrics/counter_inc");

void bm_metrics_counter_inc_disabled(benchmark::State& state) {
  auto& c = metrics::counter("bench.counter_off");
  metrics::set_enabled(false);
  for (auto _ : state) c.inc();
  metrics::set_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_counter_inc_disabled)
    ->Name("metrics/counter_inc_disabled");

void bm_metrics_histogram_record(benchmark::State& state) {
  auto& h = metrics::histogram("bench.hist");
  for (auto _ : state) h.record_seconds(1e-6);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_histogram_record)->Name("metrics/histogram_record");

void bm_metrics_snapshot(benchmark::State& state) {
  metrics::counter("bench.snap").inc();
  metrics::histogram("bench.snap_hist").record_seconds(1e-6);
  for (auto _ : state) {
    auto json = metrics::Registry::global().snapshot_json();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_snapshot)->Name("metrics/snapshot_json");

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::printf("host threads: %zu (override with AMPED_THREADS)\n",
              amped::host_parallelism());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
