// The three benchmark workloads and their untraced and traced runs.
//
// Untraced run (--trace 0): rounds of set-up + solve until the time budget
// is spent; the median set-up and the lower-decile solve are reported.
// Traced run (--trace 1): one pass that times every call into each layer's
// public functions from here, plus the oracles (step-by-step replay vs
// cp_als, batch vs solo, serial EC kernel vs mttkrp_one_mode on both
// backends, .tns ingest vs the generated data).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/ec_kernel.hpp"
#include "core/mttkrp.hpp"
#include "io/memory_budget.hpp"
#include "io/shard_stream.hpp"
#include "perfbench.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "tensor/tns_io.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace amped;
namespace fs = std::filesystem;

constexpr int kGpus = 4;

struct InputSpec {
  DatasetProfile (*profile)();
  double scale = 1.0;
};

struct WorkloadSpec {
  std::string name;
  std::vector<InputSpec> inputs;
  std::size_t rank = 32;
  SchedulingPolicy policy = SchedulingPolicy::kStaticGreedy;
  exec::ExecBackend backend = exec::ExecBackend::kSimulated;
  std::size_t iterations = 4;
  // Ingest from a FROSTT .tns file and build under a host memory budget
  // below the resident footprint, so kAuto spills the mode copies.
  bool from_file = false;
  bool checkpoint = false;          // checkpoint every iteration
  std::size_t graph_window = 0;     // > 0: cpd_batch over all inputs
  bool batch() const { return inputs.size() > 1; }
};

// Why each workload exists is recorded in README.md; the shapes are part
// of the workload's identity.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs{
      {.name = "patents-host",
       .inputs = {{patents_profile, 500.0}},
       .rank = 32,
       .policy = SchedulingPolicy::kStaticGreedy,
       .backend = exec::ExecBackend::kHostParallel,
       .iterations = 4},
      {.name = "twitch-ooc",
       .inputs = {{twitch_profile, 250.0}},
       .rank = 16,
       .policy = SchedulingPolicy::kDynamicLookahead,
       .backend = exec::ExecBackend::kSimulated,
       .iterations = 3,
       .from_file = true,
       .checkpoint = true},
      {.name = "batch-graph",
       .inputs = {{patents_profile, 1000.0}, {reddit_profile, 1000.0}},
       .rank = 16,
       .policy = SchedulingPolicy::kStaticGreedy,
       .backend = exec::ExecBackend::kHostParallel,
       .iterations = 4,
       .graph_window = 2},
  };
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  std::string names;
  for (const auto& w : workloads()) names += " " + w.name;
  throw std::invalid_argument("unknown workload '" + name + "'; valid:" +
                              names);
}

// The generated inputs of one run; the program only ever sees `tensor`
// (or the .tns file written from it).
struct Input {
  DatasetProfile profile;
  double scale = 1.0;
  CooTensor tensor;
  std::string tns_path;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Input> make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                               const std::string& work_dir) {
  std::vector<Input> inputs;
  for (std::size_t i = 0; i < spec.inputs.size(); ++i) {
    DatasetProfile profile = spec.inputs[i].profile();
    profile.seed = mix_seed(seed, i);
    ScaledDataset ds = generate_scaled(profile, spec.inputs[i].scale);
    inputs.push_back(Input{ds.profile, ds.scale, std::move(ds.tensor),
                           work_dir + "/" + spec.name + "." +
                               std::to_string(i) + ".tns"});
  }
  return inputs;
}

// FROSTT text with a dims header and values printed round-trip exact, so
// the tensor read_tns_file returns is bit-identical to the generated one.
void write_tns_exact(const CooTensor& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("perfbench: cannot write " + path);
  std::fputs("# dims:", f);
  for (index_t d : t.dims()) std::fprintf(f, " %u", d);
  std::fputc('\n', f);
  for (nnz_t n = 0; n < t.nnz(); ++n) {
    for (std::size_t m = 0; m < t.num_modes(); ++m) {
      std::fprintf(f, "%u ", t.indices(m)[n] + 1);
    }
    std::fprintf(f, "%.9g\n", static_cast<double>(t.values()[n]));
  }
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: write failed on " + path);
  }
}

bool same_tensor(const CooTensor& a, const CooTensor& b) {
  if (a.dims() != b.dims() || a.nnz() != b.nnz()) return false;
  for (std::size_t m = 0; m < a.num_modes(); ++m) {
    if (!std::equal(a.indices(m).begin(), a.indices(m).end(),
                    b.indices(m).begin())) {
      return false;
    }
  }
  return std::memcmp(a.values().data(), b.values().data(),
                     a.nnz() * sizeof(value_t)) == 0;
}

MttkrpOptions mttkrp_options(const WorkloadSpec& spec, const Input& input,
                             exec::ExecBackend backend) {
  MttkrpOptions opt;
  opt.policy = spec.policy;
  opt.backend = backend;
  opt.full_dims = input.profile.full_dims;
  return opt;
}

CpdOptions cpd_options(const WorkloadSpec& spec, const Input& input,
                       exec::ExecBackend backend,
                       const std::string& checkpoint_path) {
  CpdOptions opt;
  opt.rank = spec.rank;
  opt.max_iterations = spec.iterations;
  opt.tolerance = 0.0;
  opt.mttkrp = mttkrp_options(spec, input, backend);
  opt.graph_window = spec.graph_window;
  if (spec.checkpoint) {
    opt.checkpoint_path = checkpoint_path;
    opt.checkpoint_every = 1;
  }
  return opt;
}

// A fresh platform per solve: simulated seconds are clock deltas, so a
// reused platform would shift their low bits with its accumulated time.
sim::Platform make_platform(const Input& input) {
  return sim::make_default_platform(kGpus, input.scale);
}

AmpedBuildOptions build_options(const WorkloadSpec& spec,
                                const std::string& work_dir) {
  AmpedBuildOptions opt;
  opt.num_gpus = kGpus;
  opt.spill_dir = spec.from_file ? work_dir : std::string();
  return opt;
}

std::string checkpoint_path(const RunConfig& config, std::size_t i) {
  return config.work_dir + "/" + config.workload + "." + std::to_string(i) +
         ".ampckp";
}

// ---- untraced run ---------------------------------------------------------

// Set-up: from the input handed over to the built AmpedTensor(s). For
// file workloads that includes read_tns_file and the spilled build.
std::vector<AmpedTensor> set_up(const WorkloadSpec& spec,
                                const std::vector<Input>& inputs,
                                const std::string& work_dir) {
  std::vector<AmpedTensor> built;
  for (const Input& in : inputs) {
    if (spec.from_file) {
      const CooTensor read = read_tns_file(in.tns_path);
      built.push_back(AmpedTensor::build(read, build_options(spec, work_dir)));
    } else {
      built.push_back(
          AmpedTensor::build(in.tensor, build_options(spec, work_dir)));
    }
  }
  return built;
}

struct Solution {
  std::vector<CpdResult> results;
  BatchReport report;
  double sim_seconds = 0.0;  // full-scale simulated MTTKRP seconds
};

// The workload's solve call: cp_als on one tensor, cpd_batch on several.
Solution solve(const WorkloadSpec& spec, const std::vector<Input>& inputs,
               const std::vector<AmpedTensor>& tensors,
               exec::ExecBackend backend, std::size_t graph_window,
               const RunConfig& config) {
  Solution sol;
  sim::Platform platform = make_platform(inputs[0]);
  CpdOptions opt =
      cpd_options(spec, inputs[0], backend, checkpoint_path(config, 0));
  opt.graph_window = graph_window;
  if (spec.batch()) {
    std::vector<const AmpedTensor*> ptrs;
    for (const auto& t : tensors) ptrs.push_back(&t);
    sol.results = cpd_batch(platform, ptrs, opt, &sol.report);
    sol.sim_seconds = sol.report.total_seconds * inputs[0].scale;
  } else {
    sol.results.push_back(cp_als(platform, tensors[0], opt));
    sol.sim_seconds = sol.results[0].mttkrp_sim_seconds * inputs[0].scale;
  }
  return sol;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_results(const std::vector<CpdResult>& a,
                  const std::vector<CpdResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].factors, b[i].factors) ||
        !same_double(a[i].fit, b[i].fit) ||
        a[i].lambda != b[i].lambda) {
      return false;
    }
  }
  return true;
}

// Every sample behind a reported quantile, on stderr (the result line is
// on stdout).
void print_samples(const char* name, const std::vector<double>& samples) {
  std::fprintf(stderr, "%s samples:", name);
  for (double v : samples) std::fprintf(stderr, " %.4f", v);
  std::fputc('\n', stderr);
}

void run_untraced(const WorkloadSpec& spec, const RunConfig& config,
                  std::vector<Input>& inputs, Outcome& out) {
  for (Input& in : inputs) {
    if (spec.from_file) {
      write_tns_exact(in.tensor, in.tns_path);
      in.tensor = CooTensor();  // the program reads the file, not this
    }
  }

  std::vector<double> setup_s, solve_s;
  std::vector<AmpedTensor> tensors;
  auto timed_set_up = [&] {
    // One build alive at a time, and its freed pages handed back, so each
    // set-up starts from the memory state a single run would see.
    tensors.clear();
    malloc_trim(0);
    WallTimer t;
    tensors = set_up(spec, inputs, config.work_dir);
    setup_s.push_back(t.seconds());
    out.check(tensors.size() == inputs.size(), "set-up");
  };
  auto timed_solve = [&] {
    WallTimer t;
    Solution sol = solve(spec, inputs, tensors, spec.backend,
                         spec.graph_window, config);
    solve_s.push_back(t.seconds());
    return sol;
  };
  WallTimer budget;

  // First one set-up and one solve, as a single run would do them: the
  // peak RSS is taken here, before repetition can fragment the heap.
  timed_set_up();
  const Solution first = timed_solve();
  const double peak_rss = peak_rss_mib();
  bool ok = true;
  for (const auto& r : first.results) {
    ok = ok && r.iterations == spec.iterations && std::isfinite(r.fit);
  }
  out.check(ok, "solve: iteration count or fit");
  double sim_seconds = first.sim_seconds;
  if (spec.backend == exec::ExecBackend::kHostParallel) {
    // The paper's metric needs the simulator: price the same solve there
    // (outside the timing); its factors must match the host's.
    const Solution sim = solve(spec, inputs, tensors,
                               exec::ExecBackend::kSimulated,
                               spec.graph_window, config);
    out.check(same_results(sim.results, first.results),
              "sim vs host factors differ");
    sim_seconds = sim.sim_seconds;
  }

  // A third of the budget (at least three builds) goes to set-up; the
  // last build serves the solves, which repeat for the rest (at least
  // three). Each must reproduce the first solve bit for bit, simulated
  // time included: those numbers are deterministic by design.
  while (setup_s.size() < 3 || budget.seconds() < config.seconds / 3) {
    timed_set_up();
  }
  while (solve_s.size() < 3 || budget.seconds() < config.seconds) {
    const Solution sol = timed_solve();
    out.check(same_results(sol.results, first.results),
              "solve factors differ from the first solve");
    if (spec.backend == exec::ExecBackend::kSimulated) {
      out.check(same_double(sol.sim_seconds, first.sim_seconds),
                "simulated MTTKRP seconds differ across solves");
    }
  }

  print_samples("setup_s", setup_s);
  print_samples("solve_s", solve_s);
  out.set("setup_s", quantile(setup_s, 0.5), "s");
  // The lower decile, not the median: on a shared host, neighbours slow
  // a varying share of the solves by up to 2x, and the median follows
  // that share from run to run while the fast tail stays put.
  out.set("solve_s", quantile(solve_s, 0.1), "s");
  out.set("sim_mttkrp_s", sim_seconds, "s");
  out.set("peak_rss_mib", peak_rss, "MiB");
}

// ---- traced run -----------------------------------------------------------

double counter(const char* name) {
  return static_cast<double>(
      metrics::Registry::global().counter(name).value());
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

// Sums of the ModeBreakdown fields over every mode of a sweep or a solve.
struct Phases {
  double h2d = 0.0, compute = 0.0, p2p = 0.0, sync = 0.0;
  std::uint64_t gather_bytes = 0;
  std::vector<double> per_gpu;

  void add(const Phases& o) {
    h2d += o.h2d;
    compute += o.compute;
    p2p += o.p2p;
    sync += o.sync;
    gather_bytes += o.gather_bytes;
    add_per_gpu(o.per_gpu);
  }
  void add(const ModeBreakdown& bd) {
    h2d += bd.h2d;
    compute += bd.compute;
    p2p += bd.p2p;
    sync += bd.sync;
    gather_bytes += bd.gather_bytes;
    add_per_gpu(bd.per_gpu_compute);
  }
  void add_per_gpu(const std::vector<double>& v) {
    per_gpu.resize(std::max(per_gpu.size(), v.size()), 0.0);
    for (std::size_t g = 0; g < v.size(); ++g) per_gpu[g] += v[g];
  }
  // (max - min) / total of per-GPU EC seconds, as
  // MttkrpReport::compute_overhead_fraction defines it.
  double imbalance() const {
    double total = 0.0;
    for (double v : per_gpu) total += v;
    if (per_gpu.size() < 2 || total <= 0.0) return 0.0;
    const auto [mn, mx] = std::minmax_element(per_gpu.begin(), per_gpu.end());
    return (*mx - *mn) / total;
  }
};

// cp_als, one public call at a time, with a span around each call.
CpdResult replay(const AmpedTensor& tensor, const CpdOptions& opt,
                 sim::Platform& platform, Tracer& tracer, Phases& phases,
                 const std::string& ckpt) {
  detail::AlsState state(tensor, opt);
  while (!state.done()) {
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      DenseMatrix* buf = nullptr;
      {
        Scope s(tracer, "AlsState::prepare_mode");
        buf = &state.prepare_mode(d);
      }
      ModeBreakdown bd;
      {
        Scope s(tracer, "mttkrp_one_mode");
        bd = mttkrp_one_mode(platform, tensor, state.factors(), d, *buf,
                             opt.mttkrp);
      }
      phases.add(bd);
      Scope s(tracer, "AlsState::update_mode");
      state.update_mode(d, bd.seconds);
    }
    {
      Scope s(tracer, "AlsState::finish_iteration");
      state.finish_iteration();
    }
    if (!opt.checkpoint_path.empty() &&
        state.iterations() % opt.checkpoint_every == 0) {
      Scope s(tracer, "AlsState::save_checkpoint");
      state.save_checkpoint(ckpt);
    }
  }
  if (opt.checkpoint_path.empty()) {
    // Workloads that do not checkpoint still price one checkpoint of
    // their final state, so io.checkpoint_s is measured everywhere.
    Scope s(tracer, "AlsState::save_checkpoint");
    state.save_checkpoint(ckpt);
  }
  return state.take_result();
}

// The copy's elements as one tensor per shard (resident copies are used in
// place; spilled ones are read from disk before the timing starts).
std::vector<CooTensor> load_spilled_shards(const AmpedTensor::ModeCopy& copy) {
  std::vector<CooTensor> shards;
  if (!copy.spilled()) return shards;
  for (const Shard& s : copy.partition.shards) {
    shards.push_back(copy.spill->read_range(s.nnz_begin, s.nnz_end));
  }
  return shards;
}

void run_traced(const WorkloadSpec& spec, const RunConfig& config,
                std::vector<Input>& inputs, Outcome& out) {
  Tracer tracer;
  const std::size_t n = inputs.size();

  // io: every input goes through a .tns file. For the file workload that
  // is its set-up path; for the others it prices what ingesting their
  // input would cost (the solves below use the generated tensor).
  double ingest_bytes = 0.0;
  std::vector<CooTensor> read(n);
  for (std::size_t i = 0; i < n; ++i) {
    write_tns_exact(inputs[i].tensor, inputs[i].tns_path);
    ingest_bytes += static_cast<double>(fs::file_size(inputs[i].tns_path));
    Scope s(tracer, "read_tns_file");
    read[i] = read_tns_file(inputs[i].tns_path);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.check(same_tensor(read[i], inputs[i].tensor),
              "read_tns_file differs from the written tensor");
  }
  auto input_of = [&](std::size_t i) -> const CooTensor& {
    return spec.from_file ? read[i] : inputs[i].tensor;
  };

  // formats: every mode's sort, on a copy of the input.
  for (std::size_t i = 0; i < n; ++i) {
    CooTensor copy = input_of(i);
    for (std::size_t d = 0; d < copy.num_modes(); ++d) {
      Scope s(tracer, "CooTensor::sort_by_mode");
      copy.sort_by_mode(d);
    }
  }

  // core.build
  io::HostMemoryBudget::global().reset_peak();
  std::vector<AmpedTensor> tensors;
  double imbalance = 0.0;
  bool spilled = false;
  for (std::size_t i = 0; i < n; ++i) {
    {
      Scope s(tracer, "AmpedTensor::build");
      tensors.push_back(AmpedTensor::build(
          input_of(i), build_options(spec, config.work_dir)));
    }
    spilled = spilled || tensors.back().spilled();
    for (std::size_t d = 0; d < tensors.back().num_modes(); ++d) {
      const ModePartition& p = tensors.back().mode_copy(d).partition;
      const double mean = static_cast<double>(p.total_nnz()) /
                          static_cast<double>(p.shards.size());
      imbalance =
          std::max(imbalance, static_cast<double>(p.max_shard_nnz()) / mean);
    }
  }
  out.check(spilled == spec.from_file, "build storage (resident vs spilled)");
  read.clear();

  // Untraced solo cp_als per tensor: the oracle the replay and the batch
  // must match bit for bit, and the base of the tracing overhead.
  std::vector<CpdResult> solo(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Platform platform = make_platform(inputs[i]);
    CpdOptions opt = cpd_options(spec, inputs[i], spec.backend,
                                 checkpoint_path(config, i));
    Scope s(tracer, "cp_als");
    solo[i] = cp_als(platform, tensors[i], opt);
  }

  // Fit as reported vs recomputed against the input with duplicate
  // coordinates summed. The program sums squares of raw entries for
  // ||X||^2, so its fit is wrong wherever coordinates repeat; that gap is
  // reported, not counted as a failure. Duplicate-free inputs must agree.
  double fit_error = 0.0, duplicate_frac = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const ReferenceTensor ref = make_reference(inputs[i].tensor);
    const double gap = std::abs(
        solo[i].fit - reference_fit(ref, solo[i].factors, solo[i].lambda));
    out.check(std::isfinite(gap) && (ref.duplicate_fraction > 0 || gap < 1e-5),
              "reported fit differs from the reference on distinct coordinates");
    fit_error = std::max(fit_error, gap);
    duplicate_frac = std::max(duplicate_frac, ref.duplicate_fraction);
  }

  // exec graph: the batch with and without its graph window.
  double graph_ratio = 0.0, graph_dispatches = 0.0, elided = 0.0;
  Phases batch;  // gather bytes and per-GPU EC seconds of the batch
  if (spec.batch()) {
    for (const bool windowed : {true, false}) {
      Solution sol;
      {
        Scope s(tracer, windowed ? "cpd_batch (graph window)"
                                 : "cpd_batch (no window)");
        sol = solve(spec, inputs, tensors, spec.backend,
                    windowed ? spec.graph_window : 0, config);
      }
      for (std::size_t i = 0; i < n; ++i) {
        out.check(same_bits(sol.results[i].factors, solo[i].factors),
                  "cpd_batch factors differ from solo cp_als");
      }
      if (windowed) {
        // The batch accounting below is the simulator's whichever backend
        // was timed, so that sim.imbalance stays exact.
        if (spec.backend != exec::ExecBackend::kSimulated) {
          sol = solve(spec, inputs, tensors, exec::ExecBackend::kSimulated,
                      spec.graph_window, config);
        }
        graph_dispatches = static_cast<double>(sol.report.graph_dispatches);
        elided = static_cast<double>(sol.report.elided_barriers);
        for (const auto& e : sol.report.gather_edges) {
          batch.gather_bytes += e.bytes;
        }
        for (const auto& per : sol.report.per_tensor_gpu_compute) {
          batch.add_per_gpu(per);
        }
      }
    }
    graph_ratio = tracer.total("cpd_batch (graph window)") /
                  tracer.total("cpd_batch (no window)");
  }

  // ALS + exec: the traced replay, checked against the untraced solve.
  const double hits0 = counter("stream.readahead_hits");
  const double inline0 = counter("stream.inline_loads");
  Phases phases;
  for (std::size_t i = 0; i < n; ++i) {
    sim::Platform platform = make_platform(inputs[i]);
    CpdOptions opt = cpd_options(spec, inputs[i], spec.backend,
                                 checkpoint_path(config, i));
    CpdResult r;
    Phases mine;
    {
      Scope s(tracer, "cp_als (traced replay)");
      r = replay(tensors[i], opt, platform, tracer, mine,
                 checkpoint_path(config, i));
    }
    out.check(same_bits(r.factors, solo[i].factors) && r.lambda == solo[i].lambda,
              "traced replay factors differ from cp_als");
    if (spec.backend == exec::ExecBackend::kSimulated) {
      // Simulated numbers are exact: the replay must reproduce cp_als's.
      const CpdResult& c = solo[i];
      out.check(same_double(r.mttkrp_sim_seconds, c.mttkrp_sim_seconds) &&
                    same_double(mine.h2d, c.h2d_seconds) &&
                    same_double(mine.compute, c.compute_seconds) &&
                    same_double(mine.p2p, c.p2p_seconds) &&
                    same_double(mine.sync, c.sync_seconds),
                "replay simulated seconds differ from cp_als");
    }
    phases.add(mine);
  }
  const double hits = counter("stream.readahead_hits") - hits0;
  const double inlined = counter("stream.inline_loads") - inline0;
  const double iterations = static_cast<double>(spec.iterations);

  // ec + sim + exec.host: per mode, the serial kernel probe against
  // mttkrp_one_mode on both backends, all with the solved factors.
  auto& host_hist =
      metrics::Registry::global().histogram("exec.host.kernel_seconds");
  double ec_nnz = 0.0, ec_flops = 0.0, ec_bytes = 0.0;
  double host_kernel_s = 0.0, host_compute = 0.0, host_predicted = 0.0;
  Phases sweep;
  for (std::size_t i = 0; i < n; ++i) {
    const AmpedTensor& t = tensors[i];
    const FactorSet& f = solo[i].factors;
    const std::size_t modes = t.num_modes();
    sim::Platform sim_platform = make_platform(inputs[i]);
    sim::Platform host_platform = make_platform(inputs[i]);
    for (std::size_t d = 0; d < modes; ++d) {
      DenseMatrix sim_out(t.dims()[d], spec.rank);
      DenseMatrix host_out(t.dims()[d], spec.rank);
      DenseMatrix serial_out(t.dims()[d], spec.rank);
      {
        Scope s(tracer, "mttkrp_one_mode (sim probe)");
        sweep.add(mttkrp_one_mode(
            sim_platform, t, f, d, sim_out,
            mttkrp_options(spec, inputs[i], exec::ExecBackend::kSimulated)));
      }
      {
        const double h0 = host_hist.sum_seconds();
        Scope s(tracer, "mttkrp_one_mode (host probe)");
        const ModeBreakdown bd = mttkrp_one_mode(
            host_platform, t, f, d, host_out,
            mttkrp_options(spec, inputs[i], exec::ExecBackend::kHostParallel));
        host_kernel_s += host_hist.sum_seconds() - h0;
        host_compute += bd.compute;
        host_predicted += bd.predicted_compute;
      }
      const AmpedTensor::ModeCopy& copy = t.mode_copy(d);
      const std::vector<CooTensor> loaded = load_spilled_shards(copy);
      {
        Scope s(tracer, "run_ec_block (serial probe)");
        for (std::size_t j = 0; j < copy.partition.shards.size(); ++j) {
          const Shard& sh = copy.partition.shards[j];
          const sim::EcBlockStats st =
              copy.spilled()
                  ? run_ec_block(loaded[j], 0, sh.nnz(), d, f, serial_out,
                                 BlockOrder::kOutputSorted)
                  : run_ec_block(copy.tensor, sh.nnz_begin, sh.nnz_end, d, f,
                                 serial_out, BlockOrder::kOutputSorted);
          // Computed, not measured: per nonzero, modes multiply-adds per
          // rank column; coordinates + value, (modes-1) factor rows read,
          // and one output row read-modify-write per output run.
          const double row = static_cast<double>(st.rank * sizeof(value_t));
          ec_nnz += static_cast<double>(st.nnz);
          ec_flops += static_cast<double>(st.nnz * st.rank * st.modes);
          ec_bytes += static_cast<double>(st.nnz) *
                          (static_cast<double>(t.bytes_per_nnz()) +
                           static_cast<double>(st.modes - 1) * row) +
                      static_cast<double>(st.output_runs) * 2.0 * row;
        }
      }
      out.check(same_bits(serial_out, sim_out),
                "serial EC kernel differs from mttkrp_one_mode (sim)");
      out.check(same_bits(host_out, sim_out),
                "mttkrp_one_mode host differs from sim");
    }
  }
  // Every kernel shape the process specialised, i.e. over the whole run.
  const double misses = counter("kernel_cache.misses");

  const double ingest_s = tracer.total("read_tns_file");
  const double serial_s = tracer.total("run_ec_block (serial probe)");
  // Per ALS iteration, i.e. one sweep over every mode of every input.
  const double mttkrp_s = tracer.total("mttkrp_one_mode") / iterations;
  double unattributed = 0.0;
  for (std::size_t id = 0; id < tracer.spans().size(); ++id) {
    if (tracer.spans()[id].name == "cp_als (traced replay)") {
      unattributed += tracer.self_time(static_cast<int>(id));
    }
  }
  const bool sim_solve = spec.backend == exec::ExecBackend::kSimulated;

  out.set("io.ingest_s", ingest_s, "s");
  out.set("io.ingest_mib_per_s", mib(ingest_bytes) / ingest_s, "MiB/s");
  out.set("io.stream_hit_frac",
          hits + inlined > 0 ? hits / (hits + inlined) : 0.0, "fraction");
  out.set("io.budget_peak_mib",
          mib(static_cast<double>(io::HostMemoryBudget::global().peak())),
          "MiB");
  out.set("io.checkpoint_s", tracer.total("AlsState::save_checkpoint"), "s");
  out.set("io.checkpoint_count",
          static_cast<double>(std::count_if(
              tracer.spans().begin(), tracer.spans().end(),
              [](const Tracer::Span& s) {
                return s.name == "AlsState::save_checkpoint";
              })),
          "count");
  out.set("formats.sort_s", tracer.total("CooTensor::sort_by_mode"), "s");
  out.set("core.build_s", tracer.total("AmpedTensor::build"), "s");
  out.set("core.build_spilled", spilled ? 1.0 : 0.0, "bool");
  out.set("core.shard_imbalance", imbalance, "ratio");
  out.set("ec.serial_s", serial_s, "s");
  out.set("ec.nnz_per_s", ec_nnz / serial_s, "1/s");
  out.set("ec.flops", ec_flops, "flop");
  out.set("ec.bytes", ec_bytes, "B");
  out.set("ec.cache_misses", misses, "count");
  out.set("exec.mttkrp_s", mttkrp_s, "s");
  out.set("exec.parallel_speedup", serial_s / mttkrp_s, "ratio");
  out.set("exec.host_kernel_s", host_kernel_s, "s");
  out.set("exec.compute_drift", host_compute / host_predicted, "ratio");
  out.set("exec.graph_dispatches", graph_dispatches, "count");
  out.set("exec.elided_barriers", elided, "count");
  out.set("exec.graph_wall_ratio", graph_ratio, "ratio");
  // Simulated phases of the workload's solve where it runs on the
  // simulator, else of one simulated sweep with the solved factors.
  const Phases& simp = sim_solve ? phases : sweep;
  const double scale = inputs[0].scale;
  out.set("sim.h2d_s", simp.h2d * scale, "s");
  out.set("sim.compute_s", simp.compute * scale, "s");
  out.set("sim.p2p_s", simp.p2p * scale, "s");
  out.set("sim.sync_s", simp.sync * scale, "s");
  out.set("sim.imbalance",
          (spec.batch() ? batch : simp).imbalance(), "fraction");
  out.set("allgather.bytes",
          static_cast<double>((spec.batch() ? batch : phases).gather_bytes),
          "B");
  out.set("als.fit_error", fit_error, "fit");
  out.set("als.duplicate_frac", duplicate_frac, "fraction");
  out.set("als.update_s", tracer.total("AlsState::update_mode"), "s");
  out.set("als.finish_s", tracer.total("AlsState::finish_iteration"), "s");
  out.set("als.unattributed_s", unattributed, "s");
  out.set("trace.overhead_s",
          tracer.total("cp_als (traced replay)") - tracer.total("cp_als"),
          "s");

  fs::create_directories(config.span_dir);
  tracer.write_json(config.span_dir + "/" + config.workload + "-" +
                    std::to_string(config.seed) + ".json");
}

}  // namespace

Outcome run_workload(const RunConfig& config) {
  const WorkloadSpec& spec = find_workload(config.workload);
  fs::create_directories(config.work_dir);
  // Load shape: 4 simulated GPUs on at most 4 host threads.
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  set_host_parallelism(std::min<std::size_t>(cores, kGpus));

  std::vector<Input> inputs = make_inputs(spec, config.seed, config.work_dir);
  if (spec.from_file) {
    // Below the resident footprint of every mode copy, so kAuto spills.
    std::uint64_t footprint = 0;
    for (const Input& in : inputs) {
      footprint += in.tensor.storage_bytes() * in.tensor.num_modes();
    }
    io::HostMemoryBudget::global().set_limit(footprint / 2);
  }

  Outcome out;
  if (config.trace) {
    run_traced(spec, config, inputs, out);
  } else {
    run_untraced(spec, config, inputs, out);
  }
  for (const Input& in : inputs) fs::remove(in.tns_path);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    fs::remove(checkpoint_path(config, i));
  }
  return out;
}

}  // namespace perfbench
