// Shared declarations of the repository benchmark (see README.md).
//
// The benchmark drives libamped only through its public headers: it
// generates the workload's inputs from the seed, hands them to the
// program, times the calls, and checks the outputs against its own
// oracles. Nothing here is linked into the library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cpd.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/dense_matrix.hpp"
#include "util/timer.hpp"

namespace perfbench {

// One named metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one invocation reports: every operation it attempted, the ones
// that failed (a failed correctness check counts as a failed operation),
// and the metrics of the selected mode (end-to-end or per-layer).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  // one line per failed operation

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one attempted operation; a false `ok` also counts it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files: .tns inputs, spills, checkpoints
  std::string span_dir;  // where the traced run writes its spans
};

// Runs the named workload; throws std::invalid_argument on an unknown name.
Outcome run_workload(const RunConfig& config);

// ---- tracing (trace.cpp) -------------------------------------------------

// In-memory span recorder: each span has a name, a start and end on one
// steady clock, and the index of the span open when it began (its parent).
// Only the traced run creates one; the untraced run records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     // index into spans(), -1 for a root span
  };

  // Opens a span; close it with end().
  int begin(const std::string& name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Sum of the durations of every span called `name`.
  double total(const std::string& name) const;
  // Duration of span `id` minus the time its direct children cover.
  double self_time(int id) const;
  // Writes the spans as Chrome trace-event JSON (one complete event per
  // span, parent index in args) to `path`.
  void write_json(const std::string& path) const;

 private:
  amped::WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---- oracles (reference.cpp) ---------------------------------------------

// Input with duplicate coordinates summed, the tensor a CPD fit is
// defined against. Holds its own squared Frobenius norm.
struct ReferenceTensor {
  amped::CooTensor coalesced;
  double norm_sq = 0.0;
  double duplicate_fraction = 0.0;  // merged-away share of the raw entries
};
ReferenceTensor make_reference(const amped::CooTensor& raw);

// 1 - ||X - X_hat||_F / ||X||_F of the Kruskal model (factors, lambda)
// against `ref`, computed in double from scratch.
double reference_fit(const ReferenceTensor& ref,
                     const amped::FactorSet& factors,
                     const std::vector<double>& lambda);

// Bitwise equality of two factor sets (shapes and every value's bits).
bool same_bits(const amped::FactorSet& a, const amped::FactorSet& b);
bool same_bits(const amped::DenseMatrix& a, const amped::DenseMatrix& b);

// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

// The q-quantile (0 <= q <= 1), interpolated linearly between the two
// nearest order statistics; q = 0.5 is the median.
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
