#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "perfbench.hpp"

namespace perfbench {

ReferenceTensor make_reference(const amped::CooTensor& raw) {
  ReferenceTensor ref;
  ref.coalesced = raw;
  ref.coalesced.sort_by_mode(0);
  const auto merged = ref.coalesced.coalesce();
  ref.duplicate_fraction =
      raw.nnz() ? static_cast<double>(merged) / static_cast<double>(raw.nnz())
                : 0.0;
  for (amped::value_t v : ref.coalesced.values()) {
    ref.norm_sq += static_cast<double>(v) * v;
  }
  return ref;
}

double reference_fit(const ReferenceTensor& ref,
                     const amped::FactorSet& factors,
                     const std::vector<double>& lambda) {
  const amped::CooTensor& x = ref.coalesced;
  const std::size_t modes = x.num_modes();
  const std::size_t rank = lambda.size();

  // <X, X_hat> = sum_n x_n sum_r lambda_r prod_m A_m(i_m, r).
  double inner = 0.0;
  std::vector<double> row(rank);
  for (amped::nnz_t n = 0; n < x.nnz(); ++n) {
    std::fill(row.begin(), row.end(), 1.0);
    for (std::size_t m = 0; m < modes; ++m) {
      const auto a = factors.factor(m).row(x.indices(m)[n]);
      for (std::size_t r = 0; r < rank; ++r) row[r] *= a[r];
    }
    double model = 0.0;
    for (std::size_t r = 0; r < rank; ++r) model += lambda[r] * row[r];
    inner += static_cast<double>(x.values()[n]) * model;
  }

  // ||X_hat||^2 = lambda^T (hadamard_m A_m^T A_m) lambda.
  std::vector<double> h(rank * rank, 1.0);
  std::vector<double> gram(rank * rank);
  for (std::size_t m = 0; m < modes; ++m) {
    const amped::DenseMatrix& a = factors.factor(m);
    std::fill(gram.begin(), gram.end(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const auto ai = a.row(i);
      for (std::size_t r = 0; r < rank; ++r) {
        for (std::size_t s = 0; s < rank; ++s) {
          gram[r * rank + s] += static_cast<double>(ai[r]) * ai[s];
        }
      }
    }
    for (std::size_t k = 0; k < rank * rank; ++k) h[k] *= gram[k];
  }
  double model_sq = 0.0;
  for (std::size_t r = 0; r < rank; ++r) {
    for (std::size_t s = 0; s < rank; ++s) {
      model_sq += lambda[r] * lambda[s] * h[r * rank + s];
    }
  }

  const double residual_sq = std::max(0.0, ref.norm_sq + model_sq - 2 * inner);
  return 1.0 - std::sqrt(residual_sq / ref.norm_sq);
}

bool same_bits(const amped::DenseMatrix& a, const amped::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.bytes()) == 0;
}

bool same_bits(const amped::FactorSet& a, const amped::FactorSet& b) {
  if (a.num_modes() != b.num_modes()) return false;
  for (std::size_t m = 0; m < a.num_modes(); ++m) {
    if (!same_bits(a.factor(m), b.factor(m))) return false;
  }
  return true;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
