#include "core/cpd.hpp"

#include <cassert>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace amped {

double tensor_norm_sq(const CooTensor& t) {
  const auto vals = t.values();
  auto same_coords = [&](nnz_t a, nnz_t b) {
    for (std::size_t m = 0; m < t.num_modes(); ++m) {
      if (t.indices(m)[a] != t.indices(m)[b]) return false;
    }
    return true;
  };
  double acc = 0.0;
  double run = 0.0;  // sum of the current run of equal coordinates
  for (nnz_t i = 0; i < t.nnz(); ++i) {
    run += vals[i];
    if (i + 1 == t.nnz() || !same_coords(i, i + 1)) {
      acc += run * run;
      run = 0.0;
    }
  }
  return acc;
}

namespace {

// lambda^T (hadamard of all grams) lambda.
double model_norm_sq(const std::vector<DenseMatrix>& grams,
                     const std::vector<double>& lambda) {
  const std::size_t r = lambda.size();
  DenseMatrix h(r, r, value_t{1});
  for (const auto& g : grams) {
    for (std::size_t i = 0; i < r * r; ++i) h.data()[i] *= g.data()[i];
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      acc += lambda[i] * lambda[j] * static_cast<double>(h(i, j));
    }
  }
  return acc;
}

// <X, X_hat> given the last mode's MTTKRP output G and the updated,
// normalised factor A of that mode: sum_r lambda_r <G(:,r), A(:,r)>.
double inner_product(const DenseMatrix& mttkrp_out, const DenseMatrix& factor,
                     const std::vector<double>& lambda) {
  assert(mttkrp_out.rows() == factor.rows() &&
         mttkrp_out.cols() == factor.cols());
  const std::size_t r = factor.cols();
  std::vector<double> per_col(r, 0.0);
  for (std::size_t i = 0; i < factor.rows(); ++i) {
    const auto g = mttkrp_out.row(i);
    const auto a = factor.row(i);
    for (std::size_t c = 0; c < r; ++c) {
      per_col[c] += static_cast<double>(g[c]) * a[c];
    }
  }
  double acc = 0.0;
  for (std::size_t c = 0; c < r; ++c) acc += lambda[c] * per_col[c];
  return acc;
}

}  // namespace

namespace detail {

AlsState::AlsState(const AmpedTensor& tensor, const CpdOptions& options)
    : tensor_(&tensor), options_(&options) {
  const std::size_t modes = tensor.num_modes();
  const std::size_t rank = options.rank;
  Rng rng(options.seed);
  result_.factors = FactorSet(tensor.dims(), rank, rng);
  result_.lambda.assign(rank, 1.0);
  grams_.resize(modes);
  for (std::size_t d = 0; d < modes; ++d) {
    grams_[d] = linalg::gram(result_.factors.factor(d));
  }
  done_ = options.max_iterations == 0;
}

DenseMatrix& AlsState::prepare_mode(std::size_t d) {
  if (mttkrp_outs_.size() != tensor_->num_modes()) {
    mttkrp_outs_.resize(tensor_->num_modes());
  }
  mttkrp_outs_[d] = DenseMatrix(tensor_->dims()[d], options_->rank);
  return mttkrp_outs_[d];
}

void AlsState::charge_mttkrp(double sim_seconds) {
  result_.mttkrp_sim_seconds += sim_seconds;
}

void AlsState::update_mode(std::size_t d, double sim_seconds) {
  const std::size_t modes = tensor_->num_modes();
  const std::size_t rank = options_->rank;
  result_.mttkrp_sim_seconds += sim_seconds;

  // V = hadamard of the other modes' grams.
  DenseMatrix v(rank, rank, value_t{1});
  for (std::size_t w = 0; w < modes; ++w) {
    if (w == d) continue;
    for (std::size_t i = 0; i < rank * rank; ++i) {
      v.data()[i] *= grams_[w].data()[i];
    }
  }
  DenseMatrix updated = mttkrp_outs_[d];  // keep raw G for the fit
  linalg::solve_normal_equations(v, updated);

  // Column-normalise; weights move into lambda.
  for (std::size_t c = 0; c < rank; ++c) {
    double norm = linalg::column_norm(updated, c);
    if (norm < 1e-30) norm = 1.0;  // dead component; leave as-is
    result_.lambda[c] = norm;
    linalg::scale_column(updated, c, static_cast<value_t>(1.0 / norm));
  }
  // Numeric guard: a NaN/Inf here (degenerate input data, catastrophic
  // gram conditioning) would otherwise propagate silently through every
  // later mode and iteration. Fail at the first poisoned update, naming
  // where the run went bad. The scans are O(I_d * R), the same order as
  // the normalisation pass above.
  for (std::size_t c = 0; c < rank; ++c) {
    if (!std::isfinite(result_.lambda[c])) {
      throw std::runtime_error(
          "cp_als: non-finite lambda[" + std::to_string(c) +
          "] after the mode-" + std::to_string(d) + " update at iteration " +
          std::to_string(result_.iterations) +
          " (input data or gram conditioning produced NaN/Inf)");
    }
  }
  for (value_t entry : updated.data()) {
    if (!std::isfinite(entry)) {
      throw std::runtime_error(
          "cp_als: non-finite factor entry in mode " + std::to_string(d) +
          " at iteration " + std::to_string(result_.iterations) +
          " (input data or gram conditioning produced NaN/Inf)");
    }
  }
  result_.factors.factor(d) = std::move(updated);
  grams_[d] = linalg::gram(result_.factors.factor(d));

  if (d + 1 == modes) {
    iprod_ = inner_product(mttkrp_outs_[d], result_.factors.factor(d),
                           result_.lambda);
  }
}

void AlsState::finish_iteration() {
  // tensor_norm_sq over the mode-0 copy, accumulated at build time so it
  // is available when the copies are spilled to disk.
  const double norm_x_sq = tensor_->values_norm_sq();
  const double model_sq = model_norm_sq(grams_, result_.lambda);
  const double residual_sq =
      std::max(0.0, norm_x_sq + model_sq - 2.0 * iprod_);
  const double fit =
      norm_x_sq > 0.0 ? 1.0 - std::sqrt(residual_sq / norm_x_sq) : 1.0;
  if (!std::isfinite(fit)) {
    throw std::runtime_error(
        "cp_als: non-finite fit at iteration " +
        std::to_string(result_.iterations) + " (|X|^2=" +
        std::to_string(norm_x_sq) + ", |model|^2=" +
        std::to_string(model_sq) + ")");
  }
  result_.fit = fit;
  result_.fit_history.push_back(fit);
  result_.iterations += 1;

  // Per-iteration heartbeat: one info line a human (or a log scraper)
  // can watch to see the run converge and how fast it is processing
  // nonzeros — num_modes MTTKRPs of nnz() nonzeros each per iteration.
  {
    const double iter_wall = iter_timer_.seconds();
    const double mttkrp_delta =
        result_.mttkrp_sim_seconds - last_mttkrp_total_;
    const double nnz_per_s =
        iter_wall > 0.0
            ? static_cast<double>(tensor_->nnz()) *
                  static_cast<double>(tensor_->num_modes()) / iter_wall
            : 0.0;
    AMPED_LOG_INFO << "als iter " << (result_.iterations - 1) << " fit "
                   << fit << " dfit " << (fit - prev_fit_) << " mttkrp "
                   << mttkrp_delta << "s wall " << iter_wall << "s "
                   << nnz_per_s << " nnz/s";
    static metrics::Histogram& iter_hist =
        metrics::histogram("als.iteration_seconds");
    iter_hist.record_seconds(iter_wall);
    metrics::counter("als.iterations").inc();
    last_mttkrp_total_ = result_.mttkrp_sim_seconds;
    iter_timer_.reset();
  }

  if (result_.iterations > 1 &&
      std::abs(fit - prev_fit_) < options_->tolerance) {
    result_.converged = true;
    done_ = true;
  }
  prev_fit_ = fit;
  if (result_.iterations >= options_->max_iterations) done_ = true;
  // Deterministic mid-ALS abort for recovery drills: fires after the
  // iteration's state is complete but (in checkpointed runs) before the
  // driver persists it, like a crash between iterations.
  AMPED_FAULT_POINT("cpd.iteration");
}

void AlsState::save_checkpoint(const std::string& path) const {
  AlsCheckpoint ckpt;
  ckpt.iterations = result_.iterations;
  ckpt.fit = result_.fit;
  ckpt.prev_fit = prev_fit_;
  ckpt.mttkrp_seconds = result_.mttkrp_sim_seconds;
  ckpt.converged = result_.converged;
  ckpt.done = done_;
  ckpt.lambda = result_.lambda;
  ckpt.fit_history = result_.fit_history;
  ckpt.factors.reserve(tensor_->num_modes());
  for (std::size_t d = 0; d < tensor_->num_modes(); ++d) {
    ckpt.factors.push_back(result_.factors.factor(d));
  }
  write_als_checkpoint(ckpt, path);
  metrics::counter("als.checkpoints_written").inc();
  AMPED_LOG_DEBUG << "cp_als: checkpoint written to " << path
                  << " at iteration " << result_.iterations;
}

bool AlsState::load_checkpoint(const std::string& path) {
  if (!std::filesystem::exists(path)) return false;
  AlsCheckpoint ckpt = read_als_checkpoint(path);
  if (ckpt.factors.size() != tensor_->num_modes()) {
    throw std::runtime_error(
        "checkpoint: " + path + " has " +
        std::to_string(ckpt.factors.size()) + " modes, this tensor has " +
        std::to_string(tensor_->num_modes()));
  }
  if (ckpt.lambda.size() != options_->rank) {
    throw std::runtime_error(
        "checkpoint: " + path + " is a rank-" +
        std::to_string(ckpt.lambda.size()) + " run, this run is rank-" +
        std::to_string(options_->rank));
  }
  for (std::size_t d = 0; d < ckpt.factors.size(); ++d) {
    if (ckpt.factors[d].rows() != tensor_->dims()[d]) {
      throw std::runtime_error(
          "checkpoint: " + path + " factor " + std::to_string(d) + " has " +
          std::to_string(ckpt.factors[d].rows()) + " rows, mode " +
          std::to_string(d) + " of this tensor has " +
          std::to_string(tensor_->dims()[d]));
    }
  }
  for (std::size_t d = 0; d < ckpt.factors.size(); ++d) {
    result_.factors.factor(d) = std::move(ckpt.factors[d]);
    grams_[d] = linalg::gram(result_.factors.factor(d));
  }
  result_.lambda = std::move(ckpt.lambda);
  result_.fit = ckpt.fit;
  result_.fit_history = std::move(ckpt.fit_history);
  result_.iterations = static_cast<std::size_t>(ckpt.iterations);
  result_.converged = ckpt.converged;
  result_.mttkrp_sim_seconds = ckpt.mttkrp_seconds;
  prev_fit_ = ckpt.prev_fit;
  // Recompute the stopping decision under *this* run's options rather
  // than trusting the stored flag, so resuming with a larger iteration
  // budget continues the run.
  done_ = result_.converged ||
          result_.iterations >= options_->max_iterations;
  // iprod_ is intentionally not restored: every iteration writes it
  // (last-mode update) before finish_iteration reads it.
  return true;
}

}  // namespace detail

CpdResult cp_als(sim::Platform& platform, const AmpedTensor& tensor,
                 const CpdOptions& options) {
  options.mttkrp.validate();
  detail::AlsState state(tensor, options);
  const bool checkpointing = !options.checkpoint_path.empty();
  bool resumed = false;
  std::size_t resume_iteration = 0;
  std::size_t checkpoints_written = 0;
  if (checkpointing && options.resume) {
    if (state.load_checkpoint(options.checkpoint_path)) {
      resumed = true;
      resume_iteration = state.iterations();
      metrics::counter("als.resumes").inc();
      AMPED_LOG_INFO << "cp_als: resumed from " << options.checkpoint_path
                     << " at iteration " << state.iterations();
    } else {
      AMPED_LOG_INFO << "cp_als: no checkpoint at "
                     << options.checkpoint_path << "; starting fresh";
    }
  }
  // Phase totals accumulate outside AlsState (update_mode's seconds-only
  // signature is shared with the batched driver) and are patched into
  // the result below.
  double h2d = 0.0, compute = 0.0, p2p = 0.0, sync = 0.0;
  double predicted_compute = 0.0, predicted_h2d = 0.0;
  std::uint64_t gather_bytes = 0;
  while (!state.done()) {
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      DenseMatrix& out = state.prepare_mode(d);
      auto bd = mttkrp_one_mode(platform, tensor, state.factors(), d, out,
                                options.mttkrp);
      h2d += bd.h2d;
      compute += bd.compute;
      p2p += bd.p2p;
      sync += bd.sync;
      predicted_compute += bd.predicted_compute;
      predicted_h2d += bd.predicted_h2d;
      gather_bytes += bd.gather_bytes;
      state.update_mode(d, bd.seconds);
    }
    state.finish_iteration();
    if (checkpointing && options.checkpoint_every != 0 &&
        state.iterations() % options.checkpoint_every == 0) {
      state.save_checkpoint(options.checkpoint_path);
      ++checkpoints_written;
    }
  }
  CpdResult result = state.take_result();
  result.h2d_seconds = h2d;
  result.compute_seconds = compute;
  result.p2p_seconds = p2p;
  result.gather_bytes = gather_bytes;
  result.sync_seconds = sync;
  result.predicted_compute_seconds = predicted_compute;
  result.predicted_h2d_seconds = predicted_h2d;
  result.resumed = resumed;
  result.resume_iteration = resume_iteration;
  result.checkpoints_written = checkpoints_written;
  return result;
}

}  // namespace amped
