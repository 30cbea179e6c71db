// Copyright 2026 The dpcube Authors.

#include "strategy/fourier_strategy.h"

#include <chrono>
#include <cmath>

#include "common/thread_pool.h"
#include "dp/mechanisms.h"
#include "transform/walsh_hadamard.h"

namespace dpcube {
namespace strategy {

linalg::Vector FourierCoefficientsFromMarginals(
    const data::SparseCounts& data, const marginal::Workload& workload,
    const marginal::FourierIndex& index) {
  // For beta ⪯ alpha, <beta, cell> = <local(beta), local(cell)>, so the
  // coefficients under alpha are the unnormalised 2^k-point WHT of the
  // alpha marginal (Theorem 4.1) times 2^{-d/2}. Marginals are transformed
  // independently, one work unit each.
  const std::size_t num_marginals = workload.num_marginals();
  std::vector<marginal::MarginalTable> transformed(
      num_marginals, marginal::MarginalTable(0, 0));
  ThreadPool::Shared().ParallelFor(0, num_marginals, 1, [&](std::size_t i) {
    marginal::MarginalTable table =
        marginal::ComputeMarginal(data, workload.mask(i));
    transform::UnnormalisedWalshHadamard(&table.mutable_values());
    transformed[i] = std::move(table);
  });
  linalg::Vector coefficients(index.size(), 0.0);
  std::vector<bool> measured(index.size(), false);
  const double scale = std::pow(2.0, -0.5 * workload.d());
  for (const marginal::MarginalTable& table : transformed) {
    // Local index l holds beta = ExpandIntoMask(l, alpha); the submask walk
    // (beta - alpha) & alpha visits those betas in increasing l.
    const bits::Mask alpha = table.alpha();
    bits::Mask beta = 0;
    for (std::size_t l = 0; l < table.num_cells();
         ++l, beta = (beta - alpha) & alpha) {
      const std::size_t i = index.IndexOf(beta);
      if (measured[i]) continue;
      measured[i] = true;
      coefficients[i] = table.value(l) * scale;
    }
  }
  return coefficients;
}

FourierStrategy::FourierStrategy(marginal::Workload workload,
                                 linalg::Vector query_weights)
    : workload_(std::move(workload)), index_(workload_) {
  const auto start = std::chrono::steady_clock::now();
  const linalg::Vector b =
      marginal::FourierBudgetWeights(workload_, index_, query_weights);
  budget::GroupSummary g;
  g.column_norm = std::pow(2.0, -0.5 * workload_.d());
  g.num_rows = 1;
  groups_.assign(index_.size(), g);
  for (std::size_t i = 0; i < index_.size(); ++i) groups_[i].weight_sum = b[i];
  construction_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

Result<Release> FourierStrategy::Run(const data::SparseCounts& data,
                                     const linalg::Vector& group_budgets,
                                     const dp::PrivacyParams& params,
                                     Rng* rng) const {
  if (group_budgets.size() != groups_.size()) {
    return Status::InvalidArgument("FourierStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());

  for (const double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
  }

  // Measure every needed coefficient once, from the workload marginals;
  // coefficient i samples its noise from child stream i of one master
  // draw (the Rng::Stream seed-derivation rule), which keeps the release
  // bit-identical for every thread count.
  const std::uint64_t noise_base = rng->NextUint64();
  linalg::Vector noisy =
      FourierCoefficientsFromMarginals(data, workload_, index_);
  linalg::Vector coeff_variance(index_.size());
  for (std::size_t i = 0; i < index_.size(); ++i) {
    Rng child = Rng::Stream(noise_base, i);
    noisy[i] += dp::SampleNoise(group_budgets[i], params, &child);
    coeff_variance[i] = dp::MeasurementVariance(group_budgets[i], params);
  }

  Release release;
  release.consistent = true;
  const int d = workload_.d();
  const std::size_t num_marginals = workload_.num_marginals();
  release.cell_variances.assign(num_marginals, 0.0);
  // 1-cell placeholders; every slot is move-assigned by its worker
  // before the join returns.
  release.marginals.assign(num_marginals, marginal::MarginalTable(0, 0));
  ThreadPool::Shared().ParallelFor(0, num_marginals, 1, [&](std::size_t i) {
    const bits::Mask alpha = workload_.mask(i);
    const int k = bits::Popcount(alpha);
    release.marginals[i] = marginal::MarginalFromFourier(
        alpha, d,
        [&](bits::Mask beta) { return noisy[index_.IndexOf(beta)]; });
    // Var(cell) = 2^{d - 2k} * sum_{beta ⪯ alpha} Var(coefficient beta).
    double var_sum = 0.0;
    for (bits::SubmaskIterator it(alpha); !it.done(); it.Next()) {
      var_sum += coeff_variance[index_.IndexOf(it.mask())];
    }
    release.cell_variances[i] = std::pow(2.0, d - 2 * k) * var_sum;
  });
  return release;
}

Result<linalg::Matrix> FourierStrategy::DenseStrategyMatrix() const {
  const int d = workload_.d();
  if (d > 14) {
    return Status::InvalidArgument("domain too large to materialise F");
  }
  const std::uint64_t n = std::uint64_t{1} << d;
  const double scale = std::pow(2.0, -0.5 * d);
  linalg::Matrix s(index_.size(), n);
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const bits::Mask beta = index_.mask(i);
    for (std::uint64_t cell = 0; cell < n; ++cell) {
      s(i, cell) = bits::FourierSign(beta, cell) * scale;
    }
  }
  return s;
}

Result<int> FourierStrategy::RowGroupOfDenseRow(std::size_t row) const {
  if (row >= index_.size()) return Status::OutOfRange("row out of range");
  return static_cast<int>(row);
}


Result<linalg::Vector> FourierStrategy::PredictCellVariances(
    const linalg::Vector& group_budgets,
    const dp::PrivacyParams& params) const {
  if (group_budgets.size() != groups_.size()) {
    return Status::InvalidArgument("FourierStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());
  for (double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
  }
  linalg::Vector out;
  out.reserve(workload_.num_marginals());
  const int d = workload_.d();
  for (std::size_t i = 0; i < workload_.num_marginals(); ++i) {
    const bits::Mask alpha = workload_.mask(i);
    const int k = bits::Popcount(alpha);
    double var_sum = 0.0;
    for (bits::SubmaskIterator it(alpha); !it.done(); it.Next()) {
      var_sum += dp::MeasurementVariance(
          group_budgets[index_.IndexOf(it.mask())], params);
    }
    out.push_back(std::pow(2.0, d - 2 * k) * var_sum);
  }
  return out;
}

}  // namespace strategy
}  // namespace dpcube
