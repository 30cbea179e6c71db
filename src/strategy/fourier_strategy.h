// Copyright 2026 The dpcube Authors.
//
// Strategy F: measure the Fourier (Hadamard) coefficients the workload
// needs — the approach of Barak et al. (PODS 2007), Section 4 of the
// paper. Each coefficient beta in F = union_i {beta ⪯ alpha_i} is one
// strategy row f^beta with all entries of magnitude 2^{-d/2}; every row is
// its own budget group (the Fourier matrix is dense, so no two rows are
// support-disjoint). The non-uniform F+ variant realises Lemma 4.2's
// asymptotic improvement by giving coefficients used by many / low-order
// marginals more budget.
//
// The default recovery reconstructs each marginal from its coefficients
// (Theorem 4.1(2)); the output is consistent by construction, with the
// witness x_c being the inverse transform of the noisy coefficient vector.

#ifndef DPCUBE_STRATEGY_FOURIER_STRATEGY_H_
#define DPCUBE_STRATEGY_FOURIER_STRATEGY_H_

#include <string>
#include <vector>

#include "marginal/fourier_index.h"
#include "strategy/marginal_strategy.h"

namespace dpcube {
namespace strategy {

/// The exact Fourier coefficients <f^beta, x> of `data` for every beta in
/// `index`, in index order. Each workload marginal is computed once and
/// transformed (Theorem 4.1), and beta takes its value from the first
/// marginal that covers it, so the cost is sum_i (#occupied + k_i 2^{k_i})
/// rather than |F| * #occupied. With integer counts every partial sum is
/// exact, and the result is bit-identical to
/// SparseCounts::FourierCoefficient(beta).
linalg::Vector FourierCoefficientsFromMarginals(
    const data::SparseCounts& data, const marginal::Workload& workload,
    const marginal::FourierIndex& index);

class FourierStrategy : public MarginalStrategy {
 public:
  /// `query_weights`: per-marginal importance a >= 0 in the objective
  /// a^T Var(y) (empty = all ones); shapes the coefficient budgets.
  explicit FourierStrategy(marginal::Workload workload,
                           linalg::Vector query_weights = {});

  const std::string& name() const override { return name_; }
  const marginal::Workload& workload() const override { return workload_; }
  const std::vector<budget::GroupSummary>& groups() const override {
    return groups_;
  }

  Result<Release> Run(const data::SparseCounts& data,
                      const linalg::Vector& group_budgets,
                      const dp::PrivacyParams& params,
                      Rng* rng) const override;

  Result<linalg::Vector> PredictCellVariances(
      const linalg::Vector& group_budgets,
      const dp::PrivacyParams& params) const override;

  Result<linalg::Matrix> DenseStrategyMatrix() const override;
  Result<int> RowGroupOfDenseRow(std::size_t row) const override;

  const marginal::FourierIndex& fourier_index() const { return index_; }

 private:
  std::string name_ = "F";
  marginal::Workload workload_;
  marginal::FourierIndex index_;
  std::vector<budget::GroupSummary> groups_;
};

}  // namespace strategy
}  // namespace dpcube

#endif  // DPCUBE_STRATEGY_FOURIER_STRATEGY_H_
