// Copyright 2026 The dpcube Authors.
//
// Strategy C: the greedy marginal-clustering baseline of Ding et al.
// (SIGMOD 2011, "Differentially private data cubes: optimizing noise
// sources and consistency"), reproduced per DESIGN.md's substitution note
// (the original implementation is closed source).
//
// The idea: instead of measuring every requested marginal, materialise a
// smaller set M of "centroid" marginals such that every query marginal is
// dominated by (computable from) some member of M. Fewer measured
// marginals means more budget per measurement; coarser centroids mean more
// cells aggregated per query cell and hence more accumulated noise. The
// clustering searches this trade-off bottom-up: starting from M = the
// distinct query masks, it repeatedly applies the pair-merge
// (beta_1, beta_2) -> beta_1 OR beta_2 that most reduces the predicted
// total variance under uniform budgets,
//     cost(M) ∝ |M|^2 * sum_q 2^{||cover(q)||}          (epsilon-DP)
// and stops at a local optimum. Queries are always assigned to their
// lowest-dimensional cover in M. This matches the published algorithm's
// bottom-up greedy structure and cost profile (accurate on low-order
// workloads, cost growing quickly with dimensionality).
//
// Budget groups: one per materialised marginal (C_r = 1). Default
// recovery aggregates each query's cells from its cover, so
// b_cell = 2 * (#queries assigned to the cover) uniformly within a group
// — consistent with Definition 3.2, making the grouped optimum exact.

#ifndef DPCUBE_STRATEGY_CLUSTER_STRATEGY_H_
#define DPCUBE_STRATEGY_CLUSTER_STRATEGY_H_

#include <string>
#include <vector>

#include "strategy/marginal_strategy.h"

namespace dpcube {
namespace strategy {

class ClusterStrategy : public MarginalStrategy {
 public:
  /// Runs the greedy clustering over the workload's marginals.
  /// `query_weights`: per-marginal importance a >= 0 (empty = all ones);
  /// weights shape the budget allocation across the materialised
  /// centroids. The clustering cost model itself stays unweighted, as in
  /// Ding et al.
  explicit ClusterStrategy(marginal::Workload workload,
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

  /// The materialised ("centroid") marginal masks chosen by clustering.
  const std::vector<bits::Mask>& materialized() const { return materialized_; }

  /// cover_of(i) = index into materialized() that answers query marginal i.
  const std::vector<std::size_t>& cover_of() const { return cover_of_; }

 private:
  void AssignCovers(const std::vector<bits::Mask>& centroids,
                    std::vector<std::size_t>* cover_of) const;
  double PredictedCost(const std::vector<bits::Mask>& centroids,
                       const std::vector<std::size_t>& cover_of) const;
  /// Cost of merging centroids i and j (pruning stranded centroids). When
  /// non-null, `candidate_out`/`cover_out` receive the pruned centroid set
  /// and its cover assignment (used to apply the winning merge).
  double EvaluateMerge(const std::vector<bits::Mask>& centroids,
                       std::size_t i, std::size_t j,
                       std::vector<bits::Mask>* candidate_out,
                       std::vector<std::size_t>* cover_out) const;
  void RunClustering();

  std::string name_ = "C";
  marginal::Workload workload_;
  std::vector<bits::Mask> materialized_;
  std::vector<std::size_t> cover_of_;
  std::vector<budget::GroupSummary> groups_;
};

}  // namespace strategy
}  // namespace dpcube

#endif  // DPCUBE_STRATEGY_CLUSTER_STRATEGY_H_
