// Copyright 2026 The dpcube Authors.

#include "strategy/cluster_strategy.h"

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "dp/privacy.h"

namespace dpcube {
namespace strategy {
namespace {

dp::PrivacyParams Pure(double eps) {
  dp::PrivacyParams p;
  p.epsilon = eps;
  p.neighbour = dp::NeighbourModel::kAddRemove;
  return p;
}

TEST(ClusterStrategyTest, EveryQueryIsCovered) {
  const data::Schema schema = data::BinarySchema(8);
  ClusterStrategy strat(marginal::WorkloadQk(schema, 1));
  ASSERT_EQ(strat.cover_of().size(), 8u);
  for (std::size_t q = 0; q < 8; ++q) {
    const bits::Mask alpha = strat.workload().mask(q);
    const bits::Mask cover = strat.materialized()[strat.cover_of()[q]];
    EXPECT_TRUE(bits::IsSubset(alpha, cover));
  }
}

TEST(ClusterStrategyTest, MergesOneWayMarginals) {
  // For all 1-way marginals the cost model favours merging: measuring d
  // singleton marginals (cost d^2 * 2d) loses to coarser centroids.
  const data::Schema schema = data::BinarySchema(8);
  ClusterStrategy strat(marginal::WorkloadQk(schema, 1));
  EXPECT_LT(strat.materialized().size(), 8u);
}

TEST(ClusterStrategyTest, DisjointHighOrderMarginalsStaySeparate) {
  // Two disjoint 3-way marginals: merging to a 6-way marginal costs
  // 1 * 2 * 2^6 = 128 vs separate 4 * 2 * 2^3 = 64: no merge.
  marginal::Workload w(6, {bits::Mask{0b000111}, bits::Mask{0b111000}});
  ClusterStrategy strat(std::move(w));
  EXPECT_EQ(strat.materialized().size(), 2u);
}

TEST(ClusterStrategyTest, NestedMarginalsCollapse) {
  // A marginal dominated by another should never be materialised twice.
  marginal::Workload w(5, {bits::Mask{0b00011}, bits::Mask{0b11011},
                           bits::Mask{0b00001}});
  ClusterStrategy strat(std::move(w));
  EXPECT_EQ(strat.materialized().size(), 1u);
  EXPECT_EQ(strat.materialized()[0], bits::Mask{0b11011});
}

TEST(ClusterStrategyTest, GroupWeightsReflectAssignments) {
  marginal::Workload w(5, {bits::Mask{0b00011}, bits::Mask{0b00001},
                           bits::Mask{0b11000}});
  ClusterStrategy strat(std::move(w));
  const auto& groups = strat.groups();
  ASSERT_EQ(groups.size(), strat.materialized().size());
  for (std::size_t m = 0; m < groups.size(); ++m) {
    std::size_t assigned = 0;
    for (std::size_t cover : strat.cover_of()) {
      if (cover == m) ++assigned;
    }
    const double cells = static_cast<double>(groups[m].num_rows);
    EXPECT_DOUBLE_EQ(groups[m].weight_sum, 2.0 * assigned * cells);
  }
}

TEST(ClusterStrategyTest, HugeBudgetsReproduceTruth) {
  Rng rng(1);
  const data::Dataset ds = data::MakeProductBernoulli(7, 0.4, 500, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  const data::Schema schema = data::BinarySchema(7);
  ClusterStrategy strat(marginal::WorkloadQk(schema, 2));
  const linalg::Vector budgets(strat.groups().size(), 1e9);
  auto release = strat.Run(counts, budgets, Pure(1.0), &rng);
  ASSERT_TRUE(release.ok());
  for (std::size_t i = 0; i < strat.workload().num_marginals(); ++i) {
    const marginal::MarginalTable truth =
        marginal::ComputeMarginal(counts, strat.workload().mask(i));
    for (std::size_t g = 0; g < truth.num_cells(); ++g) {
      EXPECT_NEAR(release.value().marginals[i].value(g), truth.value(g),
                  1e-4);
    }
  }
}

TEST(ClusterStrategyTest, CellVarianceGrowsWithCoverSpread) {
  // A 1-way query recovered from a wider centroid accumulates
  // 2^{||cover|| - 1} noisy cells.
  const data::Schema schema = data::BinarySchema(6);
  ClusterStrategy strat(marginal::WorkloadQk(schema, 1));
  Rng rng(2);
  const data::Dataset ds = data::MakeProductBernoulli(6, 0.5, 100, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  const linalg::Vector budgets(strat.groups().size(), 1.0);
  auto release = strat.Run(counts, budgets, Pure(1.0), &rng);
  ASSERT_TRUE(release.ok());
  for (std::size_t q = 0; q < strat.workload().num_marginals(); ++q) {
    const int spread =
        bits::Popcount(strat.materialized()[strat.cover_of()[q]]) - 1;
    EXPECT_DOUBLE_EQ(release.value().cell_variances[q],
                     std::pow(2.0, spread) * dp::LaplaceVariance(1.0));
  }
}

TEST(ClusterStrategyTest, PredictedCostNeverIncreasedByClustering) {
  // The greedy result must be at least as good under its own cost model
  // as the no-merge starting point.
  const data::Schema schema = data::BinarySchema(7);
  const marginal::Workload w = marginal::WorkloadQkStar(schema, 1);
  ClusterStrategy strat(w);
  double start_spread = 0.0;
  for (bits::Mask alpha : w.masks()) {
    start_spread += std::pow(2.0, bits::Popcount(alpha));
  }
  // Start cost with |M| = number of distinct masks.
  std::set<bits::Mask> unique(w.masks().begin(), w.masks().end());
  const double start_cost =
      static_cast<double>(unique.size() * unique.size()) * start_spread;
  double end_spread = 0.0;
  for (std::size_t q = 0; q < w.num_marginals(); ++q) {
    end_spread += std::pow(
        2.0, bits::Popcount(strat.materialized()[strat.cover_of()[q]]));
  }
  const double end_cost =
      static_cast<double>(strat.materialized().size() *
                          strat.materialized().size()) *
      end_spread;
  EXPECT_LE(end_cost, start_cost + 1e-9);
}

// The exhaustive merge search the clustering used before scoring merges
// incrementally: every round rebuilds the centroid set of every pair merge,
// re-covers every query, prunes stranded centroids and keeps the cheapest
// merge, ties to the first pair in (i outer, j inner) order.
struct ReferenceClustering {
  explicit ReferenceClustering(const marginal::Workload& workload)
      : w(workload) {
    std::set<bits::Mask> unique(w.masks().begin(), w.masks().end());
    materialized.assign(unique.begin(), unique.end());
    AssignCovers(materialized, &cover_of);
    double cost = Cost(materialized, cover_of);
    bool improved = true;
    while (improved && materialized.size() > 1) {
      improved = false;
      double best_cost = cost;
      std::vector<bits::Mask> best_centroids;
      std::vector<std::size_t> best_cover;
      for (std::size_t i = 0; i < materialized.size(); ++i) {
        for (std::size_t j = i + 1; j < materialized.size(); ++j) {
          std::set<bits::Mask> merged(materialized.begin(),
                                      materialized.end());
          merged.erase(materialized[i]);
          merged.erase(materialized[j]);
          merged.insert(materialized[i] | materialized[j]);
          std::vector<bits::Mask> candidate(merged.begin(), merged.end());
          std::vector<std::size_t> cover;
          AssignCovers(candidate, &cover);
          std::vector<bool> used(candidate.size(), false);
          for (std::size_t c : cover) used[c] = true;
          std::vector<bits::Mask> pruned;
          for (std::size_t m = 0; m < candidate.size(); ++m) {
            if (used[m]) pruned.push_back(candidate[m]);
          }
          AssignCovers(pruned, &cover);
          const double c = Cost(pruned, cover);
          if (c < best_cost) {
            best_cost = c;
            best_centroids = std::move(pruned);
            best_cover = std::move(cover);
          }
        }
      }
      if (!best_centroids.empty()) {
        materialized = std::move(best_centroids);
        cover_of = std::move(best_cover);
        cost = best_cost;
        improved = true;
      }
    }
  }

  void AssignCovers(const std::vector<bits::Mask>& centroids,
                    std::vector<std::size_t>* cover) const {
    cover->assign(w.num_marginals(), 0);
    for (std::size_t q = 0; q < w.num_marginals(); ++q) {
      int best_width = 65;
      for (std::size_t m = 0; m < centroids.size(); ++m) {
        if (!bits::IsSubset(w.mask(q), centroids[m])) continue;
        if (bits::Popcount(centroids[m]) < best_width) {
          best_width = bits::Popcount(centroids[m]);
          (*cover)[q] = m;
        }
      }
    }
  }

  static double Cost(const std::vector<bits::Mask>& centroids,
                     const std::vector<std::size_t>& cover) {
    double spread = 0.0;
    for (std::size_t c : cover) {
      spread += std::pow(2.0, bits::Popcount(centroids[c]));
    }
    const double m = static_cast<double>(centroids.size());
    return m * m * spread;
  }

  const marginal::Workload& w;
  std::vector<bits::Mask> materialized;
  std::vector<std::size_t> cover_of;
};

void ExpectSameClustering(const marginal::Workload& w,
                          const std::string& what) {
  const ReferenceClustering reference(w);
  const ClusterStrategy strat(w);
  EXPECT_EQ(strat.materialized(), reference.materialized) << what;
  EXPECT_EQ(strat.cover_of(), reference.cover_of) << what;
}

TEST(ClusterStrategyTest, IncrementalSearchMatchesExhaustiveSearch) {
  const data::Schema adult = data::AdultSchema();
  for (const char* name : {"Q1", "Q2", "Q3", "Q4", "Q2*", "Q3*"}) {
    ExpectSameClustering(marginal::WorkloadByName(adult, name).value(),
                         std::string("adult ") + name);
  }
  for (const auto& [d, k] : std::vector<std::pair<int, int>>{
           {12, 1}, {12, 2}, {12, 10}, {12, 11}, {16, 1}, {16, 15}}) {
    ExpectSameClustering(
        marginal::AllKWayBits(d, k),
        std::to_string(d) + "-bit " + std::to_string(k) + "-way");
  }
  // Random workloads with duplicate and nested masks.
  Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    const int d = 4 + static_cast<int>(rng.NextBounded(13));
    std::vector<bits::Mask> masks;
    const std::size_t n = 2 + rng.NextBounded(24);
    while (masks.size() < n) {
      const std::uint64_t kind = rng.NextBounded(4);
      if (kind == 0 && !masks.empty()) {  // Duplicate.
        masks.push_back(masks[rng.NextBounded(masks.size())]);
      } else if (kind == 1 && !masks.empty()) {  // Nested.
        masks.push_back(masks[rng.NextBounded(masks.size())] &
                        rng.NextUint64());
      } else {  // Sparse random mask.
        masks.push_back(rng.NextUint64() & rng.NextUint64() &
                        bits::FullMask(d));
      }
    }
    ExpectSameClustering(marginal::Workload(d, std::move(masks)),
                         "random trial " + std::to_string(trial));
  }
}

TEST(ClusterStrategyTest, RejectsBudgetMismatch) {
  Rng rng(3);
  const data::Dataset ds = data::MakeProductBernoulli(4, 0.5, 10, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  const data::Schema schema = data::BinarySchema(4);
  ClusterStrategy strat(marginal::WorkloadQk(schema, 1));
  EXPECT_FALSE(strat.Run(counts, {}, Pure(1.0), &rng).ok());
}

}  // namespace
}  // namespace strategy
}  // namespace dpcube
