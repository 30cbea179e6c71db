// Copyright 2026 The dpcube Authors.

#include "strategy/fourier_strategy.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "budget/grouped_budget.h"
#include "common/stats.h"
#include "data/synthetic.h"
#include "dp/privacy.h"
#include "marginal/fourier_index.h"
#include "marginal/query_matrix.h"

namespace dpcube {
namespace strategy {
namespace {

dp::PrivacyParams Pure(double eps) {
  dp::PrivacyParams p;
  p.epsilon = eps;
  p.neighbour = dp::NeighbourModel::kAddRemove;
  return p;
}

TEST(FourierStrategyTest, OneGroupPerCoefficient) {
  const data::Schema schema = data::BinarySchema(6);
  FourierStrategy strat(marginal::WorkloadQk(schema, 2));
  EXPECT_EQ(strat.groups().size(), 1u + 6u + 15u);
  for (const auto& g : strat.groups()) {
    EXPECT_NEAR(g.column_norm, std::pow(2.0, -3.0), 1e-12);
    EXPECT_EQ(g.num_rows, 1u);
  }
}

TEST(FourierStrategyTest, SensitivityMatchesTheory) {
  // Delta_1(F) = |F| * 2^{-d/2} (every coefficient row touches every
  // column with that magnitude).
  const data::Schema schema = data::BinarySchema(5);
  FourierStrategy strat(marginal::WorkloadQk(schema, 1));
  auto s = strat.DenseStrategyMatrix();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(dp::L1Sensitivity(s.value(), dp::NeighbourModel::kAddRemove),
              6.0 * std::pow(2.0, -2.5), 1e-9);
}

TEST(FourierStrategyTest, ZeroNoiseBudgetsReproduceExactMarginals) {
  // Enormous budgets make the noise negligible: output == truth, which
  // validates the full coefficient -> marginal reconstruction path.
  Rng rng(1);
  const data::Dataset ds = data::MakeProductBernoulli(7, 0.35, 800, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  const data::Schema schema = data::BinarySchema(7);
  FourierStrategy strat(marginal::WorkloadQkStar(schema, 1));
  const linalg::Vector budgets(strat.groups().size(), 1e9);
  auto release = strat.Run(counts, budgets, Pure(1.0), &rng);
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(release.value().consistent);
  for (std::size_t i = 0; i < strat.workload().num_marginals(); ++i) {
    const marginal::MarginalTable truth =
        marginal::ComputeMarginal(counts, strat.workload().mask(i));
    for (std::size_t g = 0; g < truth.num_cells(); ++g) {
      EXPECT_NEAR(release.value().marginals[i].value(g), truth.value(g),
                  1e-4);
    }
  }
}

TEST(FourierStrategyTest, OutputIsConsistentAcrossOverlappingMarginals) {
  // Two overlapping marginals from the same noisy coefficients must agree
  // on their shared sub-marginal, whatever the noise (Definition 2.3).
  Rng rng(2);
  const data::Dataset ds = data::MakeProductBernoulli(6, 0.5, 200, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  marginal::Workload w(6, {bits::Mask{0b011}, bits::Mask{0b110}});
  FourierStrategy strat(std::move(w));
  auto release =
      strat.Run(counts, linalg::Vector(strat.groups().size(), 0.1),
                Pure(1.0), &rng);
  ASSERT_TRUE(release.ok());
  // Aggregate both released marginals down to the shared attribute (bit 1)
  // and compare.
  const auto& m01 = release.value().marginals[0];  // Bits {0,1}.
  const auto& m12 = release.value().marginals[1];  // Bits {1,2}.
  for (int b = 0; b < 2; ++b) {
    double from_first = 0.0, from_second = 0.0;
    for (std::size_t g = 0; g < 4; ++g) {
      const bits::Mask cell01 = m01.GlobalCell(g);
      if (((cell01 >> 1) & 1) == static_cast<bits::Mask>(b)) {
        from_first += m01.value(g);
      }
      const bits::Mask cell12 = m12.GlobalCell(g);
      if (((cell12 >> 1) & 1) == static_cast<bits::Mask>(b)) {
        from_second += m12.value(g);
      }
    }
    EXPECT_NEAR(from_first, from_second, 1e-8);
  }
}

TEST(FourierStrategyTest, CellVariancePredictionMatchesEmpirical) {
  Rng rng(3);
  const data::Dataset ds = data::MakeProductBernoulli(5, 0.5, 100, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  marginal::Workload w(5, {bits::Mask{0b11}});
  FourierStrategy strat(std::move(w));
  const marginal::MarginalTable truth = marginal::ComputeMarginal(counts,
                                                                  0b11);
  const linalg::Vector budgets(strat.groups().size(), 1.0);
  stats::RunningStats s;
  double predicted = 0.0;
  for (int rep = 0; rep < 4000; ++rep) {
    auto release = strat.Run(counts, budgets, Pure(1.0), &rng);
    ASSERT_TRUE(release.ok());
    s.Add(release.value().marginals[0].value(2) - truth.value(2));
    predicted = release.value().cell_variances[0];
  }
  EXPECT_NEAR(s.variance(), predicted, 0.12 * predicted);
}

TEST(FourierStrategyTest, OptimalBudgetsBeatUniformOnMixedOrders) {
  // Mixed 1-way + 2-way workload: non-uniform budgets strictly help.
  const data::Schema schema = data::BinarySchema(8);
  FourierStrategy strat(marginal::WorkloadQkStar(schema, 1));
  auto opt = budget::OptimalGroupBudgets(strat.groups(), Pure(1.0));
  auto uni = budget::UniformGroupBudgets(strat.groups(), Pure(1.0));
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(uni.ok());
  EXPECT_LT(opt.value().variance_objective,
            0.95 * uni.value().variance_objective);
}

// Random workload over d bits: masks of weight 0..max_k, with the empty
// mask, duplicates and nested masks mixed in.
marginal::Workload RandomWorkload(int d, int max_k, std::size_t n, Rng* rng) {
  std::vector<bits::Mask> masks = {0};
  while (masks.size() < n) {
    const std::uint64_t kind = rng->NextBounded(4);
    if (kind == 0) {
      masks.push_back(masks[rng->NextBounded(masks.size())]);
    } else if (kind == 1) {
      masks.push_back(masks[rng->NextBounded(masks.size())] &
                      rng->NextUint64());
    } else {
      bits::Mask alpha = 0;
      const int k = static_cast<int>(rng->NextBounded(max_k + 1));
      while (bits::Popcount(alpha) < k) {
        alpha |= bits::Mask{1} << rng->NextBounded(d);
      }
      masks.push_back(alpha);
    }
  }
  return marginal::Workload(d, std::move(masks));
}

void ExpectCoefficientsMatchScan(const data::SparseCounts& counts,
                                 const marginal::Workload& w,
                                 const std::string& what) {
  const marginal::FourierIndex index(w);
  const linalg::Vector got = FourierCoefficientsFromMarginals(counts, w, index);
  ASSERT_EQ(got.size(), index.size()) << what;
  for (std::size_t i = 0; i < index.size(); ++i) {
    const double want = counts.FourierCoefficient(index.mask(i));
    ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
        << what << " beta=" << index.mask(i) << " got " << got[i]
        << " want " << want;
  }
}

TEST(FourierStrategyTest, MarginalFirstCoefficientsEqualTheScanBitForBit) {
  Rng rng(11);
  for (const int d : {5, 8, 11, 12}) {
    const data::Dataset ds =
        data::MakeUniform(data::BinarySchema(d), 3000, &rng);
    const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
    for (int trial = 0; trial < 4; ++trial) {
      ExpectCoefficientsMatchScan(
          counts, RandomWorkload(d, std::min(d, 7), 12, &rng),
          "d=" + std::to_string(d) + " trial " + std::to_string(trial));
    }
  }
  // Adult-like attributes, d = 23.
  const data::Dataset adult = data::MakeAdultLike(2000, &rng);
  const data::SparseCounts adult_counts =
      data::SparseCounts::FromDataset(adult);
  ExpectCoefficientsMatchScan(
      adult_counts, marginal::WorkloadQkStar(adult.schema(), 2), "adult Q2*");
  // More than 2^14 occupied cells, odd d.
  const data::Dataset wide =
      data::MakeUniform(data::BinarySchema(17), 60000, &rng);
  const data::SparseCounts wide_counts = data::SparseCounts::FromDataset(wide);
  ASSERT_GT(wide_counts.num_occupied(), std::size_t{1} << 14);
  ExpectCoefficientsMatchScan(wide_counts, RandomWorkload(17, 6, 10, &rng),
                              "d=17, 2^14+ cells");
}

TEST(FourierStrategyTest, RunRejectsBadBudgets) {
  Rng rng(4);
  const data::Dataset ds = data::MakeProductBernoulli(4, 0.5, 10, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  const data::Schema schema = data::BinarySchema(4);
  FourierStrategy strat(marginal::WorkloadQk(schema, 1));
  EXPECT_FALSE(strat.Run(counts, {1.0}, Pure(1.0), &rng).ok());
}

}  // namespace
}  // namespace strategy
}  // namespace dpcube
