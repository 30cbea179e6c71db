// Copyright 2026 The dpcube Authors.

#include "strategy/cluster_strategy.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "dp/mechanisms.h"
#include "marginal/query_matrix.h"

namespace dpcube {
namespace strategy {

ClusterStrategy::ClusterStrategy(marginal::Workload workload,
                                 linalg::Vector query_weights)
    : workload_(std::move(workload)) {
  assert(query_weights.empty() ||
         query_weights.size() == workload_.num_marginals());
  const auto start = std::chrono::steady_clock::now();
  RunClustering();
  // Group summaries: one group per materialised marginal.
  std::vector<double> assigned_weight(materialized_.size(), 0.0);
  for (std::size_t q = 0; q < cover_of_.size(); ++q) {
    assigned_weight[cover_of_[q]] +=
        query_weights.empty() ? 1.0 : query_weights[q];
  }
  groups_.reserve(materialized_.size());
  for (std::size_t m = 0; m < materialized_.size(); ++m) {
    budget::GroupSummary g;
    g.column_norm = 1.0;
    g.num_rows = std::uint64_t{1} << bits::Popcount(materialized_[m]);
    // Each cell of the centroid feeds exactly one cell of every assigned
    // query: b_cell = 2 * sum of assigned query weights.
    g.weight_sum = 2.0 * assigned_weight[m] *
                   static_cast<double>(g.num_rows);
    groups_.push_back(g);
  }
  construction_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void ClusterStrategy::AssignCovers(const std::vector<bits::Mask>& centroids,
                                   std::vector<std::size_t>* cover_of) const {
  cover_of->assign(workload_.num_marginals(), 0);
  for (std::size_t q = 0; q < workload_.num_marginals(); ++q) {
    const bits::Mask alpha = workload_.mask(q);
    std::size_t best = centroids.size();
    int best_width = std::numeric_limits<int>::max();
    for (std::size_t m = 0; m < centroids.size(); ++m) {
      if (!bits::IsSubset(alpha, centroids[m])) continue;
      const int width = bits::Popcount(centroids[m]);
      if (width < best_width) {
        best_width = width;
        best = m;
      }
    }
    // Every query is dominated by at least one centroid by construction.
    (*cover_of)[q] = best;
  }
}

double ClusterStrategy::PredictedCost(
    const std::vector<bits::Mask>& centroids,
    const std::vector<std::size_t>& cover_of) const {
  // Uniform-budget epsilon-DP cost model: with |M| unit-column-norm groups,
  // each row budget is eps' / |M|, so a query covered by beta accumulates
  // per-cell variance 2^{||beta|| - ||alpha||} * 2 (|M| / eps')^2 over its
  // 2^{||alpha||} cells. Dropping constants: |M|^2 * sum_q 2^{||cover(q)||}.
  double spread = 0.0;
  for (std::size_t q = 0; q < cover_of.size(); ++q) {
    spread += std::pow(2.0, bits::Popcount(centroids[cover_of[q]]));
  }
  const double m = static_cast<double>(centroids.size());
  return m * m * spread;
}

double ClusterStrategy::EvaluateMerge(
    const std::vector<bits::Mask>& centroids, std::size_t i, std::size_t j,
    std::vector<bits::Mask>* candidate_out,
    std::vector<std::size_t>* cover_out) const {
  std::set<bits::Mask> merged_set(centroids.begin(), centroids.end());
  merged_set.erase(centroids[i]);
  merged_set.erase(centroids[j]);
  merged_set.insert(centroids[i] | centroids[j]);
  std::vector<bits::Mask> candidate(merged_set.begin(), merged_set.end());
  std::vector<std::size_t> candidate_cover;
  AssignCovers(candidate, &candidate_cover);
  // Drop centroids no query uses (a merge can strand them).
  std::vector<bool> used(candidate.size(), false);
  for (std::size_t c : candidate_cover) used[c] = true;
  std::vector<bits::Mask> pruned;
  for (std::size_t m = 0; m < candidate.size(); ++m) {
    if (used[m]) pruned.push_back(candidate[m]);
  }
  if (pruned.size() != candidate.size()) {
    AssignCovers(pruned, &candidate_cover);
    candidate = std::move(pruned);
  }
  const double cost = PredictedCost(candidate, candidate_cover);
  if (candidate_out != nullptr) *candidate_out = std::move(candidate);
  if (cover_out != nullptr) *cover_out = std::move(candidate_cover);
  return cost;
}

void ClusterStrategy::RunClustering() {
  // Start from the distinct query masks, ascending.
  std::vector<bits::Mask> centroids = workload_.masks();
  std::sort(centroids.begin(), centroids.end());
  centroids.erase(std::unique(centroids.begin(), centroids.end()),
                  centroids.end());
  std::vector<std::size_t> cover_of;
  AssignCovers(centroids, &cover_of);
  double cost = PredictedCost(centroids, cover_of);

  // Greedy descent. Merging centroids i and j replaces c_i and c_j by
  // u = c_i | c_j, and each query then takes the best of its remaining
  // covers and u, by (width, mask) as AssignCovers does. At most two
  // covers drop out, so each query's three best current covers decide its
  // new cover, and a pair is scored in O(Q) with the sum and the
  // distinct-cover count |M| that EvaluateMerge would compute, in the same
  // order. The winner is the cheapest pair below the current cost, ties to
  // the first in pair order (i outer, j inner); EvaluateMerge rebuilds it.
  const std::size_t num_queries = workload_.num_marginals();
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::array<double, 65> pow2;
  for (int w = 0; w <= 64; ++w) pow2[w] = std::pow(2.0, w);
  std::vector<std::array<std::uint32_t, 3>> best3(num_queries);
  std::vector<std::uint32_t> seen;
  std::uint32_t stamp = 0;
  while (centroids.size() > 1) {
    const std::size_t k = centroids.size();
    std::vector<int> width(k);
    for (std::size_t m = 0; m < k; ++m) width[m] = bits::Popcount(centroids[m]);
    // Centroids ascend by mask, so inserting each after the covers of
    // equal width keeps the (width, mask) order.
    for (std::size_t q = 0; q < num_queries; ++q) {
      std::array<std::uint32_t, 3>& top = best3[q];
      top.fill(kNone);
      for (std::size_t m = 0; m < k; ++m) {
        if (!bits::IsSubset(workload_.mask(q), centroids[m])) continue;
        std::size_t pos = 0;
        while (pos < 3 && top[pos] != kNone && width[top[pos]] <= width[m]) {
          ++pos;
        }
        if (pos == 3) continue;
        for (std::size_t t = 2; t > pos; --t) top[t] = top[t - 1];
        top[pos] = static_cast<std::uint32_t>(m);
      }
    }
    seen.assign(k + 1, 0);
    stamp = 0;
    std::size_t best_i = k, best_j = k;
    double best_cost = cost;
    for (std::size_t i = 0; i + 1 < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        const bits::Mask u = centroids[i] | centroids[j];
        const int u_width = bits::Popcount(u);
        // u's slot: the centroid it already equals, else the spare slot k.
        const auto found =
            std::lower_bound(centroids.begin(), centroids.end(), u);
        const std::size_t u_id =
            found != centroids.end() && *found == u
                ? static_cast<std::size_t>(found - centroids.begin())
                : k;
        ++stamp;
        std::size_t used = 0;
        double spread = 0.0;
        for (std::size_t q = 0; q < num_queries; ++q) {
          std::size_t cover = kNone;
          for (const std::uint32_t c : best3[q]) {
            if (c != i && c != j) {
              cover = c;
              break;
            }
          }
          int cover_width = cover == kNone ? 0 : width[cover];
          if (bits::IsSubset(workload_.mask(q), u) &&
              (cover == kNone || u_width < cover_width ||
               (u_width == cover_width && u < centroids[cover]))) {
            cover = u_id;
            cover_width = u_width;
          }
          assert(cover != kNone);
          spread += pow2[cover_width];
          if (seen[cover] != stamp) {
            seen[cover] = stamp;
            ++used;
          }
        }
        const double m = static_cast<double>(used);
        const double pair_cost = m * m * spread;
        if (pair_cost < best_cost) {
          best_cost = pair_cost;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i == k) break;  // Local optimum.
    std::vector<bits::Mask> best_centroids;
    std::vector<std::size_t> best_cover;
    EvaluateMerge(centroids, best_i, best_j, &best_centroids, &best_cover);
    centroids = std::move(best_centroids);
    cover_of = std::move(best_cover);
    cost = best_cost;
  }
  materialized_ = std::move(centroids);
  cover_of_ = std::move(cover_of);
}

Result<Release> ClusterStrategy::Run(const data::SparseCounts& data,
                                     const linalg::Vector& group_budgets,
                                     const dp::PrivacyParams& params,
                                     Rng* rng) const {
  if (group_budgets.size() != materialized_.size()) {
    return Status::InvalidArgument("ClusterStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());

  for (const double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
  }

  // Measure the centroid marginals: per-centroid fan-out, centroid m
  // drawing its noise from child stream m of one master draw (Rng::Stream
  // rule), so the release is bit-identical for every thread count.
  ThreadPool& pool = ThreadPool::Shared();
  const std::uint64_t noise_base = rng->NextUint64();
  // 1-cell placeholders; every slot is move-assigned by its worker
  // before the join returns.
  std::vector<marginal::MarginalTable> noisy(materialized_.size(),
                                             marginal::MarginalTable(0, 0));
  pool.ParallelFor(0, materialized_.size(), 1, [&](std::size_t m) {
    Rng child = Rng::Stream(noise_base, m);
    marginal::MarginalTable table =
        marginal::ComputeMarginal(data, materialized_[m]);
    for (std::size_t g = 0; g < table.num_cells(); ++g) {
      table.value(g) += dp::SampleNoise(group_budgets[m], params, &child);
    }
    noisy[m] = std::move(table);
  });

  // Aggregate each query marginal from its cover (pure post-processing of
  // the noisy centroids; queries are independent of each other).
  const std::size_t num_queries = workload_.num_marginals();
  Release release;
  release.consistent = false;
  release.cell_variances.assign(num_queries, 0.0);
  release.marginals.assign(num_queries, marginal::MarginalTable(0, 0));
  pool.ParallelFor(0, num_queries, 1, [&](std::size_t q) {
    const bits::Mask alpha = workload_.mask(q);
    const marginal::MarginalTable& cover = noisy[cover_of_[q]];
    marginal::MarginalTable out(alpha, workload_.d());
    for (std::size_t g = 0; g < cover.num_cells(); ++g) {
      const bits::Mask cell = cover.GlobalCell(g);
      out.value(bits::CompressFromMask(cell, alpha)) += cover.value(g);
    }
    const int spread = bits::Popcount(materialized_[cover_of_[q]]) -
                       bits::Popcount(alpha);
    release.cell_variances[q] =
        std::pow(2.0, spread) *
        dp::MeasurementVariance(group_budgets[cover_of_[q]], params);
    release.marginals[q] = std::move(out);
  });
  return release;
}

Result<linalg::Matrix> ClusterStrategy::DenseStrategyMatrix() const {
  if (workload_.d() > 14) {
    return Status::InvalidArgument("domain too large to materialise C");
  }
  marginal::Workload strategy_workload(workload_.d(), materialized_);
  return marginal::BuildQueryMatrix(strategy_workload);
}

Result<int> ClusterStrategy::RowGroupOfDenseRow(std::size_t row) const {
  marginal::Workload strategy_workload(workload_.d(), materialized_);
  marginal::RowLayout layout(strategy_workload);
  if (row >= layout.total_rows()) {
    return Status::OutOfRange("dense row out of range");
  }
  return static_cast<int>(layout.Locate(row).first);
}


Result<linalg::Vector> ClusterStrategy::PredictCellVariances(
    const linalg::Vector& group_budgets,
    const dp::PrivacyParams& params) const {
  if (group_budgets.size() != materialized_.size()) {
    return Status::InvalidArgument("ClusterStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());
  for (double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
  }
  linalg::Vector out;
  out.reserve(workload_.num_marginals());
  for (std::size_t q = 0; q < workload_.num_marginals(); ++q) {
    const int spread = bits::Popcount(materialized_[cover_of_[q]]) -
                       bits::Popcount(workload_.mask(q));
    out.push_back(
        std::pow(2.0, spread) *
        dp::MeasurementVariance(group_budgets[cover_of_[q]], params));
  }
  return out;
}

}  // namespace strategy
}  // namespace dpcube
