// Copyright 2026 The dpcube Authors.

#include "marginal/fourier_index.h"

#include <cassert>
#include <cmath>

namespace dpcube {
namespace marginal {

FourierIndex::FourierIndex(const Workload& workload) : d_(workload.d()) {
  masks_ = workload.FourierSupport();
  index_.reserve(masks_.size());
  for (std::size_t i = 0; i < masks_.size(); ++i) index_[masks_[i]] = i;
}

std::size_t FourierIndex::IndexOf(bits::Mask beta) const {
  auto it = index_.find(beta);
  assert(it != index_.end() && "coefficient not in the workload support");
  return it->second;
}

bool FourierIndex::Contains(bits::Mask beta) const {
  return index_.find(beta) != index_.end();
}

linalg::Matrix BuildFourierRecoveryMatrix(const Workload& workload,
                                          const FourierIndex& index) {
  RowLayout layout(workload);
  linalg::Matrix r(layout.total_rows(), index.size());
  for (std::size_t i = 0; i < workload.num_marginals(); ++i) {
    const bits::Mask alpha = workload.mask(i);
    const int k = bits::Popcount(alpha);
    const double magnitude = std::pow(2.0, 0.5 * workload.d() - k);
    const std::size_t base = layout.offset(i);
    const std::size_t cells = std::size_t{1} << k;
    for (bits::SubmaskIterator it(alpha); !it.done(); it.Next()) {
      const bits::Mask beta = it.mask();
      const std::size_t col = index.IndexOf(beta);
      for (std::size_t g = 0; g < cells; ++g) {
        const bits::Mask gamma = bits::ExpandIntoMask(g, alpha);
        r(base + g, col) = bits::FourierSign(beta, gamma) * magnitude;
      }
    }
  }
  return r;
}

linalg::Vector FourierBudgetWeights(const Workload& workload,
                                    const FourierIndex& index,
                                    const linalg::Vector& query_weights) {
  assert(query_weights.empty() ||
         query_weights.size() == workload.num_marginals());
  // b_beta = 2 sum_{i: beta ⪯ alpha_i} a_i (2^k_i cells) (2^{d/2-k_i})^2
  //        = 2 sum_{i: beta ⪯ alpha_i} a_i 2^{d - k_i}.
  const std::size_t num_marginals = workload.num_marginals();
  std::vector<double> contribution(num_marginals, 0.0);
  for (std::size_t i = 0; i < num_marginals; ++i) {
    const double a = query_weights.empty() ? 1.0 : query_weights[i];
    contribution[i] =
        2.0 * a *
        std::pow(2.0, workload.d() - bits::Popcount(workload.mask(i)));
  }
  // Scatter in increasing i: each slot adds its terms in marginal order,
  // which the committed golden snapshots depend on.
  linalg::Vector b(index.size(), 0.0);
  for (std::size_t i = 0; i < num_marginals; ++i) {
    for (bits::SubmaskIterator it(workload.mask(i)); !it.done(); it.Next()) {
      b[index.IndexOf(it.mask())] += contribution[i];
    }
  }
  return b;
}

}  // namespace marginal
}  // namespace dpcube
