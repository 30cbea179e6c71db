// Copyright 2026 The dpcube Authors.

#include "recovery/derive.h"

#include <cmath>
#include <utility>

#include "recovery/consistency.h"

namespace dpcube {
namespace recovery {

Result<DerivedCube> DerivedCube::Fit(
    const marginal::Workload& workload,
    const std::vector<marginal::MarginalTable>& noisy,
    const linalg::Vector& cell_variances) {
  if (noisy.size() != workload.num_marginals() ||
      cell_variances.size() != workload.num_marginals()) {
    return Status::InvalidArgument(
        "DerivedCube: one table and one variance per workload marginal");
  }
  marginal::FourierIndex index(workload);
  DPCUBE_ASSIGN_OR_RETURN(
      linalg::Vector coefficients,
      FitFourierCoefficients(workload, index, noisy, cell_variances));

  // GLS variance of each coefficient: the inverse-variance-weighted
  // average over the containing marginals has
  //   Var(theta_hat_beta) = 1 / sum_{i: beta ⪯ alpha_i} 2^{d-k_i}/var_i.
  // Scattering each marginal's term over its submasks in increasing i adds
  // every coefficient's terms in the same order as summing over i per
  // coefficient.
  const int d = workload.d();
  linalg::Vector variances(index.size(), 0.0);
  for (std::size_t i = 0; i < workload.num_marginals(); ++i) {
    if (!(cell_variances[i] > 0.0)) {
      return Status::InvalidArgument(
          "DerivedCube: cell variances must be positive");
    }
    const bits::Mask alpha = workload.mask(i);
    const double term =
        std::ldexp(1.0, d - bits::Popcount(alpha)) / cell_variances[i];
    for (bits::SubmaskIterator it(alpha); !it.done(); it.Next()) {
      variances[index.IndexOf(it.mask())] += term;
    }
  }
  for (double& v : variances) v = 1.0 / v;
  return DerivedCube(std::move(index), std::move(coefficients),
                     std::move(variances));
}

bool DerivedCube::CanDerive(bits::Mask beta) const {
  // F is downward closed (it is a union of downward-closed sets), so
  // membership of beta itself implies membership of all its submasks.
  return index_.Contains(beta);
}

Result<marginal::MarginalTable> DerivedCube::Derive(bits::Mask beta) const {
  if (!CanDerive(beta)) {
    return Status::FailedPrecondition(
        "DerivedCube: marginal not covered by the released workload");
  }
  return marginal::MarginalFromFourier(
      beta, index_.d(),
      [this](bits::Mask eta) { return coefficients_[index_.IndexOf(eta)]; });
}

Result<double> DerivedCube::DerivedCellVariance(bits::Mask beta) const {
  if (!CanDerive(beta)) {
    return Status::FailedPrecondition(
        "DerivedCube: marginal not covered by the released workload");
  }
  const int k = bits::Popcount(beta);
  double sum = 0.0;
  for (bits::SubmaskIterator it(beta); !it.done(); it.Next()) {
    sum += variances_[index_.IndexOf(it.mask())];
  }
  return std::ldexp(sum, index_.d() - 2 * k);
}

Result<double> DerivedCube::Coefficient(bits::Mask beta) const {
  if (!index_.Contains(beta)) {
    return Status::FailedPrecondition("DerivedCube: coefficient not fitted");
  }
  return coefficients_[index_.IndexOf(beta)];
}

Result<double> DerivedCube::CoefficientVariance(bits::Mask beta) const {
  if (!index_.Contains(beta)) {
    return Status::FailedPrecondition("DerivedCube: coefficient not fitted");
  }
  return variances_[index_.IndexOf(beta)];
}

}  // namespace recovery
}  // namespace dpcube
