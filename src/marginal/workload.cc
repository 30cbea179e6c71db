// Copyright 2026 The dpcube Authors.

#include "marginal/workload.h"

#include <algorithm>
#include <cctype>

namespace dpcube {
namespace marginal {
namespace {

// All k-subsets of attribute indices [0, a), lexicographic, mapped to masks.
std::vector<bits::Mask> AttributeCombinationMasks(const data::Schema& schema,
                                                  int k) {
  const int a = static_cast<int>(schema.num_attributes());
  std::vector<bits::Mask> out;
  if (k < 0 || k > a) return out;
  std::vector<std::size_t> idx(k);
  for (int i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    out.push_back(schema.MarginalMask(idx));
    // Next combination.
    int i = k - 1;
    while (i >= 0 && idx[i] == static_cast<std::size_t>(a - k + i)) --i;
    if (i < 0) break;
    ++idx[i];
    for (int j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
  if (k == 0) out.assign(1, 0);
  return out;
}

}  // namespace

std::uint64_t Workload::TotalCells() const {
  std::uint64_t total = 0;
  for (bits::Mask alpha : masks_) {
    total += std::uint64_t{1} << bits::Popcount(alpha);
  }
  return total;
}

std::vector<bits::Mask> Workload::FourierSupport() const {
  std::vector<bits::Mask> support;
  support.reserve(TotalCells());
  for (bits::Mask alpha : masks_) {
    for (bits::SubmaskIterator it(alpha); !it.done(); it.Next()) {
      support.push_back(it.mask());
    }
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  return support;
}

int Workload::MaxOrder() const {
  int best = 0;
  for (bits::Mask alpha : masks_) {
    best = std::max(best, bits::Popcount(alpha));
  }
  return best;
}

bool Workload::Covers(bits::Mask beta) const {
  for (bits::Mask alpha : masks_) {
    if (bits::IsSubset(beta, alpha)) return true;
  }
  return false;
}

Workload AllKWayAttributes(const data::Schema& schema, int k) {
  return Workload(schema.TotalBits(), AttributeCombinationMasks(schema, k));
}

Workload WorkloadQk(const data::Schema& schema, int k) {
  return AllKWayAttributes(schema, k);
}

Workload WorkloadQkStar(const data::Schema& schema, int k) {
  std::vector<bits::Mask> masks = AttributeCombinationMasks(schema, k);
  const std::vector<bits::Mask> next = AttributeCombinationMasks(schema, k + 1);
  for (std::size_t i = 0; i < next.size(); i += 2) masks.push_back(next[i]);
  return Workload(schema.TotalBits(), std::move(masks));
}

Workload WorkloadQkA(const data::Schema& schema, int k,
                     std::size_t fixed_attribute) {
  std::vector<bits::Mask> masks = AttributeCombinationMasks(schema, k);
  const bits::Mask fixed = schema.AttributeMask(fixed_attribute);
  for (bits::Mask m : AttributeCombinationMasks(schema, k + 1)) {
    if ((m & fixed) == fixed) masks.push_back(m);
  }
  return Workload(schema.TotalBits(), std::move(masks));
}

Workload AllKWayBits(int d, int k) {
  return Workload(d, bits::MasksOfWeight(d, k));
}

Result<Workload> WorkloadByName(const data::Schema& schema,
                                const std::string& name) {
  if (name.size() < 2 || name[0] != 'Q') {
    return Status::InvalidArgument("unknown workload name '" + name + "'");
  }
  std::size_t digits_end = 1;
  while (digits_end < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[digits_end]))) {
    ++digits_end;
  }
  if (digits_end == 1) {
    return Status::InvalidArgument("workload name '" + name +
                                   "' missing an order");
  }
  const int k = std::stoi(name.substr(1, digits_end - 1));
  const std::string suffix = name.substr(digits_end);
  if (suffix.empty()) return WorkloadQk(schema, k);
  if (suffix == "*") return WorkloadQkStar(schema, k);
  if (suffix == "a") return WorkloadQkA(schema, k);
  return Status::InvalidArgument("unknown workload suffix '" + suffix + "'");
}

}  // namespace marginal
}  // namespace dpcube
