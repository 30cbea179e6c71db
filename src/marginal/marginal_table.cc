// Copyright 2026 The dpcube Authors.

#include "marginal/marginal_table.h"

#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "transform/walsh_hadamard.h"

namespace dpcube {
namespace marginal {
namespace {

// Maps global cells to local indices under one mask, CompressFromMask
// without its per-bit loop: one 256-entry table per byte of the mask that
// holds set bits, each entry that byte's compressed bits already shifted
// to their local position, so a cell costs one lookup per such byte.
class LocalIndexer {
 public:
  explicit LocalIndexer(bits::Mask alpha) {
    int offset = 0;  // Local bits taken by the lower bytes of alpha.
    for (int shift = 0; shift < 64; shift += 8) {
      const unsigned part = static_cast<unsigned>(alpha >> shift) & 0xffu;
      if (part == 0) continue;
      // Local bit of each byte bit (0 where alpha lacks it); entry v then
      // ORs the bits of v, built from v with its lowest bit cleared.
      std::array<std::uint64_t, 8> single{};
      for (int b = 0, next = offset; b < 8; ++b) {
        if ((part >> b) & 1u) single[b] = std::uint64_t{1} << next++;
      }
      Byte& byte = bytes_.emplace_back();
      byte.shift = shift;
      byte.table[0] = 0;
      for (unsigned v = 1; v < 256; ++v) {
        byte.table[v] = byte.table[v & (v - 1)] | single[std::countr_zero(v)];
      }
      offset += std::popcount(part);
    }
  }

  std::uint64_t operator()(bits::Mask cell) const {
    std::uint64_t local = 0;
    for (const Byte& byte : bytes_) {
      local |= byte.table[(cell >> byte.shift) & 0xffu];
    }
    return local;
  }

 private:
  struct Byte {
    int shift = 0;
    std::array<std::uint64_t, 256> table;
  };
  std::vector<Byte> bytes_;
};

}  // namespace

double MarginalTable::Total() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

double MarginalTable::MeanCellValue() const {
  if (values_.empty()) return 0.0;
  return Total() / static_cast<double>(values_.size());
}

MarginalTable ComputeMarginal(const data::DenseTable& table, bits::Mask alpha) {
  MarginalTable out(alpha, table.d());
  const LocalIndexer local(alpha);
  for (std::uint64_t cell = 0; cell < table.domain_size(); ++cell) {
    const double v = table.cell(cell);
    if (v == 0.0) continue;
    out.value(local(cell)) += v;
  }
  return out;
}

MarginalTable ComputeMarginal(const data::SparseCounts& counts,
                              bits::Mask alpha) {
  MarginalTable out(alpha, counts.d());
  const LocalIndexer local(alpha);
  for (const auto& entry : counts.entries()) {
    out.value(local(entry.cell)) += entry.count;
  }
  return out;
}

MarginalTable MarginalFromFourier(
    bits::Mask alpha, int d,
    const std::function<double(bits::Mask)>& coefficient) {
  MarginalTable out(alpha, d);
  const int k = out.k();
  // Collect the 2^k coefficients in local-index order. Local index l of a
  // coefficient mask beta ⪯ alpha is CompressFromMask(beta, alpha); the
  // local WHT sign (-1)^{<local(beta), local(gamma)>} equals the global
  // (-1)^{<beta, gamma>} because both masks live inside alpha.
  std::vector<double> local(out.num_cells());
  for (std::size_t l = 0; l < local.size(); ++l) {
    local[l] = coefficient(bits::ExpandIntoMask(l, alpha));
  }
  transform::WalshHadamard(&local);
  const double scale = std::pow(2.0, 0.5 * (d - k));
  for (std::size_t g = 0; g < local.size(); ++g) {
    out.value(g) = scale * local[g];
  }
  return out;
}

}  // namespace marginal
}  // namespace dpcube
