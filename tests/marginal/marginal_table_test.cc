// Copyright 2026 The dpcube Authors.

#include "marginal/marginal_table.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"

namespace dpcube {
namespace marginal {
namespace {

data::Dataset Figure1Dataset() {
  data::Schema schema({{"C", 2}, {"B", 2}, {"A", 2}});
  data::Dataset ds(schema);
  EXPECT_TRUE(ds.AppendRow({1, 0, 0}).ok());
  EXPECT_TRUE(ds.AppendRow({1, 1, 0}).ok());
  EXPECT_TRUE(ds.AppendRow({0, 0, 0}).ok());
  EXPECT_TRUE(ds.AppendRow({1, 0, 0}).ok());
  EXPECT_TRUE(ds.AppendRow({0, 1, 1}).ok());
  return ds;
}

TEST(MarginalTableTest, Figure1MarginalOverAB) {
  // Marginal over A (bit 2) and B (bit 1): the paper computes
  // (C^110 x)_000 = 3 and (C^110 x)_010 = 1.
  const data::SparseCounts counts =
      data::SparseCounts::FromDataset(Figure1Dataset());
  const bits::Mask alpha = 0b110;
  const MarginalTable m = ComputeMarginal(counts, alpha);
  EXPECT_EQ(m.k(), 2);
  EXPECT_EQ(m.num_cells(), 4u);
  // Local index order: (B, A) bits compressed -> local 0 = (A=0,B=0).
  EXPECT_DOUBLE_EQ(m.value(bits::CompressFromMask(0b000, alpha)), 3.0);
  EXPECT_DOUBLE_EQ(m.value(bits::CompressFromMask(0b010, alpha)), 1.0);
  EXPECT_DOUBLE_EQ(m.value(bits::CompressFromMask(0b100, alpha)), 0.0);
  EXPECT_DOUBLE_EQ(m.value(bits::CompressFromMask(0b110, alpha)), 1.0);
  EXPECT_DOUBLE_EQ(m.Total(), 5.0);
  EXPECT_DOUBLE_EQ(m.MeanCellValue(), 1.25);
}

TEST(MarginalTableTest, MarginalOverA) {
  const data::SparseCounts counts =
      data::SparseCounts::FromDataset(Figure1Dataset());
  const MarginalTable m = ComputeMarginal(counts, 0b100);
  EXPECT_EQ(m.num_cells(), 2u);
  EXPECT_DOUBLE_EQ(m.value(0), 4.0);  // A = 0.
  EXPECT_DOUBLE_EQ(m.value(1), 1.0);  // A = 1.
}

TEST(MarginalTableTest, GrandTotalMarginal) {
  const data::SparseCounts counts =
      data::SparseCounts::FromDataset(Figure1Dataset());
  const MarginalTable m = ComputeMarginal(counts, 0);
  EXPECT_EQ(m.num_cells(), 1u);
  EXPECT_DOUBLE_EQ(m.value(0), 5.0);
}

TEST(MarginalTableTest, DenseAndSparseAgree) {
  Rng rng(1);
  const data::Dataset ds = data::MakeProductBernoulli(7, 0.3, 400, &rng);
  auto dense = data::DenseTable::FromDataset(ds);
  ASSERT_TRUE(dense.ok());
  const data::SparseCounts sparse = data::SparseCounts::FromDataset(ds);
  for (bits::Mask alpha : {bits::Mask{0b1}, bits::Mask{0b101},
                           bits::Mask{0b1110}, bits::Mask{0b1111111}}) {
    const MarginalTable from_dense = ComputeMarginal(dense.value(), alpha);
    const MarginalTable from_sparse = ComputeMarginal(sparse, alpha);
    ASSERT_EQ(from_dense.num_cells(), from_sparse.num_cells());
    for (std::size_t g = 0; g < from_dense.num_cells(); ++g) {
      EXPECT_DOUBLE_EQ(from_dense.value(g), from_sparse.value(g));
    }
  }
}

// The per-cell CompressFromMask loop that ComputeMarginal's byte tables
// replace.
MarginalTable CompressOracle(const data::SparseCounts& counts,
                             bits::Mask alpha) {
  MarginalTable out(alpha, counts.d());
  for (const auto& entry : counts.entries()) {
    out.value(bits::CompressFromMask(entry.cell, alpha)) += entry.count;
  }
  return out;
}

bits::Mask RandomMask(int d, int k, Rng* rng) {
  bits::Mask alpha = 0;
  while (bits::Popcount(alpha) < k) {
    alpha |= bits::Mask{1} << rng->NextBounded(d);
  }
  return alpha;
}

TEST(MarginalTableTest, ByteTablesMatchCompressFromMask) {
  Rng rng(5);
  // d = 60: masks reach bits far above 32 and straddle byte boundaries.
  std::vector<data::Attribute> attrs;
  for (int a = 0; a < 7; ++a) attrs.push_back({"a" + std::to_string(a), 256});
  attrs.push_back({"tail", 16});
  const data::Schema wide(std::move(attrs));
  ASSERT_EQ(wide.TotalBits(), 60);
  const data::SparseCounts wide_counts =
      data::SparseCounts::FromDataset(data::MakeUniform(wide, 5000, &rng));
  const data::SparseCounts narrow_counts = data::SparseCounts::FromDataset(
      data::MakeUniform(data::BinarySchema(12), 3000, &rng));
  auto dense = narrow_counts.ToDense();
  ASSERT_TRUE(dense.ok());
  for (int trial = 0; trial < 200; ++trial) {
    const bool use_wide = trial % 2 == 0;
    const data::SparseCounts& counts = use_wide ? wide_counts : narrow_counts;
    const int k = static_cast<int>(rng.NextBounded(13));
    bits::Mask alpha = RandomMask(counts.d(), k, &rng);
    if (trial == 0) alpha = bits::Mask{0xff} << 52;  // Only bits above 32.
    if (trial == 2) alpha = 0;
    const MarginalTable want = CompressOracle(counts, alpha);
    const MarginalTable got = ComputeMarginal(counts, alpha);
    ASSERT_EQ(got.num_cells(), want.num_cells());
    ASSERT_EQ(std::memcmp(got.values().data(), want.values().data(),
                          want.num_cells() * sizeof(double)),
              0)
        << "d=" << counts.d() << " alpha=" << alpha;
    if (!use_wide) {
      const MarginalTable from_dense = ComputeMarginal(dense.value(), alpha);
      ASSERT_EQ(std::memcmp(from_dense.values().data(), want.values().data(),
                            want.num_cells() * sizeof(double)),
                0)
          << "dense alpha=" << alpha;
    }
  }
}

TEST(MarginalTableTest, FullMarginalIsTheTableItself) {
  Rng rng(2);
  const data::Dataset ds = data::MakeProductBernoulli(5, 0.4, 200, &rng);
  auto dense = data::DenseTable::FromDataset(ds);
  ASSERT_TRUE(dense.ok());
  const MarginalTable m =
      ComputeMarginal(dense.value(), bits::FullMask(5));
  for (std::size_t c = 0; c < 32; ++c) {
    EXPECT_DOUBLE_EQ(m.value(c), dense.value().cell(c));
  }
}

TEST(MarginalFromFourierTest, ReconstructsExactMarginals) {
  // Theorem 4.1(2): a marginal is exactly determined by its dominated
  // Fourier coefficients.
  Rng rng(3);
  const data::Dataset ds = data::MakeProductBernoulli(8, 0.35, 600, &rng);
  const data::SparseCounts sparse = data::SparseCounts::FromDataset(ds);
  for (bits::Mask alpha : {bits::Mask{0b11}, bits::Mask{0b10100},
                           bits::Mask{0b11000011}}) {
    const MarginalTable direct = ComputeMarginal(sparse, alpha);
    const MarginalTable via_fourier = MarginalFromFourier(
        alpha, 8,
        [&](bits::Mask beta) { return sparse.FourierCoefficient(beta); });
    ASSERT_EQ(direct.num_cells(), via_fourier.num_cells());
    for (std::size_t g = 0; g < direct.num_cells(); ++g) {
      EXPECT_NEAR(direct.value(g), via_fourier.value(g), 1e-8)
          << "alpha=" << alpha << " cell=" << g;
    }
  }
}

TEST(MarginalFromFourierTest, ZeroOrderMarginal) {
  Rng rng(4);
  const data::Dataset ds = data::MakeProductBernoulli(6, 0.5, 100, &rng);
  const data::SparseCounts sparse = data::SparseCounts::FromDataset(ds);
  const MarginalTable total = MarginalFromFourier(
      0, 6, [&](bits::Mask beta) { return sparse.FourierCoefficient(beta); });
  EXPECT_EQ(total.num_cells(), 1u);
  EXPECT_NEAR(total.value(0), 100.0, 1e-8);
}

TEST(MarginalTableTest, GlobalCellExpandsLocalIndex) {
  MarginalTable m(0b1010, 4);
  EXPECT_EQ(m.GlobalCell(0b00), 0b0000u);
  EXPECT_EQ(m.GlobalCell(0b01), 0b0010u);
  EXPECT_EQ(m.GlobalCell(0b10), 0b1000u);
  EXPECT_EQ(m.GlobalCell(0b11), 0b1010u);
}

}  // namespace
}  // namespace marginal
}  // namespace dpcube
