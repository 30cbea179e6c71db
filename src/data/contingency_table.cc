// Copyright 2026 The dpcube Authors.

#include "data/contingency_table.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "transform/walsh_hadamard.h"

namespace dpcube {
namespace data {

namespace {
constexpr int kMaxDenseBits = 26;  // 64M cells * 8B = 512 MiB ceiling.
}  // namespace

Result<DenseTable> DenseTable::Zero(int d) {
  if (d < 0 || d > kMaxDenseBits) {
    return Status::InvalidArgument("DenseTable: d out of range [0, 26]");
  }
  return DenseTable(d, std::vector<double>(std::uint64_t{1} << d, 0.0));
}

Result<DenseTable> DenseTable::FromDataset(const Dataset& dataset) {
  const int d = dataset.schema().TotalBits();
  DPCUBE_ASSIGN_OR_RETURN(DenseTable table, Zero(d));
  for (std::size_t r = 0; r < dataset.num_rows(); ++r) {
    table.cell(dataset.EncodeRow(r)) += 1.0;
  }
  return table;
}

Result<DenseTable> DenseTable::FromCells(std::vector<double> cells) {
  if (!transform::IsPowerOfTwo(cells.size())) {
    return Status::InvalidArgument("DenseTable: size must be a power of two");
  }
  const int d = transform::Log2OfPowerOfTwo(cells.size());
  if (d > kMaxDenseBits) {
    return Status::InvalidArgument("DenseTable: domain too large");
  }
  return DenseTable(d, std::move(cells));
}

double DenseTable::Total() const {
  double total = 0.0;
  for (double c : cells_) total += c;
  return total;
}

SparseCounts SparseCounts::FromDataset(const Dataset& dataset) {
  const std::size_t rows = dataset.num_rows();
  std::vector<bits::Mask> cells(rows);
  ThreadPool& pool = ThreadPool::Shared();
  pool.ParallelForBlocks(0, rows, std::size_t{1} << 13,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t r = lo; r < hi; ++r) {
                             cells[r] = dataset.EncodeRow(r);
                           }
                         });

  // Sharded sort: fixed-size shards sorted concurrently, then merged in
  // rounds of pairwise inplace_merge (merges within a round are disjoint
  // and also run concurrently). The merged sequence is the same sorted
  // multiset a single std::sort would produce, so the (cell, count)
  // output — integer counts, summed exactly — is identical for every
  // thread count.
  constexpr std::size_t kShard = std::size_t{1} << 15;
  if (rows > kShard && pool.parallelism() > 1) {
    const std::size_t num_shards = (rows + kShard - 1) / kShard;
    pool.ParallelFor(0, num_shards, 1, [&](std::size_t s) {
      const std::size_t lo = s * kShard;
      std::sort(cells.begin() + lo,
                cells.begin() + std::min(rows, lo + kShard));
    });
    for (std::size_t width = kShard; width < rows; width <<= 1) {
      const std::size_t num_pairs = (rows + 2 * width - 1) / (2 * width);
      pool.ParallelFor(0, num_pairs, 1, [&](std::size_t p) {
        const std::size_t base = p * 2 * width;
        const std::size_t mid = base + width;
        if (mid >= rows) return;  // Odd tail carries over unmerged.
        std::inplace_merge(cells.begin() + base, cells.begin() + mid,
                           cells.begin() + std::min(rows, base + 2 * width));
      });
    }
  } else {
    std::sort(cells.begin(), cells.end());
  }

  std::vector<Entry> entries;
  for (std::size_t i = 0; i < cells.size();) {
    std::size_t j = i;
    while (j < cells.size() && cells[j] == cells[i]) ++j;
    entries.push_back(Entry{cells[i], static_cast<double>(j - i)});
    i = j;
  }
  return SparseCounts(dataset.schema().TotalBits(), std::move(entries));
}

SparseCounts SparseCounts::FromDense(const DenseTable& dense) {
  std::vector<Entry> entries;
  for (std::uint64_t c = 0; c < dense.domain_size(); ++c) {
    if (dense.cell(c) != 0.0) entries.push_back(Entry{c, dense.cell(c)});
  }
  return SparseCounts(dense.d(), std::move(entries));
}

double SparseCounts::Total() const {
  double total = 0.0;
  for (const Entry& e : entries_) total += e.count;
  return total;
}

Result<DenseTable> SparseCounts::ToDense() const {
  DPCUBE_ASSIGN_OR_RETURN(DenseTable table, DenseTable::Zero(d_));
  for (const Entry& e : entries_) table.cell(e.cell) = e.count;
  return table;
}

double SparseCounts::FourierCoefficient(bits::Mask alpha) const {
  double sum = 0.0;
  for (const Entry& e : entries_) {
    sum += bits::FourierSign(alpha, e.cell) * e.count;
  }
  return sum * std::pow(2.0, -0.5 * d_);
}

}  // namespace data
}  // namespace dpcube
