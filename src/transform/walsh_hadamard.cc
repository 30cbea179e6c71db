// Copyright 2026 The dpcube Authors.

#include "transform/walsh_hadamard.h"

#include <bit>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace dpcube {
namespace transform {

namespace {

// Below this size the whole transform is cheaper than one fork/join, so
// it stays on the calling thread (marginal-local WHTs are almost always
// tiny; only full-domain tables cross this).
constexpr std::size_t kParallelCutoff = std::size_t{1} << 14;

}  // namespace

bool IsPowerOfTwo(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

int Log2OfPowerOfTwo(std::size_t n) {
  assert(IsPowerOfTwo(n));
  return std::countr_zero(n);
}

void UnnormalisedWalshHadamard(std::vector<double>* x) {
  const std::size_t n = x->size();
  assert(IsPowerOfTwo(n));
  std::vector<double>& v = *x;
  ThreadPool& pool = ThreadPool::Shared();
  const bool parallel = n >= kParallelCutoff && pool.parallelism() > 1;
  for (std::size_t len = 1; len < n; len <<= 1) {
    if (parallel) {
      // Every stage is a disjoint set of (k, k+len) pairs, so the blocked
      // fan-out writes non-overlapping elements and the result is
      // bit-identical to the sequential sweep; the join between stages
      // orders the dependent reads.
      pool.ParallelForBlocks(
          0, n >> 1, std::size_t{1} << 12,
          [&v, len](std::size_t lo, std::size_t hi) {
            // Pair p lives at k = (p / len) * 2len + (p % len); decompose
            // once and track incrementally (a division per butterfly
            // costs more than the butterfly).
            const std::size_t block = lo / len;
            std::size_t off = lo - block * len;
            std::size_t k = block * (len << 1) + off;
            for (std::size_t p = lo; p < hi; ++p) {
              const double a = v[k];
              const double b = v[k + len];
              v[k] = a + b;
              v[k + len] = a - b;
              if (++off == len) {
                off = 0;
                k += len + 1;
              } else {
                ++k;
              }
            }
          });
      continue;
    }
    for (std::size_t base = 0; base < n; base += len << 1) {
      for (std::size_t k = base; k < base + len; ++k) {
        const double a = v[k];
        const double b = v[k + len];
        v[k] = a + b;
        v[k + len] = a - b;
      }
    }
  }
}

void WalshHadamard(std::vector<double>* x) {
  UnnormalisedWalshHadamard(x);
  // Orthonormal scaling 2^{-d/2}.
  const std::size_t n = x->size();
  std::vector<double>& v = *x;
  ThreadPool& pool = ThreadPool::Shared();
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  if (n >= kParallelCutoff && pool.parallelism() > 1) {
    pool.ParallelForBlocks(0, n, std::size_t{1} << 14,
                           [&v, scale](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) {
                               v[i] *= scale;
                             }
                           });
  } else {
    for (double& value : v) value *= scale;
  }
}

std::vector<double> WalshHadamardCopy(std::vector<double> x) {
  WalshHadamard(&x);
  return x;
}

double FourierCoefficient(const std::vector<double>& x, bits::Mask alpha) {
  assert(IsPowerOfTwo(x.size()));
  double sum = 0.0;
  for (std::size_t beta = 0; beta < x.size(); ++beta) {
    sum += bits::FourierSign(alpha, beta) * x[beta];
  }
  return sum / std::sqrt(static_cast<double>(x.size()));
}

linalg::Matrix HadamardMatrix(int d) {
  assert(d >= 0 && d < 28);
  const std::size_t n = std::size_t{1} << d;
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  linalg::Matrix h(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      h(a, b) = bits::FourierSign(a, b) * scale;
    }
  }
  return h;
}

}  // namespace transform
}  // namespace dpcube
