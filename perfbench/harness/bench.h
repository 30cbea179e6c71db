// Shared vocabulary of the dpcube benchmark harness: the run
// configuration parsed from the command line, the metric sink every
// workload reports into, the correctness tally, and small timing and
// statistics helpers.
//
// The harness measures dpcube from the outside. Every per-layer number
// is the harness timing its own call into a module's public function
// (or reading a counter the library already exports); nothing inside
// src/ is instrumented for the benchmark.

#ifndef PERFBENCH_HARNESS_BENCH_H_
#define PERFBENCH_HARNESS_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Times one call of `fn` in seconds.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Small inputs and short phases, for the self-test.
  bool small = false;
  /// Scratch directory inside the checkout (CSV files, state dirs).
  std::string work_dir;
  /// Explicit thread counts: the in-process server's event-loop pollers
  /// and its query pool, the load generator's client threads (one
  /// process, at most nproc), and the release pipeline's shared pool.
  /// They have no defaults: BENCHMARK.json's command names them.
  int pollers = 0;
  int pool_threads = 0;
  int clients = 0;
  int pipeline_threads = 0;
};

/// How many times set-up runs in one run; setup_s is the median.
inline constexpr int kSetupReps = 9;

/// Percentile of `xs` (p in [0, 100]) with linear interpolation; 0 for
/// an empty sample.
inline double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// The percentile every workload reports as tail_ms. Not p99: on a
/// shared host the p99 of a ~100 us round trip, and the p90 of a queue
/// behind derives that cost ~20x the median query, follow the
/// neighbours' load more than the program.
inline constexpr double kTailPercentile = 75;

/// Named metric values in report order.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }

  /// The value of `name`, 0 when it was never set.
  double Value(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness tally. An op is attempted once; it fails when the program
/// returned an error, shed it, timed out, or answered wrongly. A check
/// failure that is not tied to one op (a ledger or round-trip mismatch)
/// also lands here, so `failed` > 0 always means "not correct".
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_errors;

  void Fail(const std::string& why) {
    ++failed;
    if (first_errors.size() < 8) first_errors.push_back(why);
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& e : other.first_errors) {
      if (first_errors.size() < 8) first_errors.push_back(e);
    }
  }
};

/// What one workload run hands back to main.
struct WorkloadResult {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  MetricSink metrics;
  /// Metrics printed in the human summary only (not gated; see README).
  MetricSink summary;
  Tally tally;
  /// Run-record fields specific to this workload ("key": value pairs).
  std::vector<std::pair<std::string, std::string>> record;
};

WorkloadResult RunReleaseWorkload(const RunConfig& config);
WorkloadResult RunServeWorkload(const RunConfig& config);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// 64-bit FNV-1a over `size` bytes, chained from `h`.
inline std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_H_
