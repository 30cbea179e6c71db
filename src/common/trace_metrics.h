// Copyright 2026 The dpcube Authors.
//
// The registry-facing half of request tracing: every serving metric a
// frame feeds, derived from its RequestTrace. Resolved once at server
// startup: the frame counters, the STATS phase histograms
// (dpcube_frame_latency_microseconds{phase=...}), the per-verb and
// per-error series, and the per-span histograms
// (dpcube_span_microseconds{span=...}). The per-release query telemetry
// (dpcube_release_queries_total{release=...} and
// dpcube_release_query_latency_microseconds{release=...}) resolves
// lazily as releases are first queried, with a hard cardinality cap,
// because release names arrive on the wire and a hostile client must
// not be able to mint unbounded label sets. Past the cap, every new
// name lands on release="__other__".

#ifndef DPCUBE_COMMON_TRACE_METRICS_H_
#define DPCUBE_COMMON_TRACE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/sync.h"
#include "common/trace.h"

namespace dpcube {
namespace trace {

/// Escapes a value for use inside a Prometheus label ("a\"b" etc.).
std::string EscapeLabelValue(const std::string& value);

class ServingTraceMetrics {
 public:
  /// Label text for tally index i (a verb or an error code).
  using LabelName = const char* (*)(int);

  /// Resolves every series against `registry`, which this object keeps
  /// alive. The frame counters are exported as callbacks over this
  /// object, so the registry must only be rendered while it lives (the
  /// listener holds both).
  ServingTraceMetrics(std::shared_ptr<metrics::Registry> registry,
                      LabelName verb_name, LabelName code_name,
                      std::size_t max_releases = 64);

  ServingTraceMetrics(const ServingTraceMetrics&) = delete;
  ServingTraceMetrics& operator=(const ServingTraceMetrics&) = delete;

  /// Frame counters the connections bump as frames decode (`requests`,
  /// shed ones included) and as responses are enqueued (`responses`);
  /// RecordExecuted counts `frames_executed`.
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> frames_executed{0};

  /// The views a client may read as soon as it has its response, fed on
  /// the worker before the response is enqueued: the STATS phases
  /// (queue = admit + queue spans, exec = compute + encode, total =
  /// their sum), the per-verb line counts with one exec-time sample per
  /// verb the frame ran, the per-error counts, and per release its
  /// answered queries plus one compute-span sample.
  void RecordExecuted(const RequestTrace& trace);

  /// Records all six spans of a flushed frame into the span histograms,
  /// zero-length ones included, so every span counts every frame.
  void RecordFlushed(const RequestTrace& trace) const;

  const metrics::LatencyHistogram& queue_latency() const { return *queue_; }
  const metrics::LatencyHistogram& exec_latency() const { return *exec_; }
  const metrics::LatencyHistogram& total_latency() const { return *total_; }
  /// Lines run with verb tally index `verb`.
  std::uint64_t verb_requests(int verb) const {
    return verb_requests_[static_cast<std::size_t>(verb)]->value();
  }

 private:
  struct PerRelease {
    metrics::Counter* queries = nullptr;
    metrics::LatencyHistogram* latency = nullptr;
  };
  /// The per-release series for `release`, creating them on first use.
  /// Thread-safe; past `max_releases` distinct names, returns the
  /// shared "__other__" series.
  PerRelease Release(const std::string& release) const;

  /// Mints the registry series for one release label. Only touches
  /// registry_ (which locks itself), but is called exclusively from the
  /// insert path, so it inherits the writer hold.
  PerRelease ResolveLocked(const std::string& release) const REQUIRES(mu_);

  const std::shared_ptr<metrics::Registry> registry_;
  metrics::LatencyHistogram* queue_ = nullptr;
  metrics::LatencyHistogram* exec_ = nullptr;
  metrics::LatencyHistogram* total_ = nullptr;
  std::array<metrics::Counter*, kMaxVerbs> verb_requests_{};
  std::array<metrics::LatencyHistogram*, kMaxVerbs> verb_latency_{};
  /// Index 0 (success) stays null: only failures count as errors.
  std::array<metrics::Counter*, kMaxErrorCodes> errors_{};
  std::array<metrics::LatencyHistogram*, kNumSpans> spans_{};
  const std::size_t max_releases_;
  mutable sync::SharedMutex mu_;
  mutable std::map<std::string, PerRelease> releases_ GUARDED_BY(mu_);
};

}  // namespace trace
}  // namespace dpcube

#endif  // DPCUBE_COMMON_TRACE_METRICS_H_
