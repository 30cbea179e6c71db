// Copyright 2026 The dpcube Authors.

#include "common/trace_metrics.h"

#include <utility>

namespace dpcube {
namespace trace {

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

namespace {

double Seconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

}  // namespace

ServingTraceMetrics::ServingTraceMetrics(
    std::shared_ptr<metrics::Registry> registry, LabelName verb_name,
    LabelName code_name, std::size_t max_releases)
    : registry_(std::move(registry)), max_releases_(max_releases) {
  const auto count = [this](const char* family, const char* help,
                            const std::atomic<std::uint64_t>* value) {
    registry_->RegisterCallbackCounter(family, "", help, [value] {
      return static_cast<double>(value->load(std::memory_order_relaxed));
    });
  };
  count("dpcube_frames_received_total",
        "Protocol frames received, including shed ones.", &requests);
  count("dpcube_frames_executed_total",
        "Protocol frames that reached a session.", &frames_executed);
  count("dpcube_responses_total", "Response frames enqueued for write.",
        &responses);
  const auto phase = [this](const char* label, const char* help) {
    return registry_->GetHistogram("dpcube_frame_latency_microseconds",
                                   std::string("phase=\"") + label + "\"",
                                   help);
  };
  queue_ = phase("queue",
                 "Frame latency by phase: queue (arrival to worker start), "
                 "exec (on the worker), total (arrival to worker done).");
  exec_ = phase("exec", "");
  total_ = phase("total", "");
  for (int k = 0; k < kMaxVerbs; ++k) {
    const std::string labels = std::string("verb=\"") + verb_name(k) + "\"";
    verb_requests_[static_cast<std::size_t>(k)] = registry_->GetCounter(
        "dpcube_requests_total", labels,
        "Requests processed by sessions, by protocol verb.");
    verb_latency_[static_cast<std::size_t>(k)] = registry_->GetHistogram(
        "dpcube_request_latency_microseconds", labels,
        "Exec time of the frames that ran each protocol verb.");
  }
  for (int c = 1; c < kMaxErrorCodes; ++c) {
    errors_[static_cast<std::size_t>(c)] = registry_->GetCounter(
        "dpcube_errors_total", std::string("code=\"") + code_name(c) + "\"",
        "Error responses emitted, by structured error code.");
  }
  for (int i = 0; i < kNumSpans; ++i) {
    spans_[static_cast<std::size_t>(i)] = registry_->GetHistogram(
        "dpcube_span_microseconds",
        std::string("span=\"") + SpanName(static_cast<Span>(i)) + "\"",
        "Request time by pipeline span: decode, admit, queue, compute, "
        "encode, flush.");
  }
}

void ServingTraceMetrics::RecordExecuted(const RequestTrace& trace) {
  const std::array<std::uint64_t, kNumSpans> spans = trace.SpanNanos();
  const auto nanos = [&spans](Span s) {
    return spans[static_cast<std::size_t>(s)];
  };
  const std::uint64_t queue = nanos(Span::kAdmit) + nanos(Span::kQueue);
  const std::uint64_t exec = nanos(Span::kCompute) + nanos(Span::kEncode);
  frames_executed.fetch_add(1, std::memory_order_relaxed);
  queue_->Record(Seconds(queue));
  exec_->Record(Seconds(exec));
  total_->Record(Seconds(queue + exec));
  for (std::size_t k = 0; k < verb_requests_.size(); ++k) {
    if (trace.verb_lines[k] == 0) continue;
    verb_requests_[k]->Increment(trace.verb_lines[k]);
    verb_latency_[k]->Record(Seconds(exec));
  }
  for (std::size_t c = 1; c < errors_.size(); ++c) {
    if (trace.errors[c] != 0) errors_[c]->Increment(trace.errors[c]);
  }
  for (const auto& [release, queries] : trace.release_queries) {
    const PerRelease series = Release(release);
    series.queries->Increment(queries);
    series.latency->Record(Seconds(nanos(Span::kCompute)));
  }
}

void ServingTraceMetrics::RecordFlushed(const RequestTrace& trace) const {
  const std::array<std::uint64_t, kNumSpans> spans = trace.SpanNanos();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans_[i]->Record(Seconds(spans[i]));
  }
}

ServingTraceMetrics::PerRelease ServingTraceMetrics::ResolveLocked(
    const std::string& release) const {
  PerRelease series;
  const std::string labels =
      "release=\"" + EscapeLabelValue(release) + "\"";
  series.queries = registry_->GetCounter(
      "dpcube_release_queries_total", labels,
      "Queries answered, by release (capped cardinality; overflow lands "
      "on release=\"__other__\").");
  series.latency = registry_->GetHistogram(
      "dpcube_release_query_latency_microseconds", labels,
      "Compute span of the frames that queried each release.");
  return series;
}

ServingTraceMetrics::PerRelease ServingTraceMetrics::Release(
    const std::string& release) const {
  {
    // Fast path: every query after the first for a release takes a
    // shared lock only — pool workers resolving the same hot release
    // never serialise on the map.
    sync::ReaderLock lock(&mu_);
    auto it = releases_.find(release);
    if (it != releases_.end()) return it->second;
  }
  sync::WriterLock lock(&mu_);
  auto it = releases_.find(release);
  if (it != releases_.end()) return it->second;
  if (releases_.size() >= max_releases_) {
    auto other = releases_.find("__other__");
    if (other != releases_.end()) return other->second;
    return releases_.emplace("__other__", ResolveLocked("__other__"))
        .first->second;
  }
  return releases_.emplace(release, ResolveLocked(release)).first->second;
}

}  // namespace trace
}  // namespace dpcube
