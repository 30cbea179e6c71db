// Copyright 2026 The dpcube Authors.

#include "common/trace.h"

#include <algorithm>
#include <chrono>

namespace dpcube {
namespace trace {

const char* SpanName(Span span) {
  switch (span) {
    case Span::kDecode:
      return "decode";
    case Span::kAdmit:
      return "admit";
    case Span::kQueue:
      return "queue";
    case Span::kCompute:
      return "compute";
    case Span::kEncode:
      return "encode";
    case Span::kFlush:
      return "flush";
  }
  return "unknown";
}

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::array<std::uint64_t, kNumSpans> RequestTrace::SpanNanos() const {
  const auto at = [this](Stamp s) {
    return stamps[static_cast<std::size_t>(s)];
  };
  // Span i runs from boundary i to i + 1. Encoding is interleaved with
  // the compute it follows, so its time is carved off the exec span's
  // end.
  std::array<std::int64_t, kNumSpans + 1> b{};
  b[0] = at(Stamp::kRead);
  b[1] = std::max(b[0], at(Stamp::kDecoded));
  b[2] = std::max(b[1], at(Stamp::kAdmitted));
  b[3] = std::max(b[2], at(Stamp::kExecStart));
  b[5] = std::max(b[3], at(Stamp::kExecEnd));
  b[4] = std::max(b[3], b[5] - static_cast<std::int64_t>(encode_nanos));
  b[6] = std::max(b[5], at(Stamp::kFlushed));
  std::array<std::uint64_t, kNumSpans> spans{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i] = static_cast<std::uint64_t>(b[i + 1] - b[i]);
  }
  return spans;
}

void RequestTrace::Seal(std::uint64_t slow_micros) {
  const std::array<std::uint64_t, kNumSpans> spans = SpanNanos();
  std::uint64_t elapsed = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t start_micros = elapsed / 1000;
    elapsed += spans[i];
    span_micros[i] = elapsed / 1000 - start_micros;
  }
  total_micros = elapsed / 1000;
  slow = slow_micros > 0 && total_micros >= slow_micros;
}

std::uint64_t NextTraceId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

TraceRing::TraceRing(std::size_t capacity, std::size_t slowest_capacity)
    : slots_(capacity == 0 ? 1 : capacity),
      slowest_capacity_(slowest_capacity) {}

void TraceRing::Record(const RequestTrace& trace) {
  const std::uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(ticket - 1) % slots_.size()];
  {
    sync::MutexLock lock(&slot.mu);
    slot.trace = trace;
    slot.ticket = ticket;
  }

  if (slowest_capacity_ == 0) return;
  // Fast reject: once the reservoir is full, anything quicker than its
  // current minimum cannot enter; a relaxed read keeps the common case
  // lock-free. The threshold only ever rises, so a stale read can at
  // worst admit a candidate that loses the locked re-check below.
  if (trace.total_micros < slow_threshold_.load(std::memory_order_relaxed)) {
    return;
  }
  sync::MutexLock lock(&slow_mu_);
  if (slowest_.size() >= slowest_capacity_ &&
      trace.total_micros <= slowest_.back().total_micros) {
    return;
  }
  const auto insert_at = std::upper_bound(
      slowest_.begin(), slowest_.end(), trace,
      [](const RequestTrace& a, const RequestTrace& b) {
        return a.total_micros > b.total_micros;
      });
  slowest_.insert(insert_at, trace);
  if (slowest_.size() > slowest_capacity_) slowest_.pop_back();
  if (slowest_.size() >= slowest_capacity_) {
    slow_threshold_.store(slowest_.back().total_micros,
                          std::memory_order_relaxed);
  }
}

std::vector<RequestTrace> TraceRing::Recent(std::size_t max) const {
  std::vector<RequestTrace> out;
  const std::uint64_t newest = next_ticket_.load(std::memory_order_relaxed);
  if (newest == 0 || max == 0) return out;
  const std::uint64_t span =
      std::min<std::uint64_t>({newest, slots_.size(), max});
  out.reserve(static_cast<std::size_t>(span));
  for (std::uint64_t t = newest; t + span > newest && t >= 1; --t) {
    const Slot& slot = slots_[(t - 1) % slots_.size()];
    sync::MutexLock lock(&slot.mu);
    // A concurrent writer may have lapped this slot (newer ticket) or
    // not written it yet (older ticket from a previous incarnation was
    // expected but a racing claim is still copying). Either way the
    // ticket mismatch identifies the slot as unusable for ticket `t`.
    if (slot.ticket == t) out.push_back(slot.trace);
  }
  return out;
}

std::vector<RequestTrace> TraceRing::Slowest() const {
  sync::MutexLock lock(&slow_mu_);
  return slowest_;
}

}  // namespace trace
}  // namespace dpcube
