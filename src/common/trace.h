// Copyright 2026 The dpcube Authors.
//
// The request-tracing spine of the serving path, and the one timing
// record of a served frame. Every request frame that enters the TCP
// front end carries a RequestTrace through its lifetime: the
// connection stamps each boundary once, in steady-clock nanoseconds
// (read, decoded, admitted, exec start, exec end, flushed), and the
// session adds the time spent encoding plus the frame's verb, release,
// outcome and batch tallies. Every view derives from the record through
// SpanNanos(): STATS and the per-verb/per-release series when the
// worker finishes the frame, and, once the last response byte reaches
// the socket, the per-span histograms, a fixed-capacity ring (every
// request), a keep-slowest reservoir (the worst offenders survive ring
// wrap) and optionally a structured access log. The /tracez page
// renders the ring.
//
// Concurrency contract (this is what the TSan matrix holds us to):
//   * one trace is only ever written by one thread at a time — the
//     network thread stamps read/decoded/admitted/flushed, the pool
//     worker exec start/end and the session fields, and the hand-offs
//     ride the connection's existing slot mutex, so the struct itself
//     needs no atomics;
//   * TraceRing::Record is called concurrently from every poller
//     thread. Slots are claimed by an atomic ticket and the payload
//     copy is guarded by a per-slot mutex (traces carry strings, so a
//     lock-free seqlock over the payload would be bytes-racy under
//     TSan; the ticket keeps claiming lock-free, the per-slot lock is
//     only contended when the ring wraps onto an in-progress reader);
//   * readers (the /tracez handler) snapshot newest-first under the
//     same per-slot locks and use the stored ticket to discard slots
//     that were overwritten mid-walk.
//
// TraceContext is the forward-looking seam: it is the minimal identity
// a future sharding coordinator must propagate across the wire so one
// user request can be stitched together from per-shard traces.

#ifndef DPCUBE_COMMON_TRACE_H_
#define DPCUBE_COMMON_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace dpcube {
namespace trace {

/// The boundaries a request frame crosses, in order. Each is stamped
/// once, in steady-clock nanoseconds; a frame that skips one (a shed
/// frame never executes) leaves it 0.
enum class Stamp : std::uint8_t {
  kRead = 0,   ///< The socket read pass that completed the frame began.
  kDecoded,    ///< Frame decoded off the byte stream.
  kAdmitted,   ///< Admission decided.
  kExecStart,  ///< A pool worker began the frame.
  kExecEnd,    ///< The worker finished it (responses encoded).
  kFlushed,    ///< Last response byte accepted by the kernel.
};
inline constexpr int kNumStamps = 6;

/// The span timeline of one request frame, in pipeline order. The six
/// spans partition the frame from kRead to kFlushed.
enum class Span : std::uint8_t {
  kDecode = 0,  ///< Read pass start to frame decoded.
  kAdmit,       ///< Decoded to admission decided.
  kQueue,       ///< Admission decided to exec start.
  kCompute,     ///< Exec start to exec end, less the encode span.
  kEncode,      ///< Response encoding under the negotiated codec.
  kFlush,       ///< Exec end to last byte written.
};
inline constexpr int kNumSpans = 6;

/// Bounds of the per-frame tallies, which the serving layer indexes by
/// its verb and error-code enums (service::RequestKind, ErrorCode).
inline constexpr int kMaxVerbs = 10;
inline constexpr int kMaxErrorCodes = 6;

/// Steady-clock now in nanoseconds; the unit of every Stamp.
std::int64_t NowNanos();

/// Stable lowercase span label ("decode", ..., "flush") — the
/// Prometheus `span` label and the /tracez column names.
const char* SpanName(Span span);

/// The identity a request trace carries across component (and, later,
/// shard) boundaries. Deliberately tiny and trivially serialisable: a
/// sharding coordinator would forward exactly this to the owning shards
/// so per-shard traces can be joined into one timeline.
struct TraceContext {
  std::uint64_t trace_id = 0;       ///< Process-unique, never 0 once set.
  std::uint64_t connection_id = 0;  ///< Originating connection.
};

/// One request frame's timing record and identity.
struct RequestTrace {
  TraceContext context;

  std::string verb;     ///< First verb of the frame ("query", "batch");
                        ///< empty for frames shed before parsing.
  std::string release;  ///< First release touched; empty if none.
  std::string codec;    ///< Response codec at completion ("text", ...).
  std::string outcome;  ///< "Ok" or the first error code's name.

  std::uint64_t request_bytes = 0;   ///< Decoded frame payload bytes.
  std::uint64_t response_bytes = 0;  ///< Encoded response payload bytes.

  std::array<std::int64_t, kNumStamps> stamps{};  ///< By Stamp; 0 = skipped.
  std::uint64_t encode_nanos = 0;  ///< Encoding time inside the exec span.

  std::array<std::uint32_t, kMaxVerbs> verb_lines{};    ///< Lines, by verb.
  std::array<std::uint32_t, kMaxErrorCodes> errors{};  ///< Error responses.
  /// Queries answered per release, in first-touch order. NotFound
  /// answers are left out, so names off the wire mint no series.
  std::vector<std::pair<std::string, std::uint32_t>> release_queries;

  std::uint32_t batch_queries = 0;  ///< Sub-queries (batch frames).
  std::uint64_t batch_max_group_micros = 0;  ///< Slowest batch group.

  // The published view (/tracez, the access log, the reservoir order),
  // filled by Seal once the frame has flushed.
  std::array<std::uint64_t, kNumSpans> span_micros{};
  std::uint64_t total_micros = 0;  ///< kRead to kFlushed; sums span_micros.
  bool slow = false;  ///< total_micros crossed --slow-query-ms.

  /// Stamps `stamp` at `nanos` (default: now).
  void Mark(Stamp stamp, std::int64_t nanos = NowNanos()) {
    stamps[static_cast<std::size_t>(stamp)] = nanos;
  }

  /// The six spans in nanoseconds. A skipped stamp reads as the
  /// boundary before it and no boundary precedes its predecessor, so
  /// the spans are never negative and sum to kFlushed - kRead (kRead
  /// must be stamped). Every view of the frame derives from this.
  std::array<std::uint64_t, kNumSpans> SpanNanos() const;

  /// Fills span_micros, total_micros and slow (total_micros at or above
  /// `slow_micros` > 0). Each span is the difference of its rounded-down
  /// boundaries, so the integer spans sum exactly to total_micros.
  void Seal(std::uint64_t slow_micros);

  std::uint64_t span(Span s) const {
    return span_micros[static_cast<std::size_t>(s)];
  }
  void set_span(Span s, std::uint64_t micros) {
    span_micros[static_cast<std::size_t>(s)] = micros;
  }
};

/// Process-unique trace id (monotonic, starts at 1; never returns 0 so
/// "0" can mean "untraced" everywhere).
std::uint64_t NextTraceId();

/// Fixed-capacity ring of completed traces plus a keep-slowest
/// reservoir. Thread-safe; see the header comment for the contract.
class TraceRing {
 public:
  /// `capacity` slots of recent traces (>= 1) and `slowest_capacity`
  /// reservoir entries (0 disables the reservoir).
  explicit TraceRing(std::size_t capacity, std::size_t slowest_capacity = 16);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one completed trace (any thread).
  void Record(const RequestTrace& trace);

  /// Newest-first snapshot of up to `max` recent traces. Slots
  /// overwritten while the walk runs are skipped, so the result is
  /// always a set of internally-consistent traces (possibly fewer than
  /// the ring holds under heavy concurrent writes).
  std::vector<RequestTrace> Recent(std::size_t max) const;

  /// Slowest-first snapshot of the keep-slowest reservoir.
  std::vector<RequestTrace> Slowest() const;

  std::size_t capacity() const { return slots_.size(); }
  std::size_t slowest_capacity() const { return slowest_capacity_; }
  /// Traces ever recorded (monotonic).
  std::uint64_t recorded_total() const {
    return next_ticket_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    mutable sync::Mutex mu;
    std::uint64_t ticket GUARDED_BY(mu) = 0;  ///< 1-based ticket held.
    RequestTrace trace GUARDED_BY(mu);
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_ticket_{0};

  // Keep-slowest reservoir: a relaxed threshold read rejects the common
  // fast request without touching the mutex; candidates at or above the
  // current minimum take the lock and re-check.
  const std::size_t slowest_capacity_;
  std::atomic<std::uint64_t> slow_threshold_{0};
  mutable sync::Mutex slow_mu_;
  /// Sorted slowest-first.
  std::vector<RequestTrace> slowest_ GUARDED_BY(slow_mu_);
};

}  // namespace trace
}  // namespace dpcube

#endif  // DPCUBE_COMMON_TRACE_H_
