// The serving side of the harness: an in-process dpcube server with
// explicitly sized pollers and pool, a seeded request generator, an
// open-/closed-loop load generator over net::Client, the offline answer
// reference every served answer is checked against, and the frame
// replay that splits a round trip into network, session and answer
// time.

#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/socket_listener.h"
#include "service/batch_executor.h"
#include "service/durable_state.h"
#include "service/marginal_cache.h"
#include "service/query_service.h"
#include "service/release_store.h"
#include "service/serve_protocol.h"

namespace perfbench {

/// The query-answering collaborators one in-process server runs on.
struct ServingCore {
  ServingCore(int pool_threads, std::size_t cache_cells);

  std::unique_ptr<dpcube::ThreadPool> pool;
  std::shared_ptr<dpcube::service::ReleaseStore> store;
  std::shared_ptr<dpcube::service::MarginalCache> cache;
  std::shared_ptr<const dpcube::service::QueryService> service;
  std::shared_ptr<const dpcube::service::BatchExecutor> executor;
};

/// One SocketListener on an ephemeral loopback port plus its serve
/// thread. `traced` switches the server's request tracing on (trace
/// ring, span histograms).
class Listener {
 public:
  Listener() = default;
  ~Listener() { Stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  dpcube::Status Start(const ServingCore& core, int pollers, bool traced,
                       std::uint64_t lifetime_quota,
                       std::shared_ptr<dpcube::service::DurableState> durable);
  void Stop();

  const std::string& address() const { return address_; }
  const dpcube::net::SocketListener& listener() const { return *listener_; }

 private:
  std::unique_ptr<dpcube::net::SocketListener> listener_;
  std::thread thread_;
  std::string address_;
};

/// A value read out of a Prometheus exposition (0 when absent).
double Scrape(const std::string& exposition, const std::string& series);

enum class Kind : std::uint8_t { kCell, kMarginal, kRange, kBatch };

/// One request frame, as generated from the seed.
struct GenRequest {
  Kind kind = Kind::kCell;
  bool binary = false;  ///< Sent on the connection that negotiated binary.
  std::vector<dpcube::service::Query> queries;
  std::string wire;  ///< Request text (no trailing newline).
};

/// Builds the wire text for `queries` (a "batch N" frame when `batch`).
std::string WireText(const std::vector<dpcube::service::Query>& queries,
                     bool batch);

/// Draws the next request from the workload's mix.
using RequestSource = std::function<GenRequest(dpcube::Rng&)>;

enum class Outcome : std::uint8_t { kOk, kError, kBusy, kTransport, kShape };

struct Sample {
  float at_s = 0;        ///< Scheduled send, seconds into the phase.
  float latency_us = 0;  ///< Done - scheduled send (open loop) or - send.
  float rtt_us = 0;      ///< Done - actual send.
  float lag_us = 0;      ///< Actual send - scheduled send.
  std::uint32_t bytes = 0;
  std::uint16_t queries = 0;  ///< Queries the frame carried.
  Outcome outcome = Outcome::kOk;
  std::uint64_t fingerprint = 0;
  std::uint64_t hit_bits = 0;  ///< Per-query cache-hit flags (<= 64).
};

/// One client thread's samples, in send order. The requests themselves
/// are not kept: RequestStream regenerates them from the seed.
struct ThreadLog {
  std::vector<Sample> samples;
};

struct PhaseSpec {
  std::string name;
  double rate = 0.0;  ///< Requests/s over all clients; 0 = closed loop.
  double seconds = 1.0;
  std::uint64_t stream = 0;  ///< Distinguishes the phase's request streams.
};

struct PhaseResult {
  std::vector<ThreadLog> threads;
  std::uint64_t base = 0;  ///< Seed of the phase's request streams.
  double seconds = 0.0;
  double elapsed = 0.0;
  bool connect_failed = false;

  std::size_t sent() const;
  std::size_t ok() const;
  std::uint64_t ok_queries() const;
  std::vector<double> Latencies() const;
};

/// Thread `t`'s request stream of a phase: the same seed yields the same
/// requests, so checks and replays regenerate rather than store them.
class RequestStream {
 public:
  RequestStream(const PhaseResult& phase, int t, const RequestSource& source)
      : rng_(dpcube::Rng::Stream(phase.base, 2 * static_cast<std::uint64_t>(t))),
        source_(source) {}
  GenRequest Next() { return source_(rng_); }

 private:
  dpcube::Rng rng_;
  const RequestSource& source_;
};

/// Runs one phase with `clients` threads, each with one text and one
/// binary connection to `address`. Request content comes from
/// Rng::Stream(seed, ...) and, in an open loop, arrival times from an
/// independent stream, so the same seed gives the same request stream.
PhaseResult RunPhase(const std::string& address, int clients,
                     const PhaseSpec& spec, const RequestSource& source,
                     std::uint64_t seed);

/// Offline answers: every marginal derived straight from the fitted
/// DerivedCube (bypassing QueryService and its cache) plus the exact
/// range variance. Not thread-safe.
class Reference {
 public:
  explicit Reference(
      std::shared_ptr<const dpcube::service::StoredRelease> release)
      : release_(std::move(release)) {}

  /// Derived table and cell variance for `beta` (memoised).
  std::shared_ptr<const dpcube::service::CachedMarginal> Entry(
      dpcube::bits::Mask beta);

  /// Fingerprint the response to `request` must have under its codec.
  std::uint64_t Expected(const GenRequest& request);

  const std::shared_ptr<const dpcube::service::StoredRelease>& release()
      const {
    return release_;
  }

 private:
  std::shared_ptr<const dpcube::service::StoredRelease> release_;
  std::unordered_map<dpcube::bits::Mask,
                     std::shared_ptr<const dpcube::service::CachedMarginal>>
      memo_;
};

/// Parses one response frame into outcome, fingerprint and hit flags.
/// `records` is the number of answers the frame must carry.
Sample ParseResponse(const std::string& payload, bool binary,
                     std::size_t records);

/// Checks every answered sample against `reference`; each mismatch or
/// error is a failure in `tally`. Returns the number checked.
std::size_t VerifyPhase(const PhaseResult& phase, const RequestSource& source,
                        Reference* reference, Tally* tally);

/// Per-frame time split, from replaying sampled frames through a
/// harness-owned ServeSession and QueryService over the same stored
/// release, with the cache primed to the hit/miss pattern the server
/// reported for that frame.
struct ReplayStats {
  std::vector<double> rtt_us;      ///< Client round trip of the frame.
  std::vector<double> session_us;  ///< ServeSession::ProcessStream.
  std::vector<double> answer_us;   ///< Answer (or ExecuteBatch) alone.
  std::vector<double> single_answer_us;  ///< Non-batch frames only.
  std::vector<double> range_answer_us;
  std::vector<double> batch_us;
  std::vector<double> batch_groups;
  std::vector<double> durable_apply_us;  ///< Quota charges via the gate.
};

class Replayer {
 public:
  Replayer(Reference* reference, dpcube::ThreadPool* pool);

  /// Charges every replayed query to `durable`, as the server's quota
  /// gate does, timing each DurableState::Apply.
  void SetQuotaGate(std::shared_ptr<dpcube::service::DurableState> durable);

  /// Replays `request` with the given hit pattern; appends to `stats`.
  void Replay(const GenRequest& request, const Sample& sample,
              ReplayStats* stats);

 private:
  void Prime(const GenRequest& request, std::uint64_t hit_bits);

  Reference* reference_;
  ReplayStats* active_ = nullptr;  ///< Set while a Replay runs.
  std::shared_ptr<dpcube::service::ReleaseStore> store_;
  std::shared_ptr<dpcube::service::MarginalCache> cache_;
  std::shared_ptr<const dpcube::service::QueryService> service_;
  std::unique_ptr<dpcube::service::BatchExecutor> executor_;
  std::unique_ptr<dpcube::service::ServeSession> text_session_;
  std::unique_ptr<dpcube::service::ServeSession> binary_session_;
};

/// Replays up to `max_frames` frames of `phase`, spread evenly.
void ReplayPhase(const PhaseResult& phase, const RequestSource& source,
                 Replayer* replayer, std::size_t max_frames,
                 ReplayStats* stats);

/// Writes the server's own span time per frame (dpcube_span_microseconds
/// sums, the deltas between paired /metrics renders `before[i]` and
/// `after[i]`, over the `frames` the server answered in between) into
/// `sink` as net.span.*_us. A biased view: the server truncates each span
/// to whole microseconds, so short spans read low.
void ReportSpans(const std::vector<std::string>& before,
                 const std::vector<std::string>& after, double frames,
                 MetricSink* sink);

/// Writes the replay split into `sink` (per-layer metric names). The
/// sampled round trip splits into service.answer_us +
/// service.session_self_us + `queue_us` (the server's pool queue wait
/// per frame, net.span.queue_us) + net.self_us, the residual: the
/// network path, pollers and connection handling, plus whatever CPU
/// contention the loaded server adds over the idle replay.
void ReportReplay(const ReplayStats& stats, double queue_us,
                  MetricSink* sink);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
