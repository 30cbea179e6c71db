#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/bits.h"
#include "net/client.h"
#include "service/mutation.h"
#include "service/request.h"
#include "service/wire_codec.h"

namespace perfbench {

using namespace dpcube;

ServingCore::ServingCore(int pool_threads, std::size_t cache_cells)
    : pool(std::make_unique<ThreadPool>(pool_threads)),
      store(std::make_shared<service::ReleaseStore>()),
      cache(std::make_shared<service::MarginalCache>(cache_cells)),
      service(std::make_shared<const service::QueryService>(store, cache)),
      executor(std::make_shared<const service::BatchExecutor>(service,
                                                              pool.get())) {}

Status Listener::Start(const ServingCore& core, int pollers, bool traced,
                       std::uint64_t lifetime_quota,
                       std::shared_ptr<service::DurableState> durable) {
  net::ServerOptions options;
  options.listen_address = "127.0.0.1:0";
  options.trace_ring_capacity = traced ? 256 : 0;
  options.admission.max_connections = 64;
  options.admission.max_inflight = 8;
  options.admission.max_queue_depth = 4096;
  options.admission.max_queries_per_release = lifetime_quota;
  options.net_threads = pollers;
  options.drain_timeout_ms = 5000;
  net::ServeContext context(core.store, core.cache, core.service,
                            core.executor, core.pool.get());
  context.durable = std::move(durable);
  listener_ = std::make_unique<net::SocketListener>(options, context);
  DPCUBE_RETURN_NOT_OK(listener_->Start());
  thread_ = std::thread([l = listener_.get()] { (void)l->Serve().ok(); });
  address_ = "127.0.0.1:" + std::to_string(listener_->bound_port());
  return Status::OK();
}

void Listener::Stop() {
  if (!listener_) return;
  listener_->Shutdown();
  if (thread_.joinable()) thread_.join();
  listener_.reset();
}

double Scrape(const std::string& exposition, const std::string& series) {
  const std::string needle = series + " ";
  std::size_t pos = 0;
  while ((pos = exposition.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || exposition[pos - 1] == '\n') {
      return std::strtod(exposition.c_str() + pos + needle.size(), nullptr);
    }
    pos += needle.size();
  }
  return 0.0;
}

namespace {

std::string QueryText(const service::Query& q) {
  char buf[160];
  const unsigned long long mask = q.beta;
  switch (q.kind) {
    case service::QueryKind::kMarginal:
      std::snprintf(buf, sizeof(buf), "query %s marginal 0x%llx",
                    q.release.c_str(), mask);
      break;
    case service::QueryKind::kCell:
      std::snprintf(buf, sizeof(buf), "query %s cell 0x%llx %zu",
                    q.release.c_str(), mask, q.cell_lo);
      break;
    case service::QueryKind::kRange:
      std::snprintf(buf, sizeof(buf), "query %s range 0x%llx %zu %zu",
                    q.release.c_str(), mask, q.cell_lo, q.cell_hi);
      break;
  }
  return buf;
}

// The fingerprint of one answer: mask, value count, every value's bit
// pattern, and the variance as the codec carries it (exact bits under
// binary, the %.6g text under the text codec).
std::uint64_t FoldAnswer(std::uint64_t h, std::uint64_t mask,
                         const double* values, std::size_t n, double variance,
                         const char* variance_text, std::size_t text_len,
                         bool binary) {
  const std::uint64_t count = n;
  h = Fnv(h, &mask, sizeof(mask));
  h = Fnv(h, &count, sizeof(count));
  h = Fnv(h, values, n * sizeof(double));
  if (binary) return Fnv(h, &variance, sizeof(variance));
  return Fnv(h, variance_text, text_len);
}

bool StartsWith(const char* p, const char* end, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return static_cast<std::size_t>(end - p) >= n && std::memcmp(p, prefix, n) == 0;
}

// Parses one "OK query mask=0x.. var=.. hit=. n=.. values ..." line.
bool FoldTextLine(const char* p, const char* end, std::uint64_t* h,
                  bool* hit) {
  static const char kHead[] = "OK query mask=0x";
  if (!StartsWith(p, end, kHead)) return false;
  char* cursor = nullptr;
  const std::uint64_t mask = std::strtoull(p + sizeof(kHead) - 1, &cursor, 16);
  if (!StartsWith(cursor, end, " var=")) return false;
  const char* var_begin = cursor + 5;
  const char* var_end = static_cast<const char*>(
      std::memchr(var_begin, ' ', static_cast<std::size_t>(end - var_begin)));
  if (var_end == nullptr || !StartsWith(var_end, end, " hit=")) return false;
  *hit = var_end[5] == '1';
  const char* n_at = var_end + 6;
  if (!StartsWith(n_at, end, " n=")) return false;
  const std::size_t n = std::strtoull(n_at + 3, &cursor, 10);
  if (!StartsWith(cursor, end, " values")) return false;
  cursor += 7;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (cursor >= end || *cursor != ' ') return false;
    values[i] = std::strtod(cursor + 1, &cursor);
  }
  if (cursor != end) return false;
  *h = FoldAnswer(*h, mask, values.data(), n, 0.0, var_begin,
                  static_cast<std::size_t>(var_end - var_begin), false);
  return true;
}

}  // namespace

std::string WireText(const std::vector<service::Query>& queries, bool batch) {
  if (!batch) return QueryText(queries.front());
  std::string text = "batch " + std::to_string(queries.size());
  for (const auto& q : queries) text += "\n" + QueryText(q);
  return text;
}

Sample ParseResponse(const std::string& payload, bool binary,
                     std::size_t records) {
  Sample s;
  std::uint64_t h = kFnvBasis;
  std::size_t answers = 0;
  auto note_hit = [&s, &answers](bool hit) {
    if (hit && answers < 64) s.hit_bits |= std::uint64_t{1} << answers;
    ++answers;
  };
  if (binary) {
    auto decoded = service::DecodeRecordStream(payload);
    if (!decoded.ok()) {
      s.outcome = Outcome::kShape;
      return s;
    }
    for (const service::WireRecord& r : decoded.value()) {
      if (r.code == service::ErrorCode::kBusy) {
        s.outcome = Outcome::kBusy;
        return s;
      }
      if (r.code != service::ErrorCode::kOk) {
        s.outcome = Outcome::kError;
        return s;
      }
      if (!r.has_values) {
        s.outcome = Outcome::kShape;
        return s;
      }
      h = FoldAnswer(h, r.mask, r.values.data(), r.values.size(), r.variance,
                     nullptr, 0, true);
      note_hit(r.cache_hit);
    }
  } else {
    const char* p = payload.data();
    const char* const end = p + payload.size();
    while (p < end) {
      const char* eol = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (eol == nullptr) eol = end;
      if (StartsWith(p, eol, "BUSY")) {
        s.outcome = Outcome::kBusy;
        return s;
      }
      if (StartsWith(p, eol, "ERR")) {
        s.outcome = Outcome::kError;
        return s;
      }
      bool hit = false;
      if (!FoldTextLine(p, eol, &h, &hit)) {
        s.outcome = Outcome::kShape;
        return s;
      }
      note_hit(hit);
      p = eol + 1;
    }
  }
  if (answers != records) s.outcome = Outcome::kShape;
  s.fingerprint = h;
  return s;
}

std::size_t PhaseResult::sent() const {
  std::size_t n = 0;
  for (const auto& t : threads) n += t.samples.size();
  return n;
}

std::size_t PhaseResult::ok() const {
  std::size_t n = 0;
  for (const auto& t : threads) {
    for (const auto& s : t.samples) n += s.outcome == Outcome::kOk;
  }
  return n;
}

std::uint64_t PhaseResult::ok_queries() const {
  std::uint64_t n = 0;
  for (const auto& t : threads) {
    for (const auto& s : t.samples) {
      if (s.outcome == Outcome::kOk) n += s.queries;
    }
  }
  return n;
}

std::vector<double> PhaseResult::Latencies() const {
  std::vector<double> out;
  out.reserve(sent());
  for (const auto& t : threads) {
    for (const auto& s : t.samples) out.push_back(s.latency_us);
  }
  return out;
}

PhaseResult RunPhase(const std::string& address, int clients,
                     const PhaseSpec& spec, const RequestSource& source,
                     std::uint64_t seed) {
  PhaseResult result;
  result.threads.resize(static_cast<std::size_t>(clients));
  result.base = seed * 0x9E3779B97F4A7C15ULL + spec.stream;
  result.seconds = spec.seconds;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> connect_failed{false};
  Clock::time_point start;
  auto body = [&](int t) {
    // Sleep precisely: the default 50us timer slack would otherwise be
    // charged to every open-loop latency sample.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    auto text = net::Client::Connect(address);
    auto binary = net::Client::Connect(address);
    if (!text.ok() || !binary.ok() ||
        !binary.value()
             .Negotiate(service::kProtocolVersionV2, service::Codec::kBinary)
             .ok()) {
      connect_failed.store(true);
      ready.fetch_add(1);
      return;
    }
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

    ThreadLog& log = result.threads[static_cast<std::size_t>(t)];
    RequestStream requests(result, t, source);
    Rng arrivals =
        Rng::Stream(result.base, 2 * static_cast<std::uint64_t>(t) + 1);
    const bool open_loop = spec.rate > 0.0;
    const double mean_gap_us =
        open_loop ? static_cast<double>(clients) / spec.rate * 1e6 : 0.0;
    const double end_us = spec.seconds * 1e6;
    double next_us =
        open_loop ? -std::log(arrivals.NextDoubleOpen()) * mean_gap_us : 0.0;
    std::string payload;
    for (;;) {
      Clock::time_point scheduled;
      if (open_loop) {
        if (next_us >= end_us) break;
        scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::micro>(
                                    next_us));
      } else {
        scheduled = Clock::now();
        if (MicrosBetween(start, scheduled) >= end_us) break;
      }
      const GenRequest request = requests.Next();
      if (open_loop) std::this_thread::sleep_until(scheduled);
      net::Client& client = request.binary ? binary.value() : text.value();
      const Clock::time_point sent = Clock::now();
      const Status st = client.Call(request.wire, &payload);
      const Clock::time_point done = Clock::now();
      Sample sample;
      if (st.ok()) {
        sample = ParseResponse(payload, request.binary, request.queries.size());
      } else {
        sample.outcome = Outcome::kTransport;
      }
      sample.at_s = static_cast<float>(
          std::chrono::duration<double>(scheduled - start).count());
      sample.latency_us = static_cast<float>(MicrosBetween(scheduled, done));
      sample.rtt_us = static_cast<float>(MicrosBetween(sent, done));
      sample.lag_us = static_cast<float>(MicrosBetween(scheduled, sent));
      sample.bytes = static_cast<std::uint32_t>(payload.size());
      sample.queries = static_cast<std::uint16_t>(request.queries.size());
      log.samples.push_back(sample);
      if (!st.ok()) break;  // The connection is gone; the tally shows it.
      if (open_loop) {
        next_us += -std::log(arrivals.NextDoubleOpen()) * mean_gap_us;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) threads.emplace_back(body, t);
  while (ready.load() < clients) std::this_thread::yield();
  start = Clock::now() + std::chrono::milliseconds(2);
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  result.elapsed = SecondsSince(start);
  result.connect_failed = connect_failed.load();
  return result;
}

namespace {

// The exact variance of a range sum, computed as the service defines
// it: Var = 2^{d-2k} * sum_{eta <= beta} w_eta^2 Var(theta_eta) with
// w_eta = sum_c (-1)^{<gamma_c, eta>}, in the same summation order.
Result<double> RangeVariance(const recovery::DerivedCube& cube,
                             bits::Mask beta, std::size_t lo, std::size_t hi) {
  const int k = bits::Popcount(beta);
  double sum = 0.0;
  for (bits::SubmaskIterator it(beta); !it.done(); it.Next()) {
    double weight = 0.0;
    for (std::size_t c = lo; c <= hi; ++c) {
      weight += bits::FourierSign(bits::ExpandIntoMask(c, beta), it.mask());
    }
    DPCUBE_ASSIGN_OR_RETURN(const double var,
                            cube.CoefficientVariance(it.mask()));
    sum += weight * weight * var;
  }
  return std::ldexp(sum, cube.d() - 2 * k);
}

}  // namespace

std::shared_ptr<const service::CachedMarginal> Reference::Entry(
    bits::Mask beta) {
  auto it = memo_.find(beta);
  if (it != memo_.end()) return it->second;
  std::shared_ptr<const service::CachedMarginal> entry;
  auto table = release_->cube().Derive(beta);
  auto variance = release_->cube().DerivedCellVariance(beta);
  if (table.ok() && variance.ok()) {
    entry = std::make_shared<const service::CachedMarginal>(
        service::CachedMarginal{std::move(table).value(), variance.value()});
  }
  memo_.emplace(beta, entry);
  return entry;
}

std::uint64_t Reference::Expected(const GenRequest& request) {
  std::uint64_t h = kFnvBasis;
  char text[64];
  for (const service::Query& q : request.queries) {
    const auto entry = Entry(q.beta);
    if (!entry) return 0;
    const auto& table = entry->table;
    double variance = entry->cell_variance;
    std::vector<double> values;
    switch (q.kind) {
      case service::QueryKind::kMarginal:
        values = table.values();
        break;
      case service::QueryKind::kCell:
        values.push_back(table.value(q.cell_lo));
        break;
      case service::QueryKind::kRange: {
        double sum = 0.0;
        for (std::size_t c = q.cell_lo; c <= q.cell_hi; ++c) {
          sum += table.value(c);
        }
        values.push_back(sum);
        auto var = RangeVariance(release_->cube(), q.beta, q.cell_lo,
                                 q.cell_hi);
        if (!var.ok()) return 0;
        variance = var.value();
        break;
      }
    }
    const int len = std::snprintf(text, sizeof(text), "%.6g", variance);
    h = FoldAnswer(h, q.beta, values.data(), values.size(), variance, text,
                   static_cast<std::size_t>(len), request.binary);
  }
  return h;
}

std::size_t VerifyPhase(const PhaseResult& phase, const RequestSource& source,
                        Reference* reference, Tally* tally) {
  static const char* const kOutcome[] = {"ok", "ERR", "BUSY", "transport",
                                         "malformed"};
  std::size_t checked = 0;
  for (std::size_t t = 0; t < phase.threads.size(); ++t) {
    RequestStream requests(phase, static_cast<int>(t), source);
    for (const Sample& s : phase.threads[t].samples) {
      const GenRequest request = requests.Next();
      ++tally->attempted;
      if (s.outcome != Outcome::kOk) {
        tally->Fail(std::string(kOutcome[static_cast<int>(s.outcome)]) +
                    " response to '" + request.wire.substr(0, 60) + "'");
        continue;
      }
      ++checked;
      if (s.fingerprint != reference->Expected(request)) {
        tally->Fail("answer differs from offline Derive for '" +
                    request.wire.substr(0, 60) + "' (" +
                    (request.binary ? "binary" : "text") + ")");
      }
    }
  }
  if (phase.connect_failed) tally->Fail("client connect failed");
  return checked;
}

Replayer::Replayer(Reference* reference, ThreadPool* pool)
    : reference_(reference),
      store_(std::make_shared<service::ReleaseStore>()),
      cache_(std::make_shared<service::MarginalCache>(std::size_t{1} << 26)),
      service_(std::make_shared<const service::QueryService>(store_, cache_)),
      executor_(std::make_unique<service::BatchExecutor>(service_, pool)),
      text_session_(std::make_unique<service::ServeSession>(
          store_, cache_, service_, executor_.get())),
      binary_session_(std::make_unique<service::ServeSession>(
          store_, cache_, service_, executor_.get())) {
  // The same StoredRelease object the server serves: same name, same
  // epoch, same fitted cube.
  (void)store_->Insert(reference_->release()).ok();
  std::istringstream hello("HELLO v2 binary\n");
  std::ostringstream ack;
  binary_session_->ProcessStream(hello, ack);
}

void Replayer::SetQuotaGate(std::shared_ptr<service::DurableState> durable) {
  auto gate = [this, durable](const std::string& release, std::string*) {
    const Clock::time_point t = Clock::now();
    const Status st = durable->Apply(
        service::Mutation::QuotaCharge(release, 1, 0, 0));
    if (active_ != nullptr) {
      active_->durable_apply_us.push_back(MicrosBetween(t, Clock::now()));
    }
    return st.ok();
  };
  text_session_->SetQueryQuotaGate(gate);
  binary_session_->SetQueryQuotaGate(gate);
}

void Replayer::Prime(const GenRequest& request, std::uint64_t hit_bits) {
  cache_->Clear();
  const std::uint64_t epoch = reference_->release()->epoch();
  for (std::size_t i = 0; i < request.queries.size() && i < 64; ++i) {
    if ((hit_bits >> i) & 1) {
      const service::Query& q = request.queries[i];
      cache_->Put(q.release, q.beta, reference_->Entry(q.beta), epoch);
    }
  }
}

void Replayer::Replay(const GenRequest& request, const Sample& sample,
                      ReplayStats* stats) {
  // Derive the offline entries first, untimed, so priming is a copy.
  for (const auto& q : request.queries) (void)reference_->Entry(q.beta);
  active_ = stats;

  Prime(request, sample.hit_bits);
  std::istringstream in(request.wire + "\n");
  std::ostringstream out;
  service::ServeSession& session =
      request.binary ? *binary_session_ : *text_session_;
  Clock::time_point t = Clock::now();
  session.ProcessStream(in, out);
  const double session_us = MicrosBetween(t, Clock::now());

  Prime(request, sample.hit_bits);
  double answer_us = 0.0;
  if (request.kind == Kind::kBatch) {
    service::BatchTiming timing;
    t = Clock::now();
    const auto responses = executor_->ExecuteBatch(request.queries, &timing);
    answer_us = MicrosBetween(t, Clock::now());
    stats->batch_us.push_back(answer_us);
    stats->batch_groups.push_back(static_cast<double>(timing.groups.size()));
  } else {
    t = Clock::now();
    const service::QueryResponse response =
        service_->Answer(request.queries.front());
    answer_us = MicrosBetween(t, Clock::now());
    stats->single_answer_us.push_back(answer_us);
    if (request.kind == Kind::kRange) {
      stats->range_answer_us.push_back(answer_us);
    }
  }
  stats->rtt_us.push_back(sample.rtt_us);
  stats->session_us.push_back(session_us);
  stats->answer_us.push_back(answer_us);
  active_ = nullptr;
}

void ReplayPhase(const PhaseResult& phase, const RequestSource& source,
                 Replayer* replayer, std::size_t max_frames,
                 ReplayStats* stats) {
  const std::size_t stride = std::max<std::size_t>(1, phase.ok() / max_frames);
  std::size_t i = 0;
  for (std::size_t t = 0; t < phase.threads.size(); ++t) {
    RequestStream requests(phase, static_cast<int>(t), source);
    for (const Sample& s : phase.threads[t].samples) {
      const GenRequest request = requests.Next();
      if (s.outcome != Outcome::kOk) continue;
      if (i++ % stride == 0) replayer->Replay(request, s, stats);
    }
  }
}

void ReportSpans(const std::vector<std::string>& before,
                 const std::vector<std::string>& after, double frames,
                 MetricSink* sink) {
  for (const char* span :
       {"decode", "admit", "queue", "compute", "encode", "flush"}) {
    const std::string sum = std::string("dpcube_span_microseconds_sum") +
                            "{span=\"" + span + "\"}";
    double us = 0.0;
    for (std::size_t i = 0; i < after.size() && i < before.size(); ++i) {
      us += Scrape(after[i], sum) - Scrape(before[i], sum);
    }
    sink->Set(std::string("net.span.") + span + "_us",
              frames > 0 ? us / frames : 0.0, "us");
  }
}

void ReportReplay(const ReplayStats& stats, double queue_us,
                  MetricSink* sink) {
  const double rtt = Mean(stats.rtt_us);
  const double session = Mean(stats.session_us);
  const double answer = Mean(stats.answer_us);
  sink->Set("net.rtt_us", rtt, "us");
  sink->Set("net.self_us", rtt - session - queue_us, "us");
  sink->Set("service.session_self_us", session - answer, "us");
  sink->Set("service.answer_us", answer, "us");
  sink->Set("service.answer_p50_us", Percentile(stats.single_answer_us, 50),
            "us");
  sink->Set("service.answer_p99_us", Percentile(stats.single_answer_us, 99),
            "us");
  sink->Set("service.range_answer_us", Mean(stats.range_answer_us), "us");
  sink->Set("service.batch_us", Mean(stats.batch_us), "us");
  sink->Set("service.batch_groups", Mean(stats.batch_groups), "count");
  sink->Set("service.durable_apply_us", Mean(stats.durable_apply_us), "us");
}

}  // namespace perfbench
