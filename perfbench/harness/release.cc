// The release workload: one op is one full curator release of an
// Adult-like table under workload Q3 — CSV read, counts, strategy
// construction, budgets, measurement, consistency, release CSV write,
// ReleaseStore load + fit, and the first (cold) query over TCP. Rounds
// run F+, Q+ and C+ once each in a seeded order, so each phase leads in
// one method: measure in F+, consistency in Q+, construction in C+.

#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "marginal/workload.h"
#include "net/client.h"
#include "pipeline.h"

namespace perfbench {

using namespace dpcube;

namespace {

struct Server {
  std::unique_ptr<ServingCore> core;
  std::unique_ptr<Listener> listeners[2];  // [0] untraced, [1] traced.
  std::unique_ptr<net::Client> clients[2];
};

Status StartServer(const RunConfig& config, Server* server) {
  server->core = std::make_unique<ServingCore>(config.pool_threads,
                                               std::size_t{1} << 20);
  for (int traced = 0; traced < 2; ++traced) {
    if (traced == 1 && !config.traced) break;
    auto& listener = server->listeners[traced];
    listener = std::make_unique<Listener>();
    DPCUBE_RETURN_NOT_OK(listener->Start(*server->core, config.pollers,
                                         traced == 1, 0, nullptr));
    DPCUBE_ASSIGN_OR_RETURN(net::Client client,
                            net::Client::Connect(listener->address()));
    server->clients[traced] = std::make_unique<net::Client>(std::move(client));
  }
  return Status::OK();
}

// Per-op measurements of the release workload.
struct OpLog {
  StageTimes stages;
  std::vector<double> op_s;
  /// Mean op time of each round (one op per method), so the median is
  /// taken over a unimodal sample rather than across three methods.
  std::vector<double> round_op_s;
  std::vector<double> op_s_by_trace[2];
  std::vector<double> load_fit_s;
  std::vector<double> cold_us;
  std::vector<double> cold_bytes;
  std::vector<double> round0_errors;
  ReplayStats replay;
};

class ReleaseOps {
 public:
  ReleaseOps(const RunConfig& config, std::string data_csv, Tally* tally)
      : config_(config),
        data_csv_(std::move(data_csv)),
        schema_(data::AdultSchema()),
        workload_(marginal::WorkloadQk(schema_, 3)),
        tally_(tally) {}

  // One F+ release, checked but not logged: first-touch allocation, the
  // pool's threads and the page cache, before anything is timed.
  void WarmUp(Server& server) { Op(server, -1, 0, 0, nullptr); }

  // One round: F+, Q+ and C+ once each, in a seeded order.
  void Round(Server& server, int round, OpLog* log) {
    Rng order_rng = Rng::Stream(config_.seed,
                                400 + static_cast<std::uint64_t>(round + 1));
    int order[3] = {0, 1, 2};
    for (int i = 2; i > 0; --i) {
      std::swap(order[i], order[order_rng.NextBounded(
                              static_cast<std::uint64_t>(i) + 1)]);
    }
    // The traced run alternates rounds between the untraced and the
    // traced listener; the op-time ratio is the tracing overhead.
    const int via = config_.traced ? (round + 2) % 2 : 0;
    const std::size_t before = log->op_s.size();
    for (const int mi : order) Op(server, round, mi, via, log);
    if (log->op_s.size() == before + 3) {
      log->round_op_s.push_back(
          (log->op_s[before] + log->op_s[before + 1] + log->op_s[before + 2]) /
          3.0);
    }
  }

 private:
  void Op(Server& server, int round, int mi, int via, OpLog* log) {
    static const char* const kMethods[3] = {"F+", "Q+", "C+"};
    const std::string name = "r" + std::to_string(round + 1) + "m" +
                             std::to_string(mi);
    const std::string path = config_.work_dir + "/" + name + ".csv";
    const std::uint64_t noise_seed =
        Rng::Stream(config_.seed,
                    1000 + 3 * static_cast<std::uint64_t>(round + 1) +
                        static_cast<std::uint64_t>(mi))
            .NextUint64();
    Rng query_rng = Rng::Stream(noise_seed, 7);
    ++tally_->attempted;

    StageTimes stages;
    const Clock::time_point t_op = Clock::now();
    auto curated = Curate(schema_, data_csv_, workload_, kMethods[mi], 1.0,
                          noise_seed, path, &stages);
    if (!curated.ok()) {
      tally_->Fail(std::string(kMethods[mi]) + " release failed: " +
                   curated.status().ToString());
      return;
    }
    Clock::time_point t = Clock::now();
    const Status loaded = server.core->store->LoadFromFile(name, path);
    const double load_fit_s = SecondsSince(t);
    GenRequest cold;
    const bits::Mask beta =
        workload_.mask(query_rng.NextBounded(workload_.num_marginals()));
    cold.queries.push_back(
        {name, service::QueryKind::kCell, beta,
         query_rng.NextBounded(std::uint64_t{1} << bits::Popcount(beta)), 0});
    cold.wire = WireText(cold.queries, false);
    std::string payload;
    t = Clock::now();
    const Status called =
        loaded.ok() ? server.clients[via]->Call(cold.wire, &payload) : loaded;
    const Clock::time_point done = Clock::now();
    const double cold_us = MicrosBetween(t, done);
    const double wall = std::chrono::duration<double>(done - t_op).count();

    // Checks, untimed: the CSV round-trips bit-equal and the cold answer
    // equals the offline derivation.
    auto stored = server.core->store->Get(name);
    Sample sample;
    if (!called.ok() || !stored.ok()) {
      tally_->Fail(name + ": load or cold query failed");
    } else if (!SameBits(stored.value()->marginals(),
                         curated.value().marginals)) {
      tally_->Fail(name + ": release CSV did not round-trip bit-equal");
    } else {
      Reference reference(stored.value());
      sample = ParseResponse(payload, false, 1);
      if (sample.outcome != Outcome::kOk ||
          sample.fingerprint != reference.Expected(cold)) {
        tally_->Fail(name + ": cold answer differs from offline Derive");
      } else if (config_.traced && log != nullptr) {
        sample.rtt_us = static_cast<float>(cold_us);
        Replayer replayer(&reference, server.core->pool.get());
        replayer.Replay(cold, sample, &log->replay);
      }
    }
    if (log != nullptr) {
      log->stages.csv_read += stages.csv_read;
      log->stages.counts += stages.counts;
      log->stages.construct += stages.construct;
      log->stages.budget += stages.budget;
      log->stages.measure += stages.measure;
      log->stages.consistency += stages.consistency;
      log->stages.csv_write += stages.csv_write;
      log->stages.cells_released += stages.cells_released;
      log->op_s.push_back(wall);
      log->op_s_by_trace[via].push_back(wall);
      log->load_fit_s.push_back(load_fit_s);
      log->cold_us.push_back(cold_us);
      log->cold_bytes.push_back(static_cast<double>(payload.size()));
      if (round == 0) {
        log->round0_errors.push_back(RelativeError(workload_, curated.value()));
      }
    }
    (void)server.core->service->RemoveRelease(name);
    ::unlink(path.c_str());
  }

  const RunConfig& config_;
  const std::string data_csv_;
  const data::Schema schema_;
  const marginal::Workload workload_;
  Tally* tally_;
};

// Releases per second over each of `groups` runs of consecutive rounds,
// checks included (the throughput a curator sees, unlike p50_ms's
// release time alone); the median group, so a slow spell of the host
// that covers less than half the run does not move it.
double MedianGroupRate(const std::vector<double>& round_wall_s, int groups) {
  const std::size_t n = round_wall_s.size();
  const std::size_t g = static_cast<std::size_t>(groups);
  std::vector<double> rates;
  for (std::size_t i = 0; i < g; ++i) {
    double wall = 0.0;
    for (std::size_t r = n * i / g; r < n * (i + 1) / g; ++r) {
      wall += round_wall_s[r];
    }
    const std::size_t rounds = n * (i + 1) / g - n * i / g;
    if (rounds > 0 && wall > 0.0) {
      rates.push_back(3.0 * static_cast<double>(rounds) / wall);
    }
  }
  return Percentile(rates, 50);
}

constexpr int kRateGroups = 7;

}  // namespace

WorkloadResult RunReleaseWorkload(const RunConfig& config) {
  WorkloadResult result;
  Tally& tally = result.tally;
  const std::size_t rows = config.small ? 1500 : 5000;
  const std::string data_csv = config.work_dir + "/adult.csv";
  ReleaseOps ops_runner(config, data_csv, &tally);

  // Set-up: the Adult-like table on disk, a running server, and one
  // warm-up release.
  std::vector<double> setup_s;
  std::unique_ptr<Server> started;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    started = std::make_unique<Server>();
    const Clock::time_point t0 = Clock::now();
    Rng data_rng = Rng::Stream(config.seed, 202);
    Status st = data::WriteCsv(data::MakeAdultLike(rows, &data_rng), data_csv);
    if (st.ok()) st = StartServer(config, started.get());
    if (!st.ok()) {
      tally.Fail("set-up failed: " + st.ToString());
      return result;
    }
    ops_runner.WarmUp(*started);
    setup_s.push_back(SecondsSince(t0));
  }
  Server& server = *started;

  const int min_rounds = config.small ? 2 : 14;
  OpLog log;
  const service::CacheStats cache_before = server.core->cache->stats();
  const std::string scrape_before =
      config.traced ? server.listeners[1]->listener().registry().RenderPrometheus()
                    : std::string();
  std::vector<double> round_wall_s;  // Each round, checks included.
  const Clock::time_point run_start = Clock::now();
  for (int round = 0;
       round < min_rounds || SecondsSince(run_start) < config.seconds;
       ++round) {
    const Clock::time_point t = Clock::now();
    ops_runner.Round(server, round, &log);
    round_wall_s.push_back(SecondsSince(t));
  }
  const StageTimes& stages = log.stages;
  const std::vector<double>& op_s = log.op_s;
  const std::vector<double>& load_fit_s = log.load_fit_s;
  const std::vector<double>& cold_us = log.cold_us;
  const std::vector<double>& round0_errors = log.round0_errors;
  const std::vector<double>* op_s_by_trace = log.op_s_by_trace;
  ReplayStats& replay = log.replay;

  const double ops = static_cast<double>(op_s.size());
  MetricSink& m = result.metrics;
  if (!config.traced) {
    m.Set("setup_s", Percentile(setup_s, 50), "s");
    m.Set("ops_per_s", MedianGroupRate(round_wall_s, kRateGroups), "1/s");
    m.Set("p50_ms", Percentile(log.round_op_s, 50) * 1000.0, "ms");
    m.Set("tail_ms", Percentile(op_s, kTailPercentile) * 1000.0, "ms");
    m.Set("rel_error", Mean(round0_errors), "ratio");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double n = ops > 0 ? ops : 1.0;
    m.Set("data.csv_read_s", stages.csv_read / n, "s");
    m.Set("data.counts_s", stages.counts / n, "s");
    m.Set("strategy.construct_s", stages.construct / n, "s");
    m.Set("budget.solve_s", stages.budget / n, "s");
    m.Set("dp.measure_s", stages.measure / n, "s");
    m.Set("recovery.consistency_s", stages.consistency / n, "s");
    m.Set("engine.csv_write_s", stages.csv_write / n, "s");
    m.Set("engine.cells_released", stages.cells_released / n, "count");
    m.Set("service.load_fit_s", Mean(load_fit_s), "s");
    m.Set("service.cold_query_us", Mean(cold_us), "us");
    // The traced listener answered the cold queries of every other round.
    ReportSpans(
        {scrape_before},
        {server.listeners[1]->listener().registry().RenderPrometheus()},
        static_cast<double>(op_s_by_trace[1].size()), &m);
    ReportReplay(replay, m.Value("net.span.queue_us"), &m);
    m.Set("net.rtt_all_us", Mean(cold_us), "us");
    m.Set("service.response_bytes", Mean(log.cold_bytes), "bytes");
    const service::CacheStats cache_after = server.core->cache->stats();
    const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    m.Set("service.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    const double overhead =
        Mean(op_s_by_trace[1]) / std::max(Mean(op_s_by_trace[0]), 1e-12);
    m.Set("trace.overhead_ratio", overhead, "ratio");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", overhead);
    result.record.push_back({"tracing_overhead_untraced_over_traced_ops", buf});
  }
  result.summary.Set("release_p50_s", Percentile(log.round_op_s, 50), "s");
  result.summary.Set("release_tail_s", Percentile(op_s, kTailPercentile),
                     "s");
  result.summary.Set("query_p50_us", Percentile(cold_us, 50), "us");
  result.record.push_back(
      {"tail_percentile", std::to_string(static_cast<int>(kTailPercentile))});
  result.record.push_back({"releases", std::to_string(op_s.size())});
  result.record.push_back({"rows", std::to_string(rows)});
  return result;
}

}  // namespace perfbench
