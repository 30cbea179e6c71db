// The three TCP serving workloads. Each one curates its release through
// the library at set-up, serves it from an in-process SocketListener,
// and drives it from one process of client threads in three kinds of
// phase:
//
//   fixed      open loop at the workload's fixed rate (latency metrics);
//   saturation closed loop, every client back to back (ops_per_s);
//   ladder     open loop at each rate of a fixed ladder (slo_qps).
//
// Fixed slices and saturation legs alternate over the run (see kCycles).
//
// Every answer of every phase is checked against the offline reference.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/bits.h"
#include "common/rng.h"
#include "common/wal.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "marginal/workload.h"
#include "net/client.h"
#include "pipeline.h"
#include "service/mutation.h"

namespace perfbench {

using namespace dpcube;

namespace {

constexpr char kRelease[] = "cube";
constexpr char kExtraRelease[] = "extra";
constexpr std::uint64_t kLedgerQuota = std::uint64_t{1} << 40;

// A serve run's phases, as shares of --seconds: warm-up, the fixed-rate
// slices and the saturation legs (interleaved over kCycles cycles), and
// the SLO ladder.
constexpr int kCycles = 10;
constexpr double kWarmShare = 0.05;
constexpr double kFixedShare = 0.55;
constexpr double kSaturationShare = 0.25;
constexpr double kLadderShare = 0.15;

struct ServeSpec {
  int d = 12;
  std::size_t rows = 20000;
  double p = 0.35;
  std::vector<bits::Mask> released;
  std::size_t cache_cells = std::size_t{1} << 20;
  double fixed_rate = 0.0;
  std::vector<double> ladder;
  double p99_limit_us = 0.0;
  bool durable = false;
  /// Masks queried before the run so every answer is a cache hit.
  std::vector<bits::Mask> warm;
};

bits::Mask RandomSubset(bits::Mask of, int weight, Rng* rng) {
  std::vector<int> bits_of;
  for (int b = 0; b < 64; ++b) {
    if ((of >> b) & 1) bits_of.push_back(b);
  }
  for (int i = 0; i < weight; ++i) {
    const std::size_t j =
        i + rng->NextBounded(bits_of.size() - static_cast<std::size_t>(i));
    std::swap(bits_of[static_cast<std::size_t>(i)], bits_of[j]);
  }
  bits::Mask out = 0;
  for (int i = 0; i < weight; ++i) out |= bits::Mask{1} << bits_of[i];
  return out;
}

service::Query Cell(bits::Mask beta, Rng* rng) {
  service::Query q{kRelease, service::QueryKind::kCell, beta, 0, 0};
  q.cell_lo = rng->NextBounded(std::uint64_t{1} << bits::Popcount(beta));
  return q;
}

service::Query Range(bits::Mask beta, std::size_t max_len, Rng* rng) {
  const std::size_t cells = std::size_t{1} << bits::Popcount(beta);
  const std::size_t len =
      1 + rng->NextBounded(std::min<std::size_t>(max_len, cells));
  service::Query q{kRelease, service::QueryKind::kRange, beta, 0, 0};
  q.cell_lo = rng->NextBounded(cells - len + 1);
  q.cell_hi = q.cell_lo + len - 1;
  return q;
}

GenRequest Single(service::Query q, bool binary) {
  GenRequest r;
  r.kind = q.kind == service::QueryKind::kCell     ? Kind::kCell
           : q.kind == service::QueryKind::kRange  ? Kind::kRange
                                                   : Kind::kMarginal;
  r.binary = binary;
  r.queries.push_back(std::move(q));
  r.wire = WireText(r.queries, false);
  return r;
}

GenRequest Batch(std::vector<service::Query> queries, bool binary) {
  GenRequest r;
  r.kind = Kind::kBatch;
  r.binary = binary;
  r.queries = std::move(queries);
  r.wire = WireText(r.queries, true);
  return r;
}

// serve_hot / serve_ledger: the d-dim k-way cube; every derivable mask
// (weight <= k) is warmed, so the whole working set sits in the cache.
RequestSource HotSource(const std::vector<bits::Mask>& masks) {
  return [masks](Rng& rng) {
    const double u = rng.NextDouble();
    auto pick = [&] { return masks[rng.NextBounded(masks.size())]; };
    if (u < 0.82) return Single(Cell(pick(), &rng), false);
    if (u < 0.90) {
      return Single({kRelease, service::QueryKind::kMarginal, pick(), 0, 0},
                    true);
    }
    if (u < 0.93) return Single(Range(pick(), 8, &rng), false);
    std::vector<service::Query> batch;
    for (int i = 0; i < 8; ++i) batch.push_back(Cell(pick(), &rng));
    return Batch(std::move(batch), rng.NextBernoulli(0.5));
  };
}

RequestSource LedgerSource(const std::vector<bits::Mask>& masks) {
  return [masks](Rng& rng) {
    const bits::Mask beta = masks[rng.NextBounded(masks.size())];
    if (rng.NextDouble() < 0.9) return Single(Cell(beta, &rng), false);
    return Single({kRelease, service::QueryKind::kMarginal, beta, 0, 0}, true);
  };
}

// serve_derive: Zipf(1.1)-ranked masks of weight 8-12 under the released
// 12-way marginals. The cache holds a small fraction of the working set.
RequestSource DeriveSource(std::vector<bits::Mask> ranked) {
  std::vector<double> cdf(ranked.size());
  double total = 0.0;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return [ranked, cdf](Rng& rng) {
    auto zipf = [&] {
      const double u = rng.NextDouble();
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      return ranked[std::min(i, ranked.size() - 1)];
    };
    const double u = rng.NextDouble();
    if (u < 0.50) {
      const bits::Mask beta = zipf();
      const bool binary = bits::Popcount(beta) >= 10 || rng.NextBernoulli(0.5);
      return Single({kRelease, service::QueryKind::kMarginal, beta, 0, 0},
                    binary);
    }
    if (u < 0.75) return Single(Cell(zipf(), &rng), false);
    if (u < 0.90) return Single(Range(zipf(), 64, &rng), false);
    // A batch of misses: uniform over the whole mask set, so the
    // Zipf-warm head rarely covers it.
    std::vector<service::Query> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(Cell(ranked[rng.NextBounded(ranked.size())], &rng));
    }
    return Batch(std::move(batch), true);
  };
}

struct Built {
  ServeSpec spec;
  RequestSource source;
};

Built BuildSpec(const RunConfig& config) {
  Built b;
  ServeSpec& s = b.spec;
  Rng rng = Rng::Stream(config.seed, 101);
  if (config.workload == "serve_derive") {
    s.d = 18;
    s.rows = config.small ? 8000 : 40000;
    s.p = 0.3;
    const int released = config.small ? 2 : 4;
    for (int i = 0; i < released; ++i) {
      s.released.push_back(RandomSubset(bits::FullMask(s.d), 12, &rng));
    }
    // The weight of the mask at Zipf rank r is the same for every seed,
    // so the seed moves which bits are asked for but not how much
    // derivation work the mix costs. Four 12-way marginals have only 4
    // distinct subsets of weight 12 and 48 of weight 11, so those ranks
    // are sparse: 12 at r mod 150 = 149, 11 at r mod 50 = 49, else
    // 8 + r mod 3. The 600 masks hold ~12x the cache's cells.
    std::vector<bits::Mask> candidates;
    const std::size_t want = config.small ? 150 : 600;
    for (std::size_t i = 0; candidates.size() < want && i < 20 * want; ++i) {
      const std::size_t r = candidates.size();
      const int weight = r % 150 == 149  ? 12
                         : r % 50 == 49 ? 11
                                        : 8 + static_cast<int>(r % 3);
      const bits::Mask of = s.released[rng.NextBounded(s.released.size())];
      const bits::Mask m = RandomSubset(of, weight, &rng);
      if (std::find(candidates.begin(), candidates.end(), m) ==
          candidates.end()) {
        candidates.push_back(m);
      }
    }
    s.cache_cells = std::size_t{1} << 15;
    // Latency here is queueing behind derives that cost over 1000x a
    // cached answer, so the tail follows the host's speed more than the
    // p50 does. The fixed rate sits near an eighth of saturation: at a
    // quarter of saturation the p90 of ten runs spread by a third of its
    // median.
    s.fixed_rate = 600;
    s.ladder = {600, 1200, 1800, 2400, 3000, 3600};
    s.p99_limit_us = 20000;
    b.source = DeriveSource(std::move(candidates));
    return b;
  }
  s.d = 12;
  s.rows = config.small ? 5000 : 20000;
  const int k = config.small ? 3 : 4;
  s.released = bits::MasksOfWeight(s.d, k);
  for (const bits::Mask m : bits::MasksOfWeightAtMost(s.d, k)) {
    if (m != 0) s.warm.push_back(m);
  }
  if (config.workload == "serve_ledger") {
    s.durable = true;
    s.fixed_rate = 2000;
    s.ladder = {1000, 2000, 3000, 4000, 6000, 8000};
    s.p99_limit_us = 3000;
    b.source = LedgerSource(s.warm);
  } else {
    s.fixed_rate = 6000;
    s.ladder = {4000, 8000, 12000, 16000, 24000, 32000};
    s.p99_limit_us = 1000;
    b.source = HotSource(s.warm);
  }
  return b;
}

// Samples the pool's queue depth while a phase runs.
class DepthSampler {
 public:
  explicit DepthSampler(ThreadPool* pool)
      : thread_([this, pool] {
          while (!stop_.load()) {
            max_ = std::max(max_.load(), pool->queue_depth());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~DepthSampler() { Stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;
  std::size_t Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return max_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> max_{0};
  std::thread thread_;
};

// One set-up: data -> curated release -> server with the release loaded
// and (hot/ledger) warmed.
struct Deployment {
  std::unique_ptr<ServingCore> core;
  std::shared_ptr<service::DurableState> durable;
  std::unique_ptr<Listener> listener;        // Traced when the run is.
  std::unique_ptr<Listener> plain_listener;  // Untraced (traced run only).
  std::string release_csv;
  std::string state_dir;
  std::uint64_t acked_charges = 0;
};

struct SetupStats {
  StageTimes stages;
  std::vector<double> setup_s;
  std::vector<double> load_fit_s;
  std::vector<double> cold_query_us;
  std::vector<double> rel_error;  ///< One per set-up (own noise seed).
};

Status Deploy(const RunConfig& config, const ServeSpec& spec, int rep,
              Deployment* out, SetupStats* stats, Tally* tally) {
  const Clock::time_point t0 = Clock::now();
  const std::string base = config.work_dir + "/rep" + std::to_string(rep);
  ::mkdir(base.c_str(), 0755);
  const std::string data_csv = base + "/data.csv";
  Rng data_rng = Rng::Stream(config.seed, 202);
  const data::Dataset dataset =
      data::MakeProductBernoulli(spec.d, spec.p, spec.rows, &data_rng);
  DPCUBE_RETURN_NOT_OK(data::WriteCsv(dataset, data_csv));
  out->release_csv = base + "/release.csv";
  const marginal::Workload workload(spec.d, spec.released);
  DPCUBE_ASSIGN_OR_RETURN(
      CuratedRelease curated,
      Curate(dataset.schema(), data_csv, workload, "Q+", 1.0,
             Rng::Stream(config.seed, 500 + static_cast<std::uint64_t>(rep))
                 .NextUint64(),
             out->release_csv, &stats->stages));
  stats->rel_error.push_back(RelativeError(workload, curated));

  out->core = std::make_unique<ServingCore>(config.pool_threads,
                                            spec.cache_cells);
  Clock::time_point t = Clock::now();
  if (spec.durable) {
    out->state_dir = base + "/state";
    service::DurableOptions options;
    options.dir = out->state_dir;
    options.lifetime_quota = kLedgerQuota;
    DPCUBE_ASSIGN_OR_RETURN(out->durable,
                            service::DurableState::Open(options,
                                                        out->core->store,
                                                        out->core->service));
    DPCUBE_RETURN_NOT_OK(out->durable->Apply(
        service::Mutation::LoadRelease(kRelease, out->release_csv)));
  } else {
    DPCUBE_RETURN_NOT_OK(
        out->core->store->LoadFromFile(kRelease, out->release_csv));
  }
  stats->load_fit_s.push_back(SecondsSince(t));
  DPCUBE_ASSIGN_OR_RETURN(auto stored, out->core->store->Get(kRelease));
  ++tally->attempted;
  if (!SameBits(stored->marginals(), curated.marginals)) {
    tally->Fail("release CSV did not round-trip bit-equal");
  }

  const std::uint64_t quota = spec.durable ? kLedgerQuota : 0;
  out->listener = std::make_unique<Listener>();
  DPCUBE_RETURN_NOT_OK(out->listener->Start(*out->core, config.pollers,
                                            config.traced, quota,
                                            out->durable));
  if (config.traced) {
    out->plain_listener = std::make_unique<Listener>();
    DPCUBE_RETURN_NOT_OK(out->plain_listener->Start(
        *out->core, config.pollers, false, quota, out->durable));
  }

  // First cold query, over TCP.
  DPCUBE_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect(out->listener->address()));
  Rng query_rng = Rng::Stream(config.seed, 303);
  const GenRequest cold = Single(Cell(spec.released.front(), &query_rng), false);
  std::string payload;
  t = Clock::now();
  DPCUBE_RETURN_NOT_OK(client.Call(cold.wire, &payload));
  stats->cold_query_us.push_back(MicrosBetween(t, Clock::now()));
  Reference reference(stored);
  ++tally->attempted;
  if (ParseResponse(payload, false, 1).fingerprint !=
      reference.Expected(cold)) {
    tally->Fail("cold query answer differs from offline Derive");
  } else if (spec.durable) {
    ++out->acked_charges;
  }

  for (const bits::Mask m : spec.warm) {
    (void)out->core->service->Answer(
        {kRelease, service::QueryKind::kMarginal, m, 0, 0});
  }
  stats->setup_s.push_back(SecondsSince(t0));
  return Status::OK();
}

double P99LagUs(const PhaseResult& phase) {
  std::vector<double> lag;
  for (const ThreadLog& log : phase.threads) {
    for (const Sample& s : log.samples) lag.push_back(s.lag_us);
  }
  return Percentile(lag, 99);
}

// How late the generator was over the last quarter of a phase: a
// backlog that keeps growing shows up as a large lag at the end.
double EndLagUs(const PhaseResult& phase) {
  std::vector<double> lag;
  for (const ThreadLog& log : phase.threads) {
    const std::size_t n = log.samples.size();
    for (std::size_t i = n - n / 4; i < n; ++i) {
      lag.push_back(log.samples[i].lag_us);
    }
  }
  return Percentile(lag, 90);
}

void PhaseCounts(const std::string& name, const PhaseResult& phase,
                 MetricSink* sink) {
  const double sent = static_cast<double>(phase.sent());
  const double ok = static_cast<double>(phase.ok());
  sink->Set("loadgen." + name + ".sent", sent, "count");
  sink->Set("loadgen." + name + ".ok", ok, "count");
  sink->Set("loadgen." + name + ".failed", sent - ok, "count");
}

std::size_t Shed(const PhaseResult& phase) {
  std::size_t n = 0;
  for (const ThreadLog& log : phase.threads) {
    for (const Sample& s : log.samples) n += s.outcome == Outcome::kBusy;
  }
  return n;
}

// Toggles a second release on a fixed schedule through the durable
// state machine: a logged mutation, a cube fit, and a cache invalidation
// beside the read traffic.
class MutationDriver {
 public:
  MutationDriver(std::shared_ptr<service::DurableState> durable,
                 std::string csv, double period_s)
      : thread_([this, durable, csv, period_s] {
          bool loaded = false;
          while (!stop_.load()) {
            const Clock::time_point t = Clock::now();
            const Status st =
                loaded ? durable->Apply(
                             service::Mutation::UnloadRelease(kExtraRelease))
                       : durable->Apply(service::Mutation::LoadRelease(
                             kExtraRelease, csv));
            apply_ms_.push_back(MicrosBetween(t, Clock::now()) / 1000.0);
            if (st.ok()) {
              loaded = !loaded;
            } else {
              ++failures_;
            }
            const auto wake = t + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(period_s));
            while (!stop_.load() && Clock::now() < wake) {
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
          }
          if (loaded &&
              !durable->Apply(service::Mutation::UnloadRelease(kExtraRelease))
                   .ok()) {
            ++failures_;
          }
        }) {}
  ~MutationDriver() { Stop(); }
  MutationDriver(const MutationDriver&) = delete;
  MutationDriver& operator=(const MutationDriver&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  int failures() const { return failures_; }
  const std::vector<double>& apply_ms() const { return apply_ms_; }

 private:
  std::atomic<bool> stop_{false};
  int failures_ = 0;
  std::vector<double> apply_ms_;
  std::thread thread_;
};

}  // namespace

WorkloadResult RunServeWorkload(const RunConfig& config) {
  WorkloadResult result;
  Tally& tally = result.tally;
  const Built built = BuildSpec(config);
  const ServeSpec& spec = built.spec;

  // Set-up runs kSetupReps times (setup_s is the median); the last
  // deployment is the one measured.
  SetupStats setup;
  std::unique_ptr<Deployment> deployed;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    deployed = std::make_unique<Deployment>();
    const Status st = Deploy(config, spec, rep, deployed.get(), &setup, &tally);
    if (!st.ok()) {
      tally.Fail("set-up failed: " + st.ToString());
      return result;
    }
  }
  Deployment& dep = *deployed;
  auto stored = dep.core->store->Get(kRelease);
  if (!stored.ok()) {
    tally.Fail("served release missing");
    return result;
  }
  Reference reference(stored.value());

  std::unique_ptr<MutationDriver> mutations;
  if (spec.durable) {
    mutations = std::make_unique<MutationDriver>(dep.durable, dep.release_csv,
                                                 config.small ? 0.1 : 0.25);
  }

  const double S = config.seconds;
  MetricSink& m = result.metrics;
  std::uint64_t seed = config.seed;

  // Warm-up at the fixed rate, checked but not timed: the connections,
  // the pool and (serve_derive) the cache reach their steady state.
  const PhaseResult warm =
      RunPhase(dep.listener->address(), config.clients,
               {"warm", spec.fixed_rate, kWarmShare * S, 2}, built.source,
               seed);
  VerifyPhase(warm, built.source, &reference, &tally);
  dep.acked_charges += warm.ok_queries();
  // Peak RSS through set-up and warm-up, whose sample count is fixed by
  // the schedule (the later phases' samples grow with throughput).
  const double peak_rss_mb = PeakRssMb();

  // Fixed-rate slices and closed-loop saturation legs, interleaved in
  // kCycles cycles, so both halves sample the whole run: a slow spell of
  // the host that covers less than half the run moves neither median.
  // The traced run alternates legs between an untraced and a traced
  // listener over the same core, so their ratio is the tracing overhead.
  std::vector<PhaseResult> fixed(kCycles);
  service::CacheStats cache_delta;
  std::vector<std::string> scrapes_before, scrapes_after;
  std::size_t depth_max = 0;
  std::vector<double> leg_ops[2];
  PhaseResult saturation_all;
  for (int c = 0; c < kCycles; ++c) {
    const service::CacheStats cache_before = dep.core->cache->stats();
    if (config.traced) {
      scrapes_before.push_back(
          dep.listener->listener().registry().RenderPrometheus());
    }
    std::unique_ptr<DepthSampler> sampler;
    if (config.traced) {
      sampler = std::make_unique<DepthSampler>(dep.core->pool.get());
    }
    fixed[c] = RunPhase(dep.listener->address(), config.clients,
                        {"fixed", spec.fixed_rate, kFixedShare * S / kCycles,
                         100 + static_cast<std::uint64_t>(c)},
                        built.source, seed);
    if (sampler) depth_max = std::max(depth_max, sampler->Stop());
    const service::CacheStats cache_after = dep.core->cache->stats();
    cache_delta.hits += cache_after.hits - cache_before.hits;
    cache_delta.misses += cache_after.misses - cache_before.misses;
    cache_delta.evictions += cache_after.evictions - cache_before.evictions;
    if (config.traced) {
      scrapes_after.push_back(
          dep.listener->listener().registry().RenderPrometheus());
    }
    VerifyPhase(fixed[c], built.source, &reference, &tally);
    dep.acked_charges += fixed[c].ok_queries();

    const int traced_leg = config.traced ? ((c + 1) / 2) % 2 : 0;
    const Listener& target =
        config.traced && !traced_leg ? *dep.plain_listener : *dep.listener;
    PhaseResult part = RunPhase(target.address(), config.clients,
                                {"saturation", 0.0, kSaturationShare * S / kCycles,
                                 10 + static_cast<std::uint64_t>(c)},
                                built.source, seed);
    VerifyPhase(part, built.source, &reference, &tally);
    dep.acked_charges += part.ok_queries();
    leg_ops[traced_leg].push_back(static_cast<double>(part.sent()) /
                                  part.elapsed);
    if (config.traced) {
      for (auto& t : part.threads) saturation_all.threads.push_back(std::move(t));
    }
  }
  const double ops_per_s = Percentile(leg_ops[config.traced ? 1 : 0], 50);
  const double overhead =
      config.traced ? Percentile(leg_ops[0], 50) / ops_per_s : 1.0;

  // The SLO ladder.
  double slo_qps = 0.0;
  PhaseResult ladder_all;
  const double step_s =
      kLadderShare * S / static_cast<double>(spec.ladder.size());
  bool passing = true;
  for (std::size_t i = 0; i < spec.ladder.size(); ++i) {
    PhaseResult step =
        RunPhase(dep.listener->address(), config.clients,
                 {"ladder", spec.ladder[i], step_s, 20 + i}, built.source, seed);
    const std::uint64_t failed_before = tally.failed;
    VerifyPhase(step, built.source, &reference, &tally);
    dep.acked_charges += step.ok_queries();
    const bool meets = tally.failed == failed_before &&
                       Percentile(step.Latencies(), 99) <= spec.p99_limit_us &&
                       EndLagUs(step) <= spec.p99_limit_us;
    if (passing && meets) slo_qps = spec.ladder[i];
    passing = passing && meets;
    for (auto& t : step.threads) ladder_all.threads.push_back(std::move(t));
  }

  if (mutations) {
    mutations->Stop();
    if (mutations->failures() > 0) tally.Fail("durable load/unload failed");
  }

  // Per-frame split (traced run only), replayed while the server idles.
  ReplayStats replay;
  if (config.traced) {
    Replayer replayer(&reference, dep.core->pool.get());
    if (dep.durable) replayer.SetQuotaGate(dep.durable);
    for (const PhaseResult& slice : fixed) {
      ReplayPhase(slice, built.source, &replayer,
                  (config.small ? 300 : 3000) / kCycles, &replay);
    }
    dep.acked_charges += replay.durable_apply_us.size();
  }

  dep.listener->Stop();
  if (dep.plain_listener) dep.plain_listener->Stop();

  // Restart: the ledger must cover every acknowledged charge, before and
  // after reopening the state dir.
  double restart_s = 0.0;
  double replay_records = 0.0;
  if (dep.durable) {
    auto ledger_of = [](const service::DurableState& state) {
      for (const auto& row : state.QuotaLedger()) {
        if (row.first == kRelease) return row.second;
      }
      return std::uint64_t{0};
    };
    ++tally.attempted;
    if (ledger_of(*dep.durable) < dep.acked_charges) {
      tally.Fail("quota ledger below acknowledged charges before restart");
    }
    dep.durable.reset();
    dep.listener.reset();
    dep.plain_listener.reset();
    dep.core.reset();
    auto core = std::make_unique<ServingCore>(config.pool_threads,
                                              spec.cache_cells);
    service::DurableOptions options;
    options.dir = dep.state_dir;
    options.lifetime_quota = kLedgerQuota;
    const Clock::time_point t = Clock::now();
    auto reopened =
        service::DurableState::Open(options, core->store, core->service);
    restart_s = SecondsSince(t);
    ++tally.attempted;
    if (!reopened.ok()) {
      tally.Fail("reopen failed: " + reopened.status().ToString());
    } else {
      replay_records =
          static_cast<double>(reopened.value()->replay_summary().records);
      if (ledger_of(*reopened.value()) < dep.acked_charges) {
        tally.Fail("quota ledger below acknowledged charges after restart");
      }
    }
  }

  // Latency of the fixed-rate slices, from each request's scheduled send,
  // as the median over slices of each slice's percentile.
  auto slice_median = [&fixed](double p) {
    std::vector<double> per_slice;
    for (const PhaseResult& slice : fixed) {
      per_slice.push_back(Percentile(slice.Latencies(), p));
    }
    return Percentile(per_slice, 50);
  };
  const double p50_us = slice_median(50);
  const double tail_us = slice_median(kTailPercentile);
  const double p99_us = slice_median(99);
  PhaseResult fixed_all;  // Every slice's samples, for accounting.
  for (const PhaseResult& slice : fixed) {
    for (const ThreadLog& t : slice.threads) fixed_all.threads.push_back(t);
  }

  if (!config.traced) {
    m.Set("setup_s", Percentile(setup.setup_s, 50), "s");
    m.Set("ops_per_s", ops_per_s, "1/s");
    m.Set("p50_ms", p50_us / 1000.0, "ms");
    m.Set("tail_ms", tail_us / 1000.0, "ms");
    m.Set("rel_error", Mean(setup.rel_error), "ratio");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const double reps = static_cast<double>(kSetupReps);
    const StageTimes& st = setup.stages;
    m.Set("data.csv_read_s", st.csv_read / reps, "s");
    m.Set("data.counts_s", st.counts / reps, "s");
    m.Set("strategy.construct_s", st.construct / reps, "s");
    m.Set("budget.solve_s", st.budget / reps, "s");
    m.Set("dp.measure_s", st.measure / reps, "s");
    m.Set("recovery.consistency_s", st.consistency / reps, "s");
    m.Set("engine.csv_write_s", st.csv_write / reps, "s");
    m.Set("engine.cells_released", st.cells_released / reps, "count");
    m.Set("service.load_fit_s", Mean(setup.load_fit_s), "s");
    m.Set("service.cold_query_us", Mean(setup.cold_query_us), "us");
    ReportSpans(scrapes_before, scrapes_after,
                static_cast<double>(fixed_all.sent()), &m);
    ReportReplay(replay, m.Value("net.span.queue_us"), &m);
    m.Set("net.rtt_all_us",
          Mean([&] {
            std::vector<double> rtt;
            for (const auto& log : fixed_all.threads) {
              for (const auto& s : log.samples) rtt.push_back(s.rtt_us);
            }
            return rtt;
          }()),
          "us");
    m.Set("net.shed",
          static_cast<double>(Shed(fixed_all) + Shed(saturation_all) +
                              Shed(ladder_all)),
          "count");
    double bytes = 0.0;
    for (const auto& log : fixed_all.threads) {
      for (const auto& s : log.samples) bytes += s.bytes;
    }
    m.Set("service.response_bytes",
          fixed_all.sent() > 0
              ? bytes / static_cast<double>(fixed_all.sent())
              : 0.0,
          "bytes");
    const double hits = static_cast<double>(cache_delta.hits);
    const double misses = static_cast<double>(cache_delta.misses);
    m.Set("service.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    m.Set("service.cache_evictions",
          static_cast<double>(cache_delta.evictions), "count");
    if (spec.durable) {
      const std::string fsyncs = "dpcube_wal_fsync_latency_microseconds_count";
      const double charges = static_cast<double>(fixed_all.ok_queries());
      double flushes = 0.0;
      for (std::size_t c = 0; c < scrapes_after.size(); ++c) {
        flushes += Scrape(scrapes_after[c], fsyncs) -
                   Scrape(scrapes_before[c], fsyncs);
      }
      m.Set("service.wal_fsyncs_per_charge",
            charges > 0 ? flushes / charges : 0.0, "ratio");
      m.Set("service.replay_records", replay_records, "count");
      m.Set("service.restart_s", restart_s, "s");
    }
    m.Set("common.pool_queue_depth_max", static_cast<double>(depth_max),
          "count");
    PhaseCounts("fixed", fixed_all, &m);
    PhaseCounts("saturation", saturation_all, &m);
    PhaseCounts("ladder", ladder_all, &m);
    m.Set("loadgen.lag_ms", P99LagUs(fixed_all) / 1000.0, "ms");
    m.Set("loadgen.slo_qps", slo_qps, "1/s");
    m.Set("trace.overhead_ratio", overhead, "ratio");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", overhead);
    result.record.push_back({"tracing_overhead_untraced_over_traced_ops", buf});
  }

  MetricSink& sum = result.summary;
  sum.Set("query_p50_us", p50_us, "us");
  sum.Set("query_p99_us", p99_us, "us");
  sum.Set("slo_qps", slo_qps, "1/s");
  if (spec.durable) sum.Set("restart_s", restart_s, "s");
  if (mutations && !mutations->apply_ms().empty()) {
    sum.Set("durable_load_unload_ms", Mean(mutations->apply_ms()), "ms");
  }

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", kTailPercentile);
  result.record.push_back({"tail_percentile", buf});
  result.record.push_back({"cycles", std::to_string(kCycles)});
  std::string slice_p50;
  for (const PhaseResult& slice : fixed) {
    std::snprintf(buf, sizeof(buf), "%s%.1f", slice_p50.empty() ? "" : " ",
                  Percentile(slice.Latencies(), 50));
    slice_p50 += buf;
  }
  result.record.push_back({"slice_p50_us", slice_p50});
  std::string setups;
  for (const double v : setup.setup_s) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", setups.empty() ? "" : " ", v);
    setups += buf;
  }
  result.record.push_back({"setup_s_each", setups});
  std::snprintf(buf, sizeof(buf), "%.0f", spec.fixed_rate);
  result.record.push_back({"fixed_rate_qps", buf});
  std::string ladder;
  for (const double r : spec.ladder) {
    std::snprintf(buf, sizeof(buf), "%s%.0f", ladder.empty() ? "" : " ", r);
    ladder += buf;
  }
  result.record.push_back({"ladder_qps", ladder});
  std::snprintf(buf, sizeof(buf), "%.0f", spec.p99_limit_us);
  result.record.push_back({"p99_limit_us", buf});
  std::snprintf(buf, sizeof(buf), "%zu", spec.cache_cells);
  result.record.push_back({"cache_cells", buf});
  return result;
}

}  // namespace perfbench
