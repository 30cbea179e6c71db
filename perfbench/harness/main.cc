// dpcube benchmark harness.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR --pollers P --pool T --clients C
//                     --pipeline-threads T [--small] [--commit ID]
//
// Prints a human summary, one "record {...}" line (host and run facts),
// and as its last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. perfbench/run.py builds this binary and runs it.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"

#ifndef PERFBENCH_LIB_NDEBUG
#error "PERFBENCH_LIB_NDEBUG must come from perfbench/CMakeLists.txt"
#endif
#ifndef PERFBENCH_LIB_BUILD_TYPE
#error "PERFBENCH_LIB_BUILD_TYPE must come from perfbench/CMakeLists.txt"
#endif

namespace perfbench {

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py --self-test checks it).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"ops_per_s", "1/s"},   {"p50_ms", "ms"},
    {"tail_ms", "ms"},    {"rel_error", "ratio"}, {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"data.csv_read_s", "s"},
    {"data.counts_s", "s"},
    {"strategy.construct_s", "s"},
    {"budget.solve_s", "s"},
    {"dp.measure_s", "s"},
    {"recovery.consistency_s", "s"},
    {"engine.csv_write_s", "s"},
    {"engine.cells_released", "count"},
    {"service.load_fit_s", "s"},
    {"service.cold_query_us", "us"},
    {"net.rtt_us", "us"},
    {"net.rtt_all_us", "us"},
    {"net.self_us", "us"},
    {"net.shed", "count"},
    {"net.span.decode_us", "us"},
    {"net.span.admit_us", "us"},
    {"net.span.queue_us", "us"},
    {"net.span.compute_us", "us"},
    {"net.span.encode_us", "us"},
    {"net.span.flush_us", "us"},
    {"service.session_self_us", "us"},
    {"service.response_bytes", "bytes"},
    {"service.answer_us", "us"},
    {"service.answer_p50_us", "us"},
    {"service.answer_p99_us", "us"},
    {"service.range_answer_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.batch_us", "us"},
    {"service.batch_groups", "count"},
    {"service.durable_apply_us", "us"},
    {"service.wal_fsyncs_per_charge", "ratio"},
    {"service.replay_records", "count"},
    {"service.restart_s", "s"},
    {"common.pool_queue_depth_max", "count"},
    {"loadgen.fixed.sent", "count"},
    {"loadgen.fixed.ok", "count"},
    {"loadgen.fixed.failed", "count"},
    {"loadgen.saturation.sent", "count"},
    {"loadgen.saturation.ok", "count"},
    {"loadgen.saturation.failed", "count"},
    {"loadgen.ladder.sent", "count"},
    {"loadgen.ladder.ok", "count"},
    {"loadgen.ladder.failed", "count"},
    {"loadgen.lag_ms", "ms"},
    {"loadgen.slo_qps", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Median latency of a 4 KiB write + fdatasync in `dir`: the fsync cost
// every durable charge pays, recorded so hosts can be told apart.
double FsyncProbeUs(const std::string& dir) {
  const std::string path = dir + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return -1.0;
  std::vector<char> block(4096, 'x');
  std::vector<double> us;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point t = Clock::now();
    if (::pwrite(fd, block.data(), block.size(),
                 static_cast<off_t>(i) * 4096) < 0 ||
        ::fdatasync(fd) != 0) {
      ::close(fd);
      return -1.0;
    }
    us.push_back(MicrosBetween(t, Clock::now()));
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Percentile(us, 50);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string commit = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--pollers") {
      config.pollers = std::atoi(value().c_str());
    } else if (arg == "--pool") {
      config.pool_threads = std::atoi(value().c_str());
    } else if (arg == "--clients") {
      config.clients = std::atoi(value().c_str());
    } else if (arg == "--pipeline-threads") {
      config.pipeline_threads = std::atoi(value().c_str());
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--small") {
      config.small = true;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  if (config.seconds <= 0 || config.pollers < 1 || config.pool_threads < 1 ||
      config.clients < 1 || config.pipeline_threads < 1) {
    return Usage(
        "--seconds, --pollers, --pool, --clients and --pipeline-threads "
        "are required and must be positive");
  }
  config.traced = trace == 1;

  // Build-config guard: this binary must agree with libdpcube on NDEBUG
  // (sync::Mutex changes layout with it) and be an optimized build.
#ifdef NDEBUG
  const int harness_ndebug = 1;
#else
  const int harness_ndebug = 0;
#endif
  const std::string build_type = PERFBENCH_LIB_BUILD_TYPE;
  if (harness_ndebug != PERFBENCH_LIB_NDEBUG) {
    std::fprintf(stderr,
                 "refusing to run: harness NDEBUG=%d but libdpcube was "
                 "built with NDEBUG=%d\n",
                 harness_ndebug, PERFBENCH_LIB_NDEBUG);
    return 3;
  }
  if (build_type != "Release" || !harness_ndebug) {
    std::fprintf(stderr,
                 "refusing to run: libdpcube build type '%s' (need an "
                 "optimized Release build with NDEBUG)\n",
                 build_type.c_str());
    return 3;
  }

  ::mkdir(config.work_dir.c_str(), 0755);
  const dpcube::Status pool_status =
      dpcube::ThreadPool::SetSharedParallelism(config.pipeline_threads);
  if (!pool_status.ok()) return Usage("cannot size the shared pool");

  WorkloadResult result;
  if (config.workload == "release") {
    result = RunReleaseWorkload(config);
  } else if (config.workload == "serve_hot" ||
             config.workload == "serve_derive" ||
             config.workload == "serve_ledger") {
    result = RunServeWorkload(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  // Every metric of the requested set prints; a per-layer metric the
  // workload does not exercise reads 0.
  MetricSink out;
  if (config.traced) {
    for (const MetricDef& def : kPerLayer) {
      double v = 0.0;
      for (const auto& got : result.metrics.all()) {
        if (got.name == def.name) v = got.value;
      }
      out.Set(def.name, v, def.unit);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      bool found = false;
      for (const auto& got : result.metrics.all()) {
        if (got.name == def.name) {
          out.Set(def.name, got.value, def.unit);
          found = true;
        }
      }
      if (!found) result.tally.Fail(std::string("metric missing: ") + def.name);
    }
  }
  Tally& tally = result.tally;
  if (tally.attempted == 0) tally.attempted = 1;
  const bool correct = tally.failed == 0;

  // Human summary.
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace);
  for (const auto& metric : out.all()) {
    std::printf("  %-34s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& metric : result.summary.all()) {
    std::printf("  %-34s %14.6g %s (summary)\n", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  std::printf("  %-34s %14.6g ratio (summary)\n", "error_rate",
              static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted));
  for (const auto& e : tally.first_errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }

  // Run record: results whose host records differ are never compared.
  std::string record = "{";
  auto field = [&record](const std::string& key, const std::string& value) {
    if (record.size() > 1) record += ", ";
    record += JsonString(key) + ": " + value;
  };
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("cpu_model", JsonString(CpuModel()));
  field("build_type", JsonString(build_type));
  field("ndebug", std::to_string(harness_ndebug));
  field("commit", JsonString(commit));
  field("pollers", std::to_string(config.pollers));
  field("pool_threads", std::to_string(config.pool_threads));
  field("client_threads", std::to_string(config.clients));
  field("pipeline_threads", std::to_string(config.pipeline_threads));
  field("fsync_probe_us", JsonNumber(FsyncProbeUs(config.work_dir)));
  for (const auto& [key, value] : result.record) field(key, JsonString(value));
  std::printf("record %s}\n", record.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : out.all()) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(metric.name) + ": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": " +
            JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
