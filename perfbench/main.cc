// End-to-end benchmark driver: one workload per invocation.
//
//   eon_perfbench --workload <tpch_warm|cold_scan|trickle_ingest>
//                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   eon_perfbench --selftest
//   eon_perfbench --calibrate --seconds <s>
//
// Prints progress lines, a `host:` line, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 the per-layer set.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "columnar/kernels.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

namespace {

/// The program reads EON_* variables as overrides of its defaults; the
/// benchmark measures the defaults, so none may reach it.
void ClearEonEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (strncmp(*e, "EON_", 4) == 0) {
      const char* eq = strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? strlen(*e) : eq - *e);
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// A fixed memory-bound loop (sum of a 64 MiB array, repeated for
/// `seconds`): its per-run median shows how much the host alone moves a
/// run, the yardstick the benchmark's bounds are read against.
int Calibrate(int seconds) {
  std::vector<uint64_t> data(8u << 20);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i * 2654435761u;
  std::vector<double> ms;
  uint64_t sink = 0;
  const int64_t deadline = perfbench::NowMicros() + seconds * 1000000LL;
  while (perfbench::NowMicros() < deadline) {
    const int64_t t0 = perfbench::NowMicros();
    uint64_t sum = 0;
    for (uint64_t v : data) sum += v;
    sink += sum;
    ms.push_back((perfbench::NowMicros() - t0) / 1000.0);
  }
  std::sort(ms.begin(), ms.end());
  printf("calibrate: %zu passes, checksum %llu\n", ms.size(),
         static_cast<unsigned long long>(sink));
  printf("{\"correct\": true, \"attempted\": %zu, \"failed\": 0, "
         "\"metrics\": {\"loop_median_ms\": {\"value\": %.17g, "
         "\"unit\": \"ms\"}}}\n",
         ms.size(), ms[ms.size() / 2]);
  return 0;
}

int Usage() {
  fprintf(stderr,
          "usage: eon_perfbench --workload <tpch_warm|cold_scan|"
          "trickle_ingest> --seed <n> --seconds <s> --trace <0|1> "
          "[--out <dir>]\n       eon_perfbench --selftest\n"
          "       eon_perfbench --calibrate --seconds <s>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  (void)perfbench::NowMicros();  // Set-up time counts from here.
  ClearEonEnvironment();

  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return perfbench::RunCheckSelfTest() ? 0 : 1;
    }
    if (arg == "--calibrate") {
      config.workload = "calibrate";
      have_workload = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = atoi(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--out") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || config.seconds < 1) return Usage();
  if (config.workload == "calibrate") return Calibrate(config.seconds);

  perfbench::RunOutcome outcome;
  if (config.workload == "tpch_warm") {
    outcome = perfbench::RunTpchWarm(config);
  } else if (config.workload == "cold_scan") {
    outcome = perfbench::RunColdScan(config);
  } else if (config.workload == "trickle_ingest") {
    outcome = perfbench::RunTrickleIngest(config);
  } else {
    return Usage();
  }

  printf("host: {\"cpus\": %u, \"kernel_isa\": %s, \"build_type\": %s, "
         "\"workload\": %s, \"seed\": %llu, \"seconds\": %d, \"trace\": %d}\n",
         std::thread::hardware_concurrency(),
         JsonString(eon::simd::IsaName(eon::simd::ActiveIsa())).c_str(),
         JsonString(EON_PERFBENCH_BUILD_TYPE).c_str(),
         JsonString(config.workload).c_str(),
         static_cast<unsigned long long>(config.seed), config.seconds,
         config.trace ? 1 : 0);
  printf("facts: %s\n", MetricsJson(outcome.facts).c_str());
  for (const std::string& e : outcome.errors) {
    printf("CHECK FAILED: %s\n", e.c_str());
  }
  if (config.trace) {
    printf("end_to_end (traced, not for comparison): %s\n",
           MetricsJson(outcome.end_to_end).c_str());
  }
  const auto& metrics = config.trace ? outcome.per_layer : outcome.end_to_end;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         outcome.correct ? "true" : "false",
         static_cast<unsigned long long>(outcome.attempted),
         static_cast<unsigned long long>(outcome.failed),
         MetricsJson(metrics).c_str());
  fflush(stdout);
  return 0;
}
