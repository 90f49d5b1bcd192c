// The benchmark's three workloads. Each builds its own deployment (4
// nodes, 4 shards, k-safety 2, a cache that holds all of its data) over
// a metered simulated object store, drives it from outside through the
// program's public functions, checks every output, and reports metrics.

#ifndef EON_PERFBENCH_WORKLOADS_H_
#define EON_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the span file of a traced run.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;
  /// Workload facts (rows, containers, bytes, cache capacity).
  std::vector<Metric> facts;

  void Fail(const std::string& why);
};

RunOutcome RunTpchWarm(const RunConfig& config);
RunOutcome RunColdScan(const RunConfig& config);
RunOutcome RunTrickleIngest(const RunConfig& config);

}  // namespace perfbench

#endif  // EON_PERFBENCH_WORKLOADS_H_
