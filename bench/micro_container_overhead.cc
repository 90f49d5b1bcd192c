// Micro-benchmark: the fixed cost per ROS container of a warm scan.
//
// `lineitem` is partitioned on l_shipdate (730 distinct days) and loaded
// in 12 COPY batches, so every batch splits into one tiny container per
// (shard, day): about 10k containers of a few rows each. That layout —
// the one the end-to-end benchmark's warm TPC-H workload scans — is kept
// as is on purpose: the bench measures the cost of many containers, it
// does not hide it behind coarser partitions. One Q1-style warm
// scan+aggregate runs at pool widths 1 and 4 with zero modeled store
// latency, so the measurement is executor CPU.
//
// Reported per width (median of kRepeats queries):
//   - us_per_container: scan-phase wall micros / containers scanned (the
//     end-to-end benchmark's engine.us_per_container), and query wall /
//     containers scanned;
//   - rows_per_sec_per_core: rows scanned / summed task CPU seconds;
//   - morsels_per_query: executor tasks the scan ran;
//   - measured wall and modeled SimClock micros, apart — the modeled time
//     is an input of the store model, not a result.
// Emits BENCH_container_overhead.json in the working directory.
//
//   ./micro_container_overhead

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/dml.h"
#include "engine/executor.h"

namespace eon {
namespace {

constexpr int kWidths[] = {1, 4};
constexpr int kRepeats = 9;
constexpr double kScale = 2.0;    // ~40k lineitem rows.
constexpr int kLoadBatches = 12;  // Each batch: one container per (shard, day).

struct Sample {
  int64_t wall_micros = 0;
  int64_t sim_micros = 0;
  int64_t scan_wall_micros = 0;
  int64_t task_cpu_micros = 0;
  uint64_t containers = 0;
  uint64_t morsels = 0;
  uint64_t rows = 0;
};

std::unique_ptr<bench::EonFixture> MakeFixture(int width,
                                               const TpchData& data) {
  auto f = std::make_unique<bench::EonFixture>();
  SimStoreOptions sopts;
  sopts.get_latency_micros = 0;
  sopts.put_latency_micros = 0;
  sopts.list_latency_micros = 0;
  f->store = std::make_unique<SimObjectStore>(sopts, &f->clock);

  ClusterOptions copts;
  copts.num_shards = 4;
  copts.k_safety = 2;
  copts.exec_threads = width;
  copts.node.cache.capacity_bytes = 1ULL << 30;  // Everything stays warm.
  std::vector<NodeSpec> specs;
  for (int i = 1; i <= 4; ++i) {
    specs.push_back(NodeSpec{"node" + std::to_string(i), ""});
  }
  auto cluster = EonCluster::Create(f->store.get(), &f->clock, copts, specs);
  if (!cluster.ok()) {
    fprintf(stderr, "cluster create failed: %s\n",
            cluster.status().ToString().c_str());
    return nullptr;
  }
  f->cluster = std::move(cluster).value();
  if (!CreateTpchTables(f->cluster.get()).ok()) return nullptr;

  CopyOptions opts;
  opts.rows_per_block = 512;
  const std::vector<Row>& rows = data.lineitems;
  const size_t per = (rows.size() + kLoadBatches - 1) / kLoadBatches;
  for (size_t begin = 0; begin < rows.size(); begin += per) {
    const size_t end = std::min(begin + per, rows.size());
    std::vector<Row> batch(rows.begin() + begin, rows.begin() + end);
    if (!CopyInto(f->cluster.get(), "lineitem", batch, opts).ok()) {
      fprintf(stderr, "load failed\n");
      return nullptr;
    }
  }
  return f;
}

QuerySpec ScanAggregateQuery(const TpchOptions& topts) {
  const Schema li = TpchLineitemSchema();
  QuerySpec q;
  q.scan.table = "lineitem";
  q.scan.columns = {"l_shipmode"};
  q.scan.predicate = Predicate::And(
      Predicate::Cmp(*li.IndexOf("l_shipdate"), CmpOp::kLe,
                     Value::Int(topts.last_day - 10)),
      Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kLe, Value::Int(45)));
  q.group_by = {"l_shipmode"};
  q.aggregates = {{AggFn::kCount, "", "n"},
                  {AggFn::kSum, "l_extendedprice", "revenue"},
                  {AggFn::kMin, "l_extendedprice", "lo"},
                  {AggFn::kMax, "l_extendedprice", "hi"}};
  return q;
}

template <typename T>
T Median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace
}  // namespace eon

int main() {
  using namespace eon;

  TpchOptions topts;
  topts.scale = kScale;
  const TpchData data = GenerateTpch(topts);
  const QuerySpec query = ScanAggregateQuery(topts);

  printf("# Fixed cost per container: warm scan+aggregate over a "
         "day-partitioned lineitem\n");
  printf("# %zu lineitem rows, %d load batches, host has %u CPU(s)\n",
         data.lineitems.size(), kLoadBatches,
         std::thread::hardware_concurrency());
  printf("%8s %11s %9s %10s %12s %12s %14s %10s\n", "threads", "containers",
         "morsels", "wall_ms", "us/container", "scan_us/ctr",
         "rows/s/core", "sim_us");

  JsonValue arr = JsonValue::Array();
  for (int width : kWidths) {
    auto f = MakeFixture(width, data);
    if (f == nullptr) return 1;
    auto ctx = BuildExecContext(f->cluster.get(), "", /*variation_seed=*/1);
    if (!ctx.ok()) return 1;
    (void)ExecuteQuery(f->cluster.get(), query, *ctx);  // Warm caches.

    std::vector<Sample> samples;
    for (int r = 0; r < kRepeats; ++r) {
      Sample s;
      const int64_t sim0 = f->clock.NowMicros();
      const int64_t wall0 = bench::WallMicros();
      auto result = ExecuteQuery(f->cluster.get(), query, *ctx);
      s.wall_micros = bench::WallMicros() - wall0;
      s.sim_micros = f->clock.NowMicros() - sim0;
      if (!result.ok()) {
        fprintf(stderr, "query failed: %s\n",
                result.status().ToString().c_str());
        return 1;
      }
      const obs::QueryProfile& p = result->profile;
      s.scan_wall_micros = p.Phase(obs::QueryPhase::kScan).wall_micros;
      s.task_cpu_micros = p.exec_task_cpu_micros;
      s.containers = p.containers_total - p.containers_pruned;
      s.morsels = p.exec_tasks;
      s.rows = p.rows_scanned_total;
      samples.push_back(s);
    }
    auto median_of = [&](auto field) {
      std::vector<int64_t> v;
      for (const Sample& s : samples) v.push_back(field(s));
      return Median(v);
    };
    const int64_t wall = median_of([](const Sample& s) { return s.wall_micros; });
    const int64_t sim = median_of([](const Sample& s) { return s.sim_micros; });
    const int64_t scan_wall =
        median_of([](const Sample& s) { return s.scan_wall_micros; });
    const int64_t task_cpu =
        median_of([](const Sample& s) { return s.task_cpu_micros; });
    const Sample& shape = samples.front();  // Identical on every repeat.
    const double us_per_container = Ratio(wall, shape.containers);
    const double scan_us_per_container = Ratio(scan_wall, shape.containers);
    const double rows_per_core = Ratio(shape.rows * 1e6, task_cpu);
    printf("%8d %11llu %9llu %10.2f %12.2f %12.2f %14.0f %10lld\n", width,
           static_cast<unsigned long long>(shape.containers),
           static_cast<unsigned long long>(shape.morsels), wall / 1000.0,
           us_per_container, scan_us_per_container, rows_per_core,
           static_cast<long long>(sim));

    JsonValue e = JsonValue::Object();
    e.Set("threads", JsonValue::Int(width));
    e.Set("containers_scanned",
          JsonValue::Int(static_cast<int64_t>(shape.containers)));
    e.Set("rows_scanned", JsonValue::Int(static_cast<int64_t>(shape.rows)));
    e.Set("morsels_per_query",
          JsonValue::Int(static_cast<int64_t>(shape.morsels)));
    e.Set("measured_wall_micros", JsonValue::Int(wall));
    e.Set("measured_scan_wall_micros", JsonValue::Int(scan_wall));
    e.Set("measured_task_cpu_micros", JsonValue::Int(task_cpu));
    e.Set("modeled_sim_micros", JsonValue::Int(sim));
    e.Set("us_per_container", JsonValue::Double(us_per_container));
    e.Set("scan_us_per_container", JsonValue::Double(scan_us_per_container));
    e.Set("rows_per_sec_per_core", JsonValue::Double(rows_per_core));
    arr.Append(std::move(e));
  }

  JsonValue out = JsonValue::Object();
  out.Set("bench", JsonValue::Str("container_overhead"));
  out.Set("host_cpus", JsonValue::Int(std::thread::hardware_concurrency()));
  out.Set("lineitem_rows",
          JsonValue::Int(static_cast<int64_t>(data.lineitems.size())));
  out.Set("load_batches", JsonValue::Int(kLoadBatches));
  out.Set("repeats", JsonValue::Int(kRepeats));
  out.Set("statistic", JsonValue::Str("median over repeats, warm cache"));
  out.Set("results", std::move(arr));
  FILE* fp = fopen("BENCH_container_overhead.json", "w");
  if (fp == nullptr) return 1;
  const std::string text = out.Dump();
  fwrite(text.data(), 1, text.size(), fp);
  fclose(fp);
  fprintf(stderr, "wrote BENCH_container_overhead.json\n");
  return 0;
}
