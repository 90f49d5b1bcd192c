#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "engine/sql.h"
#include "metered_store.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "storage/sim_object_store.h"
#include "tests/reference_executor.h"
#include "tm/tuple_mover.h"
#include "workload/tpch.h"

namespace perfbench {

void RunOutcome::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

namespace {

using eon::EonClient;
using eon::EonCluster;
using eon::EonServer;
using eon::QueryResult;
using eon::QuerySpec;
using eon::Row;
using eon::Schema;
using eon::Value;

// ---------------------------------------------------------------------------
// Deployment shape: the only settings the benchmark chooses. Every tuning
// option of the program stays at its default.

constexpr int kNodes = 4;
constexpr uint32_t kShards = 4;
constexpr int kKSafety = 2;
/// Per-node file cache: far above any workload's data (see README).
constexpr uint64_t kCacheBytes = 1ULL << 30;

/// Modeled shared-storage latencies. They cost real (sleeping) time from
/// the start of the measured phase; during set-up they advance a private
/// clock offset instead, so loading is not paced by them.
eon::SimStoreOptions StoreModel(uint64_t seed) {
  eon::SimStoreOptions o;
  o.get_latency_micros = 8000;
  o.put_latency_micros = 2000;
  o.list_latency_micros = 1000;
  o.delete_latency_micros = 1000;
  o.scan_latency_micros = 2000;
  o.seed = seed;
  return o;
}

struct Deployment {
  PhaseClock clock;
  std::unique_ptr<eon::SimObjectStore> sim;
  std::unique_ptr<MeteredStore> store;
  std::unique_ptr<EonCluster> cluster;
};

std::unique_ptr<Deployment> MakeDeployment(uint64_t seed, RunOutcome* out) {
  auto d = std::make_unique<Deployment>();
  d->sim = std::make_unique<eon::SimObjectStore>(StoreModel(seed), &d->clock);
  d->store = std::make_unique<MeteredStore>(d->sim.get());
  eon::ClusterOptions copts;
  copts.num_shards = kShards;
  copts.k_safety = kKSafety;
  copts.node.cache.capacity_bytes = kCacheBytes;
  std::vector<eon::NodeSpec> specs;
  for (int i = 1; i <= kNodes; ++i) {
    specs.push_back(eon::NodeSpec{"node" + std::to_string(i), ""});
  }
  auto cluster =
      EonCluster::Create(d->store.get(), &d->clock, copts, specs);
  if (!cluster.ok()) {
    out->Fail("cluster create: " + cluster.status().ToString());
    return nullptr;
  }
  d->cluster = std::move(cluster).value();
  return d;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, q in (0, 1).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int64_t AsInt(const Value& v) {
  return v.type() == eon::DataType::kInt64
             ? v.int_value()
             : static_cast<int64_t>(std::llround(v.dbl_value()));
}

/// Exact text of a result, used to check each distinct result once.
std::string ExactKey(const std::vector<Row>& rows) {
  std::string key;
  char buf[64];
  for (const Row& r : rows) {
    for (const Value& v : r) {
      switch (v.type()) {
        case eon::DataType::kInt64:
          snprintf(buf, sizeof(buf), "i%lld|",
                   static_cast<long long>(v.int_value()));
          key += buf;
          break;
        case eon::DataType::kDouble:
          snprintf(buf, sizeof(buf), "d%.17g|", v.dbl_value());
          key += buf;
          break;
        default:
          key += 's';
          key += v.str_value();
          key += '|';
      }
    }
    key += "\n";
  }
  return key;
}

// ---------------------------------------------------------------------------
// Per-layer metric catalogue: every traced run reports every name below,
// 0 where the workload does not exercise the layer.

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

constexpr LayerMetricDef kLayerMetrics[] = {
    {"query.p95_ms", "ms"},
    {"reader.p50_ms", "ms"},
    {"server.overhead_ms", "ms"},
    {"admission.queued_ms", "ms"},
    {"engine.plan_ms", "ms"},
    {"engine.scan_ms", "ms"},
    {"engine.join_ms", "ms"},
    {"engine.aggregate_ms", "ms"},
    {"engine.merge_ms", "ms"},
    {"engine.containers_per_query", "count"},
    {"engine.morsels_per_query", "count"},
    {"engine.us_per_container", "us"},
    {"engine.critical_cpu_ms", "ms"},
    {"engine.parallelism", "ratio"},
    {"columnar.values_decoded_per_query", "count"},
    {"columnar.values_unpacked_per_query", "count"},
    {"columnar.kernel_calls_per_query", "count"},
    {"columnar.files_skipped_per_query", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.misses_per_query", "count"},
    {"cache.fill_bytes_per_query", "B"},
    {"cache.fetch_wait_ms", "ms"},
    {"prefetch.issued_per_query", "count"},
    {"prefetch.useful_ratio", "ratio"},
    {"prefetch.wasted_per_query", "count"},
    {"store.get_ms", "ms"},
    {"store.gets_per_query", "count"},
    {"store.bytes_per_get", "B"},
    {"store.scan_requests_per_query", "count"},
    {"store.put_ms", "ms"},
    {"store.puts_per_insert", "count"},
    {"store.bytes_per_query", "B"},
    {"store.requests_per_query", "count"},
    {"ingest.rows_per_s", "rows/s"},
    {"ingest.insert_p50_ms", "ms"},
    {"wal.group_size", "count"},
    {"wal.commit_wait_ms", "ms"},
    {"wal.bytes_per_row", "B"},
    {"moveout.count", "count"},
    {"moveout.ms", "ms"},
    {"wos.rows_per_read", "count"},
    {"mergeout.jobs", "count"},
    {"mergeout.ms", "ms"},
    {"mergeout.bytes_rewritten", "B"},
    {"catalog.containers_at_end", "count"},
    {"self.client_ms", "ms"},
    {"self.session_ms", "ms"},
    {"self.store_ms", "ms"},
    {"self.tm_ms", "ms"},
    {"loop.late_p99_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

class LayerMetrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  std::vector<Metric> Finish(RunOutcome* out) const {
    std::vector<Metric> metrics;
    std::set<std::string> known;
    for (const LayerMetricDef& d : kLayerMetrics) {
      known.insert(d.name);
      auto it = values_.find(d.name);
      metrics.push_back(
          Metric{d.name, it == values_.end() ? 0.0 : it->second, d.unit});
    }
    for (const auto& [name, v] : values_) {
      if (known.count(name) == 0) out->Fail("undeclared metric " + name);
    }
    return metrics;
  }

 private:
  std::map<std::string, double> values_;
};

/// Sums of QueryProfile counters over the profiled queries.
struct ProfileTotals {
  uint64_t queries = 0;
  int64_t phase_wall_us[eon::obs::kNumQueryPhases] = {};
  uint64_t containers_scanned = 0;
  uint64_t exec_tasks = 0;
  int64_t task_cpu_us = 0;
  int64_t critical_cpu_us = 0;
  uint64_t values_decoded = 0;
  uint64_t values_unpacked = 0;
  uint64_t kernel_calls = 0;
  uint64_t files_skipped = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_fill_bytes = 0;
  int64_t fetch_wait_us = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_useful = 0;
  uint64_t prefetch_wasted = 0;
  int64_t queued_us = 0;

  void Add(const eon::obs::QueryProfile& p) {
    ++queries;
    for (size_t i = 0; i < eon::obs::kNumQueryPhases; ++i) {
      phase_wall_us[i] += p.phase[i].wall_micros;
    }
    containers_scanned += p.containers_total - p.containers_pruned;
    exec_tasks += p.exec_tasks;
    task_cpu_us += p.exec_task_cpu_micros;
    critical_cpu_us += p.exec_critical_cpu_micros;
    values_decoded += p.exec_values_decoded;
    values_unpacked += p.exec_values_unpacked;
    kernel_calls += p.exec_kernel_calls;
    files_skipped += p.exec_files_skipped;
    cache_hits += p.cache_hits;
    cache_misses += p.cache_misses;
    cache_fill_bytes += p.cache_fill_bytes;
    fetch_wait_us += p.exec_fetch_wait_micros;
    prefetch_issued += p.prefetch_issued;
    prefetch_useful += p.prefetch_useful;
    prefetch_wasted += p.prefetch_wasted;
    queued_us += p.queued_micros;
  }

  void Report(LayerMetrics* m) const {
    const double q = static_cast<double>(queries);
    auto per_query_ms = [&](int64_t us) { return Ratio(us / 1000.0, q); };
    using eon::obs::QueryPhase;
    auto phase = [&](QueryPhase p) {
      return phase_wall_us[static_cast<size_t>(p)];
    };
    m->Set("admission.queued_ms", per_query_ms(queued_us));
    m->Set("engine.plan_ms", per_query_ms(phase(QueryPhase::kPlan)));
    m->Set("engine.scan_ms", per_query_ms(phase(QueryPhase::kScan)));
    m->Set("engine.join_ms", per_query_ms(phase(QueryPhase::kJoin)));
    m->Set("engine.aggregate_ms", per_query_ms(phase(QueryPhase::kAggregate)));
    m->Set("engine.merge_ms", per_query_ms(phase(QueryPhase::kMerge)));
    m->Set("engine.containers_per_query", Ratio(containers_scanned, q));
    m->Set("engine.morsels_per_query", Ratio(exec_tasks, q));
    m->Set("engine.us_per_container",
           Ratio(phase(QueryPhase::kScan), containers_scanned));
    m->Set("engine.critical_cpu_ms", per_query_ms(critical_cpu_us));
    m->Set("engine.parallelism", Ratio(task_cpu_us, critical_cpu_us));
    m->Set("columnar.values_decoded_per_query", Ratio(values_decoded, q));
    m->Set("columnar.values_unpacked_per_query", Ratio(values_unpacked, q));
    m->Set("columnar.kernel_calls_per_query", Ratio(kernel_calls, q));
    m->Set("columnar.files_skipped_per_query", Ratio(files_skipped, q));
    m->Set("cache.hit_ratio", Ratio(cache_hits, cache_hits + cache_misses));
    m->Set("cache.misses_per_query", Ratio(cache_misses, q));
    m->Set("cache.fill_bytes_per_query", Ratio(cache_fill_bytes, q));
    m->Set("cache.fetch_wait_ms", per_query_ms(fetch_wait_us));
    m->Set("prefetch.issued_per_query", Ratio(prefetch_issued, q));
    m->Set("prefetch.useful_ratio", Ratio(prefetch_useful, prefetch_issued));
    m->Set("prefetch.wasted_per_query", Ratio(prefetch_wasted, q));
  }
};

/// Read-side store metrics over `queries` queries.
void ReportStoreReads(const StoreCounts& d, double queries, LayerMetrics* m) {
  const int64_t read_busy =
      d.busy_of(StoreOp::kGet) + d.busy_of(StoreOp::kReadRange);
  m->Set("store.get_ms", Ratio(read_busy / 1000.0, d.reads()));
  m->Set("store.gets_per_query", Ratio(d.reads(), queries));
  m->Set("store.bytes_per_get",
         Ratio(d.bytes_of(StoreOp::kGet) + d.bytes_of(StoreOp::kReadRange),
               d.reads()));
  m->Set("store.scan_requests_per_query", Ratio(d.of(StoreOp::kScan), queries));
  m->Set("store.bytes_per_query", Ratio(d.read_bytes(), queries));
  m->Set("store.requests_per_query", Ratio(d.requests(), queries));
}

/// Mean self time per span of each group, and the span count.
void ReportSpans(const std::vector<SpanRecord>& spans, LayerMetrics* m) {
  const auto self = SelfMicrosByName(spans);
  const auto count = CountByName(spans);
  auto self_ms = [&](std::initializer_list<const char*> names) {
    int64_t us = 0;
    uint64_t n = 0;
    for (const char* name : names) {
      auto it = self.find(name);
      if (it == self.end()) continue;
      us += it->second;
      n += count.at(name);
    }
    return Ratio(us / 1000.0, n);
  };
  m->Set("self.client_ms", self_ms({"client.execute", "client.insert"}));
  m->Set("self.session_ms", self_ms({"session.execute"}));
  m->Set("self.store_ms",
         self_ms({"store.get", "store.read_range", "store.put", "store.list",
                  "store.delete", "store.scan"}));
  m->Set("self.tm_ms", self_ms({"tm.moveout", "tm.mergeout"}));
  m->Set("trace.spans", static_cast<double>(spans.size()));
}

void WriteSpans(const RunConfig& config, const std::vector<SpanRecord>& spans,
                RunOutcome* out) {
  const std::string path = config.out_dir + "/spans-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".jsonl";
  if (!SpanRecorder::Get().WriteJsonLines(path, spans)) {
    out->Fail("cannot write span file " + path);
    return;
  }
  printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  const auto self = SelfMicrosByName(spans);
  const auto total = TotalMicrosByName(spans);
  const auto count = CountByName(spans);
  for (const auto& [name, us] : total) {
    printf("span %-20s count %8llu  total %10.3f ms  self %10.3f ms\n",
           name.c_str(), static_cast<unsigned long long>(count.at(name)),
           us / 1000.0, self.at(name) / 1000.0);
  }
}

// ---------------------------------------------------------------------------
// The TPC-H-shaped statement set, as SQL. It mirrors eon::TpchQuerySet
// over the default last_day (10000); the reference answers come from the
// parsed statements, so the check covers parsing and execution both.

struct Statement {
  const char* name;
  const char* sql;
};

constexpr Statement kTpchStatements[] = {
    {"q01", "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
            "SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, "
            "COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= 9970 "
            "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag"},
    {"q02", "SELECT c_nationkey, AVG(c_acctbal) AS avg_bal, COUNT(*) AS "
            "customers FROM customer WHERE c_acctbal > 0.0 GROUP BY "
            "c_nationkey ORDER BY c_nationkey"},
    {"q03", "SELECT o_orderdate, SUM(l_extendedprice) AS revenue FROM "
            "lineitem JOIN orders ON l_orderkey = o_orderkey WHERE "
            "o_orderdate >= 9910 GROUP BY o_orderdate ORDER BY revenue DESC "
            "LIMIT 10"},
    {"q04", "SELECT o_orderpriority, COUNT(*) AS order_count FROM orders "
            "WHERE o_orderdate >= 9910 AND o_orderdate <= 10000 GROUP BY "
            "o_orderpriority ORDER BY o_orderpriority"},
    {"q05", "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS "
            "rev FROM lineitem WHERE l_shipdate >= 9993 GROUP BY l_returnflag"},
    {"q06", "SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE "
            "l_shipdate >= 9635 AND l_shipdate < 9820 AND l_quantity < 24"},
    {"q07", "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS "
            "rev FROM lineitem WHERE l_shipdate >= 9970 GROUP BY l_returnflag"},
    {"q08", "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS "
            "rev FROM lineitem WHERE l_shipdate >= 9910 AND l_quantity >= 10 "
            "GROUP BY l_returnflag"},
    {"q09", "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS "
            "rev FROM lineitem WHERE l_shipdate >= 9820 GROUP BY l_returnflag"},
    {"q10", "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS "
            "rev FROM lineitem WHERE l_shipdate >= 9635 AND l_quantity >= 25 "
            "GROUP BY l_returnflag"},
    {"q11", "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS "
            "rev FROM lineitem WHERE l_shipdate >= 9280 AND l_shipdate < 9640 "
            "GROUP BY l_returnflag"},
    {"q12", "SELECT l_shipmode, COUNT(*) AS line_count FROM lineitem JOIN "
            "orders ON l_orderkey = o_orderkey WHERE l_shipdate >= 9635 GROUP "
            "BY l_shipmode ORDER BY l_shipmode"},
    {"q13", "SELECT o_custkey, COUNT(*) AS order_cnt FROM orders GROUP BY "
            "o_custkey ORDER BY order_cnt DESC LIMIT 20"},
    {"q14", "SELECT p_type, SUM(l_extendedprice) AS rev FROM lineitem JOIN "
            "part ON l_partkey = p_partkey WHERE l_shipdate >= 9970 GROUP BY "
            "p_type ORDER BY p_type"},
    {"q15", "SELECT l_shipdate, SUM(l_extendedprice) AS rev FROM lineitem "
            "GROUP BY l_shipdate ORDER BY rev DESC LIMIT 5"},
    {"q16", "SELECT p_brand, COUNT(DISTINCT p_partkey) AS distinct_parts FROM "
            "part GROUP BY p_brand ORDER BY p_brand"},
    {"q17", "SELECT AVG(l_extendedprice) AS avg_yearly FROM lineitem WHERE "
            "l_quantity < 5"},
    {"q18", "SELECT l_orderkey, SUM(l_quantity) AS total_qty FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice > "
            "45000.0 GROUP BY l_orderkey ORDER BY total_qty DESC LIMIT 10"},
    {"q19", "SELECT SUM(l_extendedprice) AS revenue, COUNT(*) AS items FROM "
            "lineitem WHERE l_quantity >= 30 AND l_discount >= 0.05"},
    {"q20", "SELECT l_shipmode, l_returnflag, COUNT(*) AS cnt FROM lineitem "
            "GROUP BY l_shipmode, l_returnflag ORDER BY l_shipmode"},
};
constexpr size_t kNumShapes = std::size(kTpchStatements);

struct Shape {
  std::string name;
  QuerySpec spec;
  std::vector<Row> reference;  ///< Answer with the LIMIT removed.
};

/// Parse every statement against the live catalog and compute its
/// reference answer over the generated rows.
bool BuildShapes(EonCluster* cluster, const eon::TpchData& data,
                 std::vector<Shape>* shapes, RunOutcome* out) {
  const auto db = eon::testing_support::TpchReferenceDb(data);
  auto snapshot = cluster->nodes()[0]->catalog()->snapshot();
  for (const Statement& st : kTpchStatements) {
    auto spec = eon::ParseSelect(*snapshot, st.sql);
    if (!spec.ok()) {
      out->Fail(std::string(st.name) + " parse: " + spec.status().ToString());
      return false;
    }
    QuerySpec full = *spec;
    full.limit = -1;
    auto ref = eon::testing_support::ReferenceExecute(db, full);
    if (!ref.ok()) {
      out->Fail(std::string(st.name) + " reference: " +
                ref.status().ToString());
      return false;
    }
    shapes->push_back(Shape{st.name, *spec, std::move(*ref)});
  }
  return true;
}

/// Distinct results seen per shape, checked once each after the run.
class ResultLog {
 public:
  explicit ResultLog(size_t shapes) : per_shape_(shapes) {}

  void Add(size_t shape, const Schema& schema, std::vector<Row> rows) {
    std::string key = ExactKey(rows);
    std::lock_guard<std::mutex> lock(mu_);
    auto& m = per_shape_[shape];
    if (m.count(key) == 0) m.emplace(std::move(key), Entry{schema, rows});
  }

  void Check(const std::vector<Shape>& shapes, RunOutcome* out) const {
    size_t checked = 0;
    for (size_t s = 0; s < per_shape_.size(); ++s) {
      for (const auto& [key, e] : per_shape_[s]) {
        std::string why;
        ++checked;
        if (!CheckQueryResult(shapes[s].spec, e.schema, e.rows,
                              shapes[s].reference, &why)) {
          out->Fail(shapes[s].name + ": " + why);
        }
      }
    }
    printf("checked %zu distinct results against the reference executor\n",
           checked);
  }

 private:
  struct Entry {
    Schema schema;
    std::vector<Row> rows;
  };
  std::mutex mu_;
  std::vector<std::map<std::string, Entry>> per_shape_;
};

struct Sample {
  size_t shape = 0;
  double ms = 0;
};

/// Statement metrics shared by every workload: throughput, geometric mean
/// of the per-shape medians, and (per layer) the p95 over all samples when
/// at least 10 samples lie beyond it.
void ReportQueryMetrics(const std::vector<Sample>& samples, size_t shapes,
                        double queries_per_s, std::vector<Metric>* e2e,
                        LayerMetrics* layers, RunOutcome* out) {
  std::vector<std::vector<double>> by_shape(shapes);
  std::vector<double> all;
  for (const Sample& s : samples) {
    by_shape[s.shape].push_back(s.ms);
    all.push_back(s.ms);
  }
  std::vector<double> medians;
  for (size_t s = 0; s < shapes; ++s) {
    if (by_shape[s].empty()) continue;
    medians.push_back(Median(by_shape[s]));
    printf("shape %2zu: %5zu samples, median %9.3f ms, p90 %9.3f, max %9.3f\n",
           s, by_shape[s].size(), medians.back(),
           Percentile(by_shape[s], 0.9), Percentile(by_shape[s], 1.0));
  }
  if (medians.size() != shapes) out->Fail("a statement shape never completed");
  e2e->push_back({"queries_per_s", queries_per_s, "1/s"});
  e2e->push_back({"query_geomean_ms", GeoMean(medians), "ms"});
  const double p95 = all.size() >= 200 ? Percentile(all, 0.95) : 0;
  layers->Set("query.p95_ms", p95);
  printf("statements: %zu timed, %.3f/s, %zu shapes, p95 %.3f ms%s\n",
         all.size(), queries_per_s, medians.size(), p95,
         all.size() >= 200 ? "" : " (fewer than 200 samples: not reported)");
}

double ElapsedS(int64_t since_us) { return (NowMicros() - since_us) / 1e6; }

std::vector<size_t> ShuffledOrder(std::mt19937_64* rng, size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), *rng);
  return order;
}

/// Distinct containers of `table` over every up node's catalog, and the
/// distinct commit versions that created them.
struct ContainerCount {
  uint64_t containers = 0;
  uint64_t commits = 0;
};

ContainerCount CountContainersAndCommits(EonCluster* cluster,
                                         const std::string& table) {
  std::set<eon::Oid> seen;
  std::set<uint64_t> versions;
  for (const auto& node : cluster->nodes()) {
    if (!node->is_up()) continue;
    auto snap = node->catalog()->snapshot();
    const eon::TableDef* t = snap->FindTableByName(table);
    if (t == nullptr) continue;
    for (const auto& [oid, c] : snap->containers) {
      auto p = snap->projections.find(c.projection_oid);
      if (p != snap->projections.end() && p->second.table_oid == t->oid) {
        seen.insert(oid);
        versions.insert(c.create_version);
      }
    }
  }
  return ContainerCount{seen.size(), versions.size()};
}

uint64_t CountContainers(EonCluster* cluster, const std::string& table) {
  return CountContainersAndCommits(cluster, table).containers;
}

std::unique_ptr<EonClient> Connect(int port, const std::string& node,
                                   RunOutcome* out) {
  auto transport = eon::ConnectLoopback(port);
  if (!transport.ok()) {
    out->Fail("connect: " + transport.status().ToString());
    return nullptr;
  }
  auto client = std::make_unique<EonClient>(std::move(transport).value());
  auto hello = client->Hello(node);
  if (!hello.ok()) {
    out->Fail("hello: " + hello.status().ToString());
    return nullptr;
  }
  return client;
}

std::atomic<uint64_t> g_next_query_id{1};

// ---------------------------------------------------------------------------
// tpch_warm

/// TPC-H scale: 20k lineitem rows at scale 1.
constexpr double kWarmScale = 1.0;
/// COPY batches lineitem is loaded in; every batch adds one container per
/// (shard, ship day) it touches.
constexpr int kWarmCopyBatches = 4;
constexpr int kWarmClients = 2;
/// In-process passes of a traced run (engine profiles, server overhead).
constexpr int kProfilePasses = 5;

struct WirePhaseResult {
  std::vector<Sample> samples;
  std::vector<double> pass_s;  ///< Duration of every client's every pass.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Closed loop: each client runs whole passes over every shape, in a
/// seeded shuffled order, until the deadline.
WirePhaseResult RunWirePhase(std::vector<std::unique_ptr<EonClient>>* clients,
                             size_t shapes, double seconds, uint64_t seed,
                             ResultLog* log) {
  WirePhaseResult r;
  std::mutex mu;
  const int64_t t0 = NowMicros();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e6);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      EonClient* client = (*clients)[c].get();
      std::mt19937_64 rng(seed * 1000003 + c);
      std::vector<Sample> mine;
      uint64_t attempted = 0, failed = 0;
      std::vector<double> passes;
      while (NowMicros() < deadline) {
        const int64_t p0 = NowMicros();
        for (size_t shape : ShuffledOrder(&rng, shapes)) {
          SetThreadQueryId(g_next_query_id.fetch_add(1));
          ++attempted;
          const int64_t q0 = NowMicros();
          eon::Result<eon::WireQueryResult> res = [&] {
            ScopedSpan span("client.execute");
            return client->ExecutePrepared(kTpchStatements[shape].name);
          }();
          const int64_t q1 = NowMicros();
          if (!res.ok()) {
            ++failed;
            continue;
          }
          mine.push_back(Sample{shape, (q1 - q0) / 1000.0});
          log->Add(shape, res->schema, std::move(res->rows));
        }
        passes.push_back(ElapsedS(p0));
      }
      std::lock_guard<std::mutex> lock(mu);
      r.pass_s.insert(r.pass_s.end(), passes.begin(), passes.end());
      r.samples.insert(r.samples.end(), mine.begin(), mine.end());
      r.attempted += attempted;
      r.failed += failed;
    });
  }
  for (auto& t : threads) t.join();
  return r;
}

/// In-process executions of every shape through the SessionManager, one
/// thread per session as the wire phase ran one per client: the program's
/// profiles, and per-shape medians to set against the wire's.
void RunProfilePasses(eon::SessionManager* sessions,
                      const std::vector<uint64_t>& sids, size_t shapes,
                      int passes, ProfileTotals* totals,
                      std::vector<std::vector<double>>* ms_by_shape,
                      ResultLog* log, RunOutcome* out) {
  ms_by_shape->assign(shapes, {});
  std::mutex mu;
  std::vector<std::thread> threads;
  for (uint64_t sid : sids) {
    threads.emplace_back([&, sid] {
      for (int p = 0; p < passes; ++p) {
        for (size_t s = 0; s < shapes; ++s) {
          SetThreadQueryId(g_next_query_id.fetch_add(1));
          const int64_t q0 = NowMicros();
          eon::Result<QueryResult> res = [&] {
            ScopedSpan span("session.execute");
            return sessions->ExecutePrepared(sid, kTpchStatements[s].name);
          }();
          const int64_t q1 = NowMicros();
          std::lock_guard<std::mutex> lock(mu);
          if (!res.ok()) {
            out->Fail(std::string("in-process ") + kTpchStatements[s].name +
                      ": " + res.status().ToString());
            continue;
          }
          (*ms_by_shape)[s].push_back((q1 - q0) / 1000.0);
          totals->Add(res->profile);
          log->Add(s, res->schema, std::move(res->rows));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

double ServerOverheadMs(const std::vector<Sample>& wire,
                        const std::vector<std::vector<double>>& local) {
  std::vector<std::vector<double>> wire_by(local.size());
  for (const Sample& s : wire) wire_by[s.shape].push_back(s.ms);
  double sum = 0;
  size_t n = 0;
  for (size_t s = 0; s < local.size(); ++s) {
    if (wire_by[s].empty() || local[s].empty()) continue;
    sum += Median(wire_by[s]) - Median(local[s]);
    ++n;
  }
  return Ratio(sum, n);
}

uint64_t TotalRows(const eon::TpchData& data) {
  return data.customers.size() + data.orders.size() + data.lineitems.size() +
         data.parts.size();
}

}  // namespace

RunOutcome RunTpchWarm(const RunConfig& config) {
  RunOutcome out;
  auto d = MakeDeployment(config.seed, &out);
  if (d == nullptr) return out;
  EonCluster* cluster = d->cluster.get();

  // TPC-H data is fixed per scale factor, as dbgen's is; the seed varies
  // the statement order. Data drawn per seed moved the cost of a run with
  // the container count it happened to produce.
  eon::TpchOptions topts;
  topts.scale = kWarmScale;
  const eon::TpchData data = eon::GenerateTpch(topts);
  eon::Status s = eon::CreateTpchTables(cluster);
  auto copy = [&](const char* table, const std::vector<Row>& rows) {
    if (!s.ok() || rows.empty()) return;
    auto v = eon::CopyInto(cluster, table, rows);
    if (!v.ok()) s = v.status();
  };
  copy("customer", data.customers);
  copy("orders", data.orders);
  copy("part", data.parts);
  const size_t per_batch =
      (data.lineitems.size() + kWarmCopyBatches - 1) / kWarmCopyBatches;
  for (size_t from = 0; from < data.lineitems.size(); from += per_batch) {
    const size_t to = std::min(data.lineitems.size(), from + per_batch);
    copy("lineitem", std::vector<Row>(data.lineitems.begin() + from,
                                      data.lineitems.begin() + to));
  }
  if (!s.ok()) {
    out.Fail("load: " + s.ToString());
    return out;
  }

  EonServer server(cluster);
  auto port = server.ListenLoopback(0);
  if (!port.ok()) {
    out.Fail("listen: " + port.status().ToString());
    return out;
  }
  std::vector<std::unique_ptr<EonClient>> clients;
  for (int c = 0; c < kWarmClients; ++c) {
    auto client = Connect(*port, "", &out);
    if (client == nullptr) return out;
    for (const Statement& st : kTpchStatements) {
      eon::Status p = client->Prepare(st.name, st.sql);
      if (!p.ok()) {
        out.Fail(std::string("prepare ") + st.name + ": " + p.ToString());
        return out;
      }
    }
    clients.push_back(std::move(client));
  }
  ResultLog log(kNumShapes);
  // Warm-up: every client runs every statement once.
  for (auto& client : clients) {
    for (size_t sh = 0; sh < kNumShapes; ++sh) {
      auto r = client->ExecutePrepared(kTpchStatements[sh].name);
      if (!r.ok()) {
        out.Fail(std::string("warm-up ") + kTpchStatements[sh].name + ": " +
                 r.status().ToString());
        return out;
      }
      log.Add(sh, r->schema, std::move(r->rows));
    }
  }
  const double setup_s = NowMicros() / 1e6;
  d->clock.set_sleeping(true);

  out.facts.push_back({"rows", static_cast<double>(TotalRows(data)), "rows"});
  out.facts.push_back({"lineitem_containers",
                       static_cast<double>(CountContainers(cluster, "lineitem")),
                       "count"});
  out.facts.push_back({"store_objects",
                       static_cast<double>(d->sim->backing()->ObjectCount()),
                       "count"});
  out.facts.push_back({"store_bytes",
                       static_cast<double>(d->sim->backing()->TotalBytes()),
                       "B"});
  out.facts.push_back(
      {"cache_capacity_bytes_per_node", static_cast<double>(kCacheBytes), "B"});

  const StoreCounts before = d->store->counts();
  LayerMetrics layers;
  WirePhaseResult phase;
  if (!config.trace) {
    phase = RunWirePhase(&clients, kNumShapes, config.seconds, config.seed,
                         &log);
  } else {
    // Half untraced, half traced: the throughput ratio is the overhead.
    WirePhaseResult plain = RunWirePhase(&clients, kNumShapes,
                                         config.seconds / 2.0, config.seed,
                                         &log);
    SpanRecorder::Get().set_enabled(true);
    phase = RunWirePhase(&clients, kNumShapes, config.seconds / 2.0,
                         config.seed + 1, &log);
    phase.attempted += plain.attempted;
    phase.failed += plain.failed;
    layers.Set("trace.overhead_pct",
               100.0 * (Ratio(Median(phase.pass_s), Median(plain.pass_s)) - 1));
  }
  const StoreCounts timed = d->store->counts().Minus(before);
  out.attempted = phase.attempted;
  out.failed = phase.failed;
  if (timed.reads() != 0 || timed.of(StoreOp::kScan) != 0) {
    out.Fail("warm phase read shared storage: " +
             std::to_string(timed.reads()) + " reads, " +
             std::to_string(timed.of(StoreOp::kScan)) + " scans");
  }

  if (config.trace) {
    ProfileTotals totals;
    std::vector<std::vector<double>> local_ms;
    std::vector<uint64_t> sids;
    for (int c = 0; c < kWarmClients; ++c) {
      auto sid = server.sessions()->Connect();
      if (!sid.ok()) {
        out.Fail("in-process connect: " + sid.status().ToString());
        break;
      }
      for (const Statement& st : kTpchStatements) {
        eon::Status p = server.sessions()->Prepare(*sid, st.name, st.sql);
        if (!p.ok()) out.Fail("in-process prepare: " + p.ToString());
      }
      sids.push_back(*sid);
    }
    RunProfilePasses(server.sessions(), sids, kNumShapes, kProfilePasses,
                     &totals, &local_ms, &log, &out);
    SpanRecorder::Get().set_enabled(false);
    totals.Report(&layers);
    layers.Set("server.overhead_ms", ServerOverheadMs(phase.samples, local_ms));
    ReportStoreReads(timed, phase.samples.size(), &layers);
    const auto spans = SpanRecorder::Get().Take();
    ReportSpans(spans, &layers);
    WriteSpans(config, spans, &out);
  }
  for (auto& client : clients) (void)client->Bye();
  clients.clear();
  server.Shutdown();

  out.end_to_end.push_back({"setup_s", setup_s, "s"});
  // Closed loop: throughput is the clients' statements per median pass.
  ReportQueryMetrics(phase.samples, kNumShapes,
                     Ratio(kWarmClients * kNumShapes, Median(phase.pass_s)),
                     &out.end_to_end, &layers, &out);
  out.end_to_end.push_back(
      {"stored_bytes_per_row",
       Ratio(d->sim->backing()->TotalBytes(), TotalRows(data)), "B"});
  layers.Set("catalog.containers_at_end",
             CountContainers(cluster, "lineitem"));

  std::vector<Shape> shapes;
  if (BuildShapes(cluster, data, &shapes, &out)) log.Check(shapes, &out);
  if (config.trace) out.per_layer = layers.Finish(&out);
  return out;
}

// ---------------------------------------------------------------------------
// cold_scan

namespace {

/// TPC-H scale of the cold workload: 100 lineitem rows, so a run holds
/// several passes over the 20 shapes with every cache emptied before
/// each query.
constexpr double kColdScale = 0.005;

void ClearCaches(EonCluster* cluster) {
  for (const auto& node : cluster->nodes()) node->cache()->Clear();
}

void WaitCachesIdle(EonCluster* cluster) {
  for (const auto& node : cluster->nodes()) node->cache()->WaitIdle();
}

}  // namespace

RunOutcome RunColdScan(const RunConfig& config) {
  RunOutcome out;
  auto d = MakeDeployment(config.seed, &out);
  if (d == nullptr) return out;
  EonCluster* cluster = d->cluster.get();

  eon::TpchOptions topts;  // Fixed data, as in tpch_warm.
  topts.scale = kColdScale;
  const eon::TpchData data = eon::GenerateTpch(topts);
  eon::Status s = eon::CreateTpchTables(cluster);
  if (s.ok()) s = eon::LoadTpch(cluster, data);
  if (!s.ok()) {
    out.Fail("load: " + s.ToString());
    return out;
  }
  EonServer server(cluster);
  eon::SessionManager* sessions = server.sessions();
  auto sid = sessions->Connect();
  if (!sid.ok()) {
    out.Fail("connect: " + sid.status().ToString());
    return out;
  }
  for (const Statement& st : kTpchStatements) {
    eon::Status p = sessions->Prepare(*sid, st.name, st.sql);
    if (!p.ok()) {
      out.Fail(std::string("prepare ") + st.name + ": " + p.ToString());
      return out;
    }
  }
  ResultLog log(kNumShapes);
  // Warm-up on modeled time: one cold execution of every statement.
  for (size_t sh = 0; sh < kNumShapes; ++sh) {
    ClearCaches(cluster);
    auto r = sessions->ExecutePrepared(*sid, kTpchStatements[sh].name);
    WaitCachesIdle(cluster);
    if (!r.ok()) {
      out.Fail(std::string("warm-up ") + kTpchStatements[sh].name + ": " +
               r.status().ToString());
      return out;
    }
    log.Add(sh, r->schema, std::move(r->rows));
  }
  const double setup_s = NowMicros() / 1e6;
  d->clock.set_sleeping(true);

  out.facts.push_back({"rows", static_cast<double>(TotalRows(data)), "rows"});
  out.facts.push_back({"lineitem_containers",
                       static_cast<double>(CountContainers(cluster, "lineitem")),
                       "count"});
  out.facts.push_back({"store_objects",
                       static_cast<double>(d->sim->backing()->ObjectCount()),
                       "count"});
  out.facts.push_back({"store_bytes",
                       static_cast<double>(d->sim->backing()->TotalBytes()),
                       "B"});
  out.facts.push_back(
      {"cache_capacity_bytes_per_node", static_cast<double>(kCacheBytes), "B"});

  LayerMetrics layers;
  ProfileTotals totals;
  std::vector<Sample> samples;
  StoreCounts store_sum;
  uint64_t mismatches = 0;
  std::mt19937_64 rng(config.seed);
  // Traced runs spend their first half untraced, for the overhead figure.
  const double half = config.seconds / 2.0;
  std::vector<Sample> untraced;
  std::vector<double> pass_s, untraced_pass_s;
  const int64_t t0 = NowMicros();
  const int64_t deadline = t0 + static_cast<int64_t>(config.seconds * 1e6);
  while (NowMicros() < deadline) {
    if (config.trace && !SpanRecorder::Get().enabled() &&
        NowMicros() - t0 >= static_cast<int64_t>(half * 1e6)) {
      untraced.swap(samples);
      untraced_pass_s.swap(pass_s);
      totals = ProfileTotals();
      store_sum = StoreCounts();
      SpanRecorder::Get().set_enabled(true);
    }
    const int64_t p0 = NowMicros();
    for (size_t shape : ShuffledOrder(&rng, kNumShapes)) {
      ClearCaches(cluster);
      SetThreadQueryId(g_next_query_id.fetch_add(1));
      const StoreCounts before = d->store->counts();
      ++out.attempted;
      const int64_t q0 = NowMicros();
      eon::Result<QueryResult> res = [&] {
        ScopedSpan span("session.execute");
        return sessions->ExecutePrepared(*sid, kTpchStatements[shape].name);
      }();
      const int64_t q1 = NowMicros();
      WaitCachesIdle(cluster);
      const StoreCounts delta = d->store->counts().Minus(before);
      if (!res.ok()) {
        ++out.failed;
        continue;
      }
      std::string why;
      if (!CheckStoreAgreement(delta, res->profile, &why)) {
        if (mismatches++ == 0) out.Fail(kTpchStatements[shape].name + (": " + why));
      }
      store_sum.Add(delta);
      samples.push_back(Sample{shape, (q1 - q0) / 1000.0});
      totals.Add(res->profile);
      log.Add(shape, res->schema, std::move(res->rows));
    }
    pass_s.push_back(ElapsedS(p0));
  }
  if (mismatches > 0) {
    out.Fail(std::to_string(mismatches) +
             " queries where decorator and profile store counts differ");
  }

  if (config.trace) {
    SpanRecorder::Get().set_enabled(false);
    layers.Set("trace.overhead_pct",
               100.0 * (Ratio(Median(pass_s), Median(untraced_pass_s)) - 1));
    totals.Report(&layers);
    ReportStoreReads(store_sum, samples.size(), &layers);
    const auto spans = SpanRecorder::Get().Take();
    ReportSpans(spans, &layers);
    WriteSpans(config, spans, &out);
  }
  printf("store per cold query (decorator): %.1f requests, %.0f bytes\n",
         Ratio(store_sum.requests(), samples.size()),
         Ratio(store_sum.read_bytes(), samples.size()));

  out.end_to_end.push_back({"setup_s", setup_s, "s"});
  ReportQueryMetrics(samples, kNumShapes,
                     Ratio(kNumShapes, Median(pass_s)), &out.end_to_end,
                     &layers, &out);
  out.end_to_end.push_back(
      {"stored_bytes_per_row",
       Ratio(d->sim->backing()->TotalBytes(), TotalRows(data)), "B"});
  layers.Set("catalog.containers_at_end", CountContainers(cluster, "lineitem"));
  server.Shutdown();

  std::vector<Shape> shapes;
  if (BuildShapes(cluster, data, &shapes, &out)) log.Check(shapes, &out);
  if (config.trace) out.per_layer = layers.Finish(&out);
  return out;
}

// ---------------------------------------------------------------------------
// trickle_ingest

namespace {

constexpr int kWriters = 3;
constexpr uint64_t kBatchRows = 10;
/// Each writer's first batches are bulk-loaded (COPY) in set-up, so the
/// table has a ROS history before the trickle starts.
constexpr uint64_t kBaseBatches = 1000;
/// Open-loop schedule: each writer sends a batch every 60 ms (500 rows/s
/// in all, a fourteenth of what closed-loop writers reach, so the writer
/// a moveout stalls catches up long before the next one), the reader a
/// query every 250 ms. An INSERT that lands during a read waits for it
/// (about 20 ms against 3 ms), so the reader stays busy under a tenth of
/// the time: at higher duty the INSERT median jumps between the two modes.
constexpr int64_t kWriterPeriodUs = 60000;
constexpr int64_t kReaderPeriodUs = 250000;
const char* const kIngestNode = "node1";
const char* const kReaderSql =
    "SELECT writer, COUNT(*) AS n, SUM(amount) AS total FROM events "
    "GROUP BY writer";

/// Deterministic amount of row j of writer w's batch b.
int64_t Amount(uint64_t seed, int w, uint64_t b, uint64_t j) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + w * 0xBF58476D1CE4E5B9ULL +
               b * 0x94D049BB133111EBULL + j;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ULL;
  x ^= x >> 32;
  return static_cast<int64_t>(x % 1000) + 1;
}

std::vector<Row> BatchRows(uint64_t seed, int w, uint64_t b, int64_t* sum) {
  std::vector<Row> rows;
  *sum = 0;
  for (uint64_t j = 0; j < kBatchRows; ++j) {
    const int64_t id = static_cast<int64_t>(w) * 1000000000LL +
                       static_cast<int64_t>(b * kBatchRows + j);
    const int64_t amount = Amount(seed, w, b, j);
    *sum += amount;
    rows.push_back(Row{Value::Int(id), Value::Int(w), Value::Int(amount)});
  }
  return rows;
}

std::string InsertSql(uint64_t seed, int w, uint64_t b, int64_t* sum) {
  std::string sql = "INSERT INTO events VALUES ";
  *sum = 0;
  for (uint64_t j = 0; j < kBatchRows; ++j) {
    const int64_t id = static_cast<int64_t>(w) * 1000000000LL +
                       static_cast<int64_t>(b * kBatchRows + j);
    const int64_t amount = Amount(seed, w, b, j);
    *sum += amount;
    sql += j > 0 ? ", (" : "(";
    sql += std::to_string(id);
    sql += ", ";
    sql += std::to_string(w);
    sql += ", ";
    sql += std::to_string(amount);
    sql += ')';
  }
  return sql;
}

/// Totals per writer as an in-process query sees them.
eon::Result<WriterTotals> QueryTotals(EonCluster* cluster) {
  auto snap = cluster->AnyUpNode()->catalog()->snapshot();
  EON_ASSIGN_OR_RETURN(QuerySpec spec, eon::ParseSelect(*snap, kReaderSql));
  eon::EonSession session(cluster);
  EON_ASSIGN_OR_RETURN(QueryResult r, session.Execute(spec));
  WriterTotals t;
  for (const Row& row : r.rows) {
    t[AsInt(row[0])] = {static_cast<uint64_t>(AsInt(row[1])), AsInt(row[2])};
  }
  return t;
}

void SumTotals(const WriterTotals& t, uint64_t* rows, int64_t* sum) {
  *rows = 0;
  *sum = 0;
  for (const auto& [w, v] : t) {
    *rows += v.first;
    *sum += v.second;
  }
}

struct Writer {
  std::unique_ptr<EonClient> client;
  uint64_t next_batch = 0;
  std::vector<int64_t> prefix_sums;  ///< Acknowledged batches' running sum.
  std::vector<double> insert_ms;
  std::vector<int64_t> insert_due;  ///< Due time of each insert_ms sample.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

}  // namespace

RunOutcome RunTrickleIngest(const RunConfig& config) {
  RunOutcome out;
  auto d = MakeDeployment(config.seed, &out);
  if (d == nullptr) return out;
  EonCluster* cluster = d->cluster.get();

  Schema schema({{"id", eon::DataType::kInt64},
                 {"writer", eon::DataType::kInt64},
                 {"amount", eon::DataType::kInt64}});
  auto table = eon::CreateTable(
      cluster, "events", schema, std::nullopt,
      {eon::ProjectionSpec{"events_super", {}, {"id"}, {"id"}}});
  if (!table.ok()) {
    out.Fail("create table: " + table.status().ToString());
    return out;
  }
  const eon::Oid table_oid = *table;
  eon::Node* ingest = cluster->node_by_name(kIngestNode);

  EonServer server(cluster);
  auto port = server.ListenLoopback(0);
  if (!port.ok()) {
    out.Fail("listen: " + port.status().ToString());
    return out;
  }
  std::vector<Writer> writers(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    std::vector<Row> rows;
    for (uint64_t b = 0; b < kBaseBatches; ++b) {
      int64_t sum = 0;
      for (Row& r : BatchRows(config.seed, w, b, &sum)) {
        rows.push_back(std::move(r));
      }
      writers[w].prefix_sums.push_back(
          (writers[w].prefix_sums.empty() ? 0 : writers[w].prefix_sums.back()) +
          sum);
    }
    writers[w].next_batch = kBaseBatches;
    auto v = eon::CopyInto(cluster, "events", rows);
    if (!v.ok()) {
      out.Fail("base load: " + v.status().ToString());
      return out;
    }
  }
  const uint64_t base_commits =
      CountContainersAndCommits(cluster, "events").commits;
  // Send writer w's next batch; its latency counts from `due_us`, when
  // the open-loop schedule meant it to be sent (0 = now).
  auto insert = [&](int w, int64_t due_us) {
    Writer& wr = writers[w];
    int64_t sum = 0;
    const std::string sql = InsertSql(config.seed, w, wr.next_batch, &sum);
    ++wr.attempted;
    SetThreadQueryId(g_next_query_id.fetch_add(1));
    const int64_t q0 = due_us > 0 ? due_us : NowMicros();
    eon::Result<eon::WireQueryResult> r = [&] {
      ScopedSpan span("client.insert");
      return wr.client->Query(sql);
    }();
    const int64_t q1 = NowMicros();
    if (!r.ok()) {
      ++wr.failed;
      return false;
    }
    ++wr.next_batch;
    wr.prefix_sums.push_back(
        (wr.prefix_sums.empty() ? 0 : wr.prefix_sums.back()) + sum);
    wr.insert_ms.push_back((q1 - q0) / 1000.0);
    wr.insert_due.push_back(q0);
    return true;
  };
  for (int w = 0; w < kWriters; ++w) {
    writers[w].client = Connect(*port, kIngestNode, &out);
    if (writers[w].client == nullptr) return out;
  }
  auto reader = Connect(*port, "", &out);
  if (reader == nullptr) return out;
  // Warm-up: one batch per writer, one read.
  for (int w = 0; w < kWriters; ++w) {
    if (!insert(w, 0)) {
      out.Fail("warm-up insert failed");
      return out;
    }
    writers[w].insert_ms.clear();
    writers[w].insert_due.clear();
  }
  if (!reader->Query(kReaderSql).ok()) {
    out.Fail("warm-up read failed");
    return out;
  }
  const double setup_s = NowMicros() / 1e6;
  d->clock.set_sleeping(true);

  // Traced runs also read in-process in their traced half, alternating
  // with the wire reader: the engine's profile of a read over the WOS+ROS
  // mix, and the server overhead under the same load.
  auto local_sid = server.sessions()->Connect();
  if (!local_sid.ok()) {
    out.Fail("in-process connect: " + local_sid.status().ToString());
    return out;
  }
  ProfileTotals local_totals;
  std::vector<double> local_ms;
  std::vector<double> traced_read_ms;
  uint64_t local_failed = 0;

  LayerMetrics layers;
  const StoreCounts store0 = d->store->counts();
  std::vector<double> read_ms;
  std::vector<WriterTotals> observations;
  uint64_t wos_rows_sampled = 0;
  uint64_t read_attempted = 0, read_failed = 0;
  std::vector<int64_t> read_due;
  std::vector<double> send_late_ms;  // Reader's; writers keep their own.
  std::vector<std::vector<double>> writer_late_ms(kWriters);
  // Open loop: every writer sends one batch per kWriterPeriodUs (staggered
  // across writers), the reader one query per kReaderPeriodUs, whether or
  // not earlier ones have returned late; a run always sends the same
  // operations. Latency counts from each operation's due time.
  const int64_t t0 = NowMicros();
  const int64_t span_us = static_cast<int64_t>(config.seconds) * 1000000;
  const int64_t deadline = t0 + span_us;
  const int64_t half_at = t0 + span_us / 2;
  auto wait_until = [](int64_t due) {
    const int64_t now = NowMicros();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    }
    return std::max<int64_t>(0, NowMicros() - due);
  };
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int64_t due = t0 + w * kWriterPeriodUs / kWriters;
             due < deadline; due += kWriterPeriodUs) {
          writer_late_ms[w].push_back(wait_until(due) / 1000.0);
          insert(w, due);
        }
      });
    }
    threads.emplace_back([&] {
      for (int64_t due = t0; due < deadline; due += kReaderPeriodUs) {
        send_late_ms.push_back(wait_until(due) / 1000.0);
        ++read_attempted;
        wos_rows_sampled += ingest->wos()->UnflushedRows(table_oid);
        SetThreadQueryId(g_next_query_id.fetch_add(1));
        const int64_t q0 = NowMicros();
        eon::Result<eon::WireQueryResult> r = [&] {
          ScopedSpan span("client.execute");
          return reader->Query(kReaderSql);
        }();
        const int64_t q1 = NowMicros();
        if (!r.ok()) {
          ++read_failed;
          continue;
        }
        read_ms.push_back((q1 - due) / 1000.0);
        read_due.push_back(due);
        if (SpanRecorder::Get().enabled()) {
          traced_read_ms.push_back((q1 - q0) / 1000.0);
          const int64_t l0 = NowMicros();
          auto local = [&] {
            ScopedSpan span("session.execute");
            return server.sessions()->ExecuteSql(*local_sid, kReaderSql);
          }();
          const int64_t l1 = NowMicros();
          if (local.ok()) {
            local_ms.push_back((l1 - l0) / 1000.0);
            local_totals.Add(local->profile);
          } else {
            ++local_failed;
          }
        }
        WriterTotals t;
        for (const Row& row : r->rows) {
          t[AsInt(row[0])] = {static_cast<uint64_t>(AsInt(row[1])),
                              AsInt(row[2])};
        }
        observations.push_back(std::move(t));
      }
    });
    if (config.trace) {
      wait_until(half_at);
      SpanRecorder::Get().set_enabled(true);
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed_s = ElapsedS(t0);
  const StoreCounts timed = d->store->counts().Minus(store0);
  SpanRecorder::Get().set_enabled(false);

  uint64_t timed_inserts = 0, acked_rows = 0;
  int64_t acked_sum = 0;
  std::vector<double> insert_ms;
  std::vector<std::vector<int64_t>> batch_sums;
  for (Writer& wr : writers) {
    out.attempted += wr.attempted - 1;  // The warm-up batch is set-up.
    out.failed += wr.failed;
    timed_inserts += wr.insert_ms.size();
    acked_rows += wr.next_batch * kBatchRows;
    if (!wr.prefix_sums.empty()) acked_sum += wr.prefix_sums.back();
    insert_ms.insert(insert_ms.end(), wr.insert_ms.begin(), wr.insert_ms.end());
    batch_sums.push_back(wr.prefix_sums);
  }
  out.attempted += read_attempted;
  if (local_failed > 0) {
    out.Fail(std::to_string(local_failed) + " in-process reads failed");
  }
  out.failed += read_failed;

  // Every reader observation is a whole-batch prefix that never shrinks.
  {
    WriterTotals prev;
    for (size_t i = 0; i < observations.size(); ++i) {
      std::string why;
      if (!CheckReaderPrefix(observations[i], prev, kBatchRows, batch_sums,
                             &why)) {
        out.Fail("reader observation " + std::to_string(i) + ": " + why);
        break;
      }
      prev = observations[i];
    }
  }

  const eon::WalStats wal = ingest->wal()->stats();
  // Each moveout commits its containers under one catalog version and
  // nothing merges during the run, so new container versions count them.
  const uint64_t moveouts =
      CountContainersAndCommits(cluster, "events").commits - base_commits;

  if (config.trace) {
    local_totals.Report(&layers);
    layers.Set("server.overhead_ms", Median(traced_read_ms) - Median(local_ms));
    // Open loop: both halves send the same operations, so the overhead
    // is the traced half's statement geomean over the untraced half's.
    std::vector<double> ins[2], rd[2];
    for (const Writer& wr : writers) {
      for (size_t i = 0; i < wr.insert_ms.size(); ++i) {
        ins[wr.insert_due[i] >= half_at].push_back(wr.insert_ms[i]);
      }
    }
    for (size_t i = 0; i < read_ms.size(); ++i) {
      rd[read_due[i] >= half_at].push_back(read_ms[i]);
    }
    const double plain = GeoMean({Median(ins[0]), Median(rd[0])});
    const double traced = GeoMean({Median(ins[1]), Median(rd[1])});
    layers.Set("trace.overhead_pct", 100.0 * (Ratio(traced, plain) - 1));
  }
  for (Writer& wr : writers) (void)wr.client->Bye();
  (void)reader->Bye();
  server.Shutdown();

  // Crash the ingest node before the final moveout; every acknowledged
  // row must come back from its write-ahead log.
  eon::Status crash = cluster->KillNode(ingest->oid());
  if (crash.ok()) crash = cluster->RestartNode(ingest->oid());
  if (!crash.ok()) {
    out.Fail("kill/restart: " + crash.ToString());
  } else {
    auto t = QueryTotals(cluster);
    uint64_t rows = 0;
    int64_t sum = 0;
    if (t.ok()) SumTotals(*t, &rows, &sum);
    std::string why;
    if (!t.ok()) {
      out.Fail("count after restart: " + t.status().ToString());
    } else if (!CheckIngestTotals(acked_rows, acked_sum, rows, sum, &why)) {
      out.Fail("after restart: " + why);
    }
  }

  // Final moveout, then one mergeout pass.
  SpanRecorder::Get().set_enabled(config.trace);
  const int64_t m0 = NowMicros();
  eon::Result<uint64_t> moved = [&] {
    ScopedSpan span("tm.moveout");
    return eon::MoveoutWos(cluster, "events");
  }();
  const int64_t m1 = NowMicros();
  if (!moved.ok()) out.Fail("moveout: " + moved.status().ToString());
  const StoreCounts merge0 = d->store->counts();
  eon::TupleMover tm(cluster);
  eon::Result<uint64_t> jobs = [&] {
    ScopedSpan span("tm.mergeout");
    return tm.RunOnce();
  }();
  const int64_t m2 = NowMicros();
  const StoreCounts merged = d->store->counts().Minus(merge0);
  SpanRecorder::Get().set_enabled(false);
  if (!jobs.ok()) out.Fail("mergeout: " + jobs.status().ToString());
  {
    auto t = QueryTotals(cluster);
    uint64_t rows = 0;
    int64_t sum = 0;
    if (t.ok()) SumTotals(*t, &rows, &sum);
    std::string why;
    if (!t.ok()) {
      out.Fail("count after mergeout: " + t.status().ToString());
    } else if (!CheckIngestTotals(acked_rows, acked_sum, rows, sum, &why)) {
      out.Fail("after mergeout: " + why);
    }
  }
  const uint64_t containers = CountContainers(cluster, "events");
  printf("ingest: %llu acked rows, %llu moveouts, final moveout %llu rows, "
         "%llu mergeout jobs, %llu containers at end\n",
         static_cast<unsigned long long>(acked_rows),
         static_cast<unsigned long long>(moveouts),
         static_cast<unsigned long long>(moved.ok() ? *moved : 0),
         static_cast<unsigned long long>(jobs.ok() ? *jobs : 0),
         static_cast<unsigned long long>(containers));

  out.facts.push_back({"rows", static_cast<double>(acked_rows), "rows"});
  out.facts.push_back({"events_containers", static_cast<double>(containers),
                       "count"});
  out.facts.push_back({"store_objects",
                       static_cast<double>(d->sim->backing()->ObjectCount()),
                       "count"});
  out.facts.push_back({"store_bytes",
                       static_cast<double>(d->sim->backing()->TotalBytes()),
                       "B"});
  out.facts.push_back(
      {"cache_capacity_bytes_per_node", static_cast<double>(kCacheBytes), "B"});

  out.end_to_end.push_back({"setup_s", setup_s, "s"});
  // The statement geomean covers the workload's own statement, the
  // INSERT; the reader is the background load whose latency is reported
  // per layer (its CPU-bound median spread 14-90% between hours, more
  // than any bound can hold). Throughput counts every statement.
  std::vector<Sample> inserts;
  for (double ms : insert_ms) inserts.push_back(Sample{0, ms});
  ReportQueryMetrics(inserts, 1,
                     Ratio(insert_ms.size() + read_ms.size(), elapsed_s),
                     &out.end_to_end, &layers, &out);
  layers.Set("query.p95_ms",
             read_ms.size() >= 200 ? Percentile(read_ms, 0.95) : 0);
  layers.Set("reader.p50_ms", Median(read_ms));
  printf("reader: %zu reads, median %.3f ms\n", read_ms.size(),
         Median(read_ms));
  out.end_to_end.push_back(
      {"stored_bytes_per_row",
       Ratio(d->sim->backing()->TotalBytes(), acked_rows), "B"});

  std::vector<double> late = send_late_ms;
  for (const auto& v : writer_late_ms) late.insert(late.end(), v.begin(), v.end());
  printf("open loop: %zu sends, late p50 %.3f ms, p99 %.3f ms, max %.3f ms; "
         "reader late p50 %.3f ms, max %.3f ms\n",
         late.size(), Median(late), Percentile(late, 0.99),
         Percentile(late, 1.0), Median(send_late_ms),
         Percentile(send_late_ms, 1.0));
  if (config.trace) {
    layers.Set("loop.late_p99_ms", Percentile(late, 0.99));
    const double timed_rows = static_cast<double>(timed_inserts * kBatchRows);
    layers.Set("ingest.rows_per_s", Ratio(timed_rows, elapsed_s));
    layers.Set("ingest.insert_p50_ms", Median(insert_ms));
    ReportStoreReads(timed, read_ms.size(), &layers);
    layers.Set("store.put_ms",
               Ratio(timed.busy_of(StoreOp::kPut) / 1000.0,
                     timed.of(StoreOp::kPut)));
    layers.Set("store.puts_per_insert",
               Ratio(timed.of(StoreOp::kPut), timed_inserts));
    layers.Set("wal.group_size",
               Ratio(wal.records_appended, wal.groups_flushed));
    layers.Set("wal.commit_wait_ms",
               Ratio(wal.commit_wait_micros / 1000.0, wal.records_appended));
    layers.Set("wal.bytes_per_row", Ratio(wal.bytes_appended, acked_rows));
    layers.Set("moveout.count", moveouts);
    layers.Set("moveout.ms", (m1 - m0) / 1000.0);
    layers.Set("wos.rows_per_read",
               Ratio(wos_rows_sampled, read_attempted));
    layers.Set("mergeout.jobs", jobs.ok() ? *jobs : 0);
    layers.Set("mergeout.ms", (m2 - m1) / 1000.0);
    layers.Set("mergeout.bytes_rewritten", merged.data_put_bytes);
    layers.Set("catalog.containers_at_end", containers);
    const auto spans = SpanRecorder::Get().Take();
    ReportSpans(spans, &layers);
    WriteSpans(config, spans, &out);
    out.per_layer = layers.Finish(&out);
  }
  return out;
}

}  // namespace perfbench
