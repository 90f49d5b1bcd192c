// Parallel-vs-serial differential testing: the same query on identically
// loaded clusters must produce BIT-IDENTICAL results at every exec pool
// width (1, 2, 4, 8), under every crunch mode — morsel decomposition and
// merge order are fixed, so thread count must never show through. Results
// are additionally checked against the naive reference executor. Runs
// under TSan via scripts/tsan.sh (`ctest -L race`).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "columnar/kernels.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"
#include "tests/reference_executor.h"
#include "workload/tpch.h"

namespace eon {
namespace {

using testing_support::ReferenceExecute;
using testing_support::SameResults;
using testing_support::TpchReferenceDb;

constexpr int kWidths[] = {1, 2, 4, 8};

/// One fully loaded cluster per pool width, all built from the same
/// generated data. Width 1 is the serial baseline.
struct WidthedClusters {
  TpchOptions topts;
  TpchData data;
  testing_support::RefDatabase reference;

  struct Instance {
    SimClock clock;
    std::unique_ptr<SimObjectStore> store;
    std::unique_ptr<EonCluster> cluster;
  };
  std::map<int, std::unique_ptr<Instance>> by_width;

  static WidthedClusters* Get() {
    static WidthedClusters* instance = [] {
      auto* wc = new WidthedClusters();
      wc->topts.scale = 0.1;
      wc->data = GenerateTpch(wc->topts);
      wc->reference = TpchReferenceDb(wc->data);
      for (int width : kWidths) {
        auto inst = std::make_unique<Instance>();
        SimStoreOptions sopts;
        sopts.get_latency_micros = 0;
        sopts.put_latency_micros = 0;
        sopts.list_latency_micros = 0;
        inst->store = std::make_unique<SimObjectStore>(sopts, &inst->clock);
        ClusterOptions copts;
        copts.num_shards = 3;
        copts.k_safety = 2;
        copts.exec_threads = width;
        std::vector<NodeSpec> specs;
        for (int i = 1; i <= 5; ++i) {
          specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
        }
        auto cluster = EonCluster::Create(inst->store.get(), &inst->clock,
                                          copts, specs);
        EON_CHECK(cluster.ok());
        inst->cluster = std::move(cluster).value();
        EON_CHECK(inst->cluster->exec_pool()->width() == width);
        EON_CHECK(CreateTpchTables(inst->cluster.get()).ok());
        EON_CHECK(LoadTpch(inst->cluster.get(), wc->data, 256).ok());
        wc->by_width[width] = std::move(inst);
      }
      return wc;
    }();
    return instance;
  }
};

/// Exact (bit-for-bit) row equality: same type, same null flag, and the
/// exact stored value — doubles compare with ==, no tolerance. This is
/// stricter than SameResults on purpose: it is what "deterministic at any
/// thread count" promises.
bool BitIdentical(const std::vector<Row>& a, const std::vector<Row>& b,
                  std::string* diff) {
  if (a.size() != b.size()) {
    *diff = "row count " + std::to_string(a.size()) + " vs " +
            std::to_string(b.size());
    return false;
  }
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      *diff = "row " + std::to_string(r) + " width mismatch";
      return false;
    }
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      bool same = x.type() == y.type() && x.is_null() == y.is_null();
      if (same && !x.is_null()) {
        switch (x.type()) {
          case DataType::kInt64:
            same = x.int_value() == y.int_value();
            break;
          case DataType::kDouble:
            same = x.dbl_value() == y.dbl_value();
            break;
          case DataType::kString:
            same = x.str_value() == y.str_value();
            break;
        }
      }
      if (!same) {
        *diff = "row " + std::to_string(r) + " col " + std::to_string(c) +
                ": " + x.ToString() + " vs " + y.ToString();
        return false;
      }
    }
  }
  return true;
}

/// Run `spec` on every width and require parallel results to be exactly
/// the serial ones (including row order); check serial vs the reference.
void ExpectWidthInvariant(const QuerySpec& spec, CrunchMode crunch,
                          uint64_t seed, const std::string& label) {
  WidthedClusters* wc = WidthedClusters::Get();
  std::vector<Row> serial_rows;
  for (int width : kWidths) {
    EonSession session(wc->by_width[width]->cluster.get(), "", seed);
    session.set_crunch_mode(crunch);
    auto result = session.Execute(spec);
    ASSERT_TRUE(result.ok())
        << label << " width " << width << ": " << result.status().ToString();
    if (width == 1) {
      serial_rows = result->rows;
      auto expected = ReferenceExecute(wc->reference, spec);
      ASSERT_TRUE(expected.ok()) << label;
      if (spec.limit < 0) {  // Ties at a LIMIT cutoff are unspecified.
        std::string diff;
        EXPECT_TRUE(
            SameResults(result->rows, *expected, /*ordered=*/false, &diff))
            << label << " vs reference: " << diff;
      }
      continue;
    }
    // The profile must reflect the requested width.
    EXPECT_EQ(result->profile.exec_threads, static_cast<uint64_t>(width))
        << label;
    std::string diff;
    EXPECT_TRUE(BitIdentical(result->rows, serial_rows, &diff))
        << label << ": width " << width << " diverged from serial: " << diff;
  }
}

/// Fixed query shapes covering the parallelized paths: plain scans,
/// predicate scans, local and broadcast and reshuffle joins, local and
/// merged group-bys, global aggregates, order/limit.
std::vector<std::pair<std::string, QuerySpec>> ParallelQuerySet() {
  std::vector<std::pair<std::string, QuerySpec>> out;
  const Schema li = TpchLineitemSchema();
  const Schema ord = TpchOrdersSchema();

  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_quantity", "l_shipmode"};
    out.emplace_back("plain_scan", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_extendedprice"};
    q.scan.predicate =
        Predicate::And(Predicate::Cmp(*li.IndexOf("l_shipdate"), CmpOp::kGe,
                                      Value::Int(9800)),
                       Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kLe,
                                      Value::Int(25)));
    out.emplace_back("predicate_scan", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey"};
    q.group_by = {"l_orderkey"};  // Segmentation column: local group-by.
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_extendedprice", "s"}};
    out.emplace_back("local_group_by", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_shipmode"};
    q.group_by = {"l_shipmode"};  // Not the segmentation column: merged.
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"},
                    {AggFn::kMin, "l_extendedprice", "lo"},
                    {AggFn::kMax, "l_extendedprice", "hi"},
                    {AggFn::kAvg, "l_extendedprice", "m"}};
    out.emplace_back("merged_group_by", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kCountDistinct, "l_shipmode", "dist"}};
    out.emplace_back("global_aggregate", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_quantity"};
    q.join = JoinSpec{{"orders", {"o_orderkey", "o_orderpriority"}, nullptr},
                      "l_orderkey",
                      "o_orderkey"};
    q.group_by = {"o_orderpriority"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"}};
    out.emplace_back("colocated_join_agg", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_extendedprice"};
    q.join = JoinSpec{{"part", {"p_partkey", "p_type"}, nullptr},
                      "l_orderkey",
                      "p_partkey"};
    q.group_by = {"p_type"};
    q.aggregates = {{AggFn::kSum, "l_extendedprice", "s"}};
    out.emplace_back("broadcast_join_agg", q);
  }
  {
    QuerySpec q;
    q.scan.table = "orders";
    q.scan.columns = {"o_orderkey", "o_totalprice"};
    q.join = JoinSpec{{"customer", {"c_custkey", "c_nationkey"}, nullptr},
                      "o_custkey",
                      "c_custkey"};
    q.group_by = {"c_nationkey"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "o_totalprice", "s"}};
    out.emplace_back("reshuffle_join_agg", q);
  }
  {
    QuerySpec q;
    q.scan.table = "orders";
    q.scan.columns = {"o_orderkey", "o_totalprice", "o_orderpriority"};
    q.scan.predicate = Predicate::Cmp(*ord.IndexOf("o_totalprice"),
                                      CmpOp::kGt, Value::Dbl(5000.0));
    q.order_by = "o_orderkey";
    out.emplace_back("ordered_scan", q);
  }
  {
    // Low-cardinality int64 predicate + aggregate column: l_quantity's
    // chunks bit-pack, so this exercises the encoded screening path, the
    // SIMD compare on unpacked blocks, and the batch SUM/MIN/MAX fold.
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_quantity"};
    q.scan.predicate = Predicate::And(
        Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kGe, Value::Int(10)),
        Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kLt, Value::Int(40)));
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"},
                    {AggFn::kMin, "l_quantity", "lo"},
                    {AggFn::kMax, "l_quantity", "hi"},
                    {AggFn::kAvg, "l_quantity", "m"}};
    out.emplace_back("bitpacked_predicate_agg", q);
  }
  return out;
}

TEST(ParallelDifferential, QuerySetIsWidthInvariant) {
  for (const auto& [name, spec] : ParallelQuerySet()) {
    ExpectWidthInvariant(spec, CrunchMode::kNone, /*seed=*/7, name);
  }
}

TEST(ParallelDifferential, TpchQuerySetIsWidthInvariant) {
  WidthedClusters* wc = WidthedClusters::Get();
  for (const auto& [name, spec] : TpchQuerySet(wc->topts)) {
    ExpectWidthInvariant(spec, CrunchMode::kNone, /*seed=*/11, name);
  }
}

TEST(ParallelDifferential, HashFilterCrunchIsWidthInvariant) {
  for (const auto& [name, spec] : ParallelQuerySet()) {
    ExpectWidthInvariant(spec, CrunchMode::kHashFilter, /*seed=*/13,
                         "hash_filter/" + name);
  }
}

TEST(ParallelDifferential, ContainerSplitCrunchIsWidthInvariant) {
  for (const auto& [name, spec] : ParallelQuerySet()) {
    ExpectWidthInvariant(spec, CrunchMode::kContainerSplit, /*seed=*/17,
                         "container_split/" + name);
  }
}

// Late-materialization differential: every scan pipeline (row-wise oracle,
// block-eval, late-mat) must return BIT-IDENTICAL rows at every pool width
// under every crunch mode. One baseline per (query, crunch): the row-wise
// serial run.
TEST(ParallelDifferential, ScanModesAreBitIdenticalAcrossWidthsAndCrunch) {
  WidthedClusters* wc = WidthedClusters::Get();
  constexpr CrunchMode kCrunches[] = {
      CrunchMode::kNone, CrunchMode::kHashFilter, CrunchMode::kContainerSplit};
  constexpr ScanMode kModes[] = {ScanMode::kRowWise, ScanMode::kBlockEval,
                                 ScanMode::kLateMat};
  for (const auto& [name, spec] : ParallelQuerySet()) {
    for (CrunchMode crunch : kCrunches) {
      std::vector<Row> baseline;
      bool have_baseline = false;
      for (ScanMode mode : kModes) {
        for (int width : kWidths) {
          EonSession session(wc->by_width[width]->cluster.get(), "",
                             /*seed=*/29);
          session.set_crunch_mode(crunch);
          session.set_scan_mode(mode);
          auto result = session.Execute(spec);
          ASSERT_TRUE(result.ok())
              << name << " " << ScanModeName(mode) << " width " << width
              << ": " << result.status().ToString();
          if (!have_baseline) {
            baseline = std::move(result->rows);
            have_baseline = true;
            continue;
          }
          std::string diff;
          EXPECT_TRUE(BitIdentical(result->rows, baseline, &diff))
              << name << " crunch " << static_cast<int>(crunch) << " mode "
              << ScanModeName(mode) << " width " << width
              << " diverged from row-wise serial: " << diff;
        }
      }
    }
  }
}

// SIMD-vs-scalar differential: pinning every kernel to the scalar
// reference (what -DEON_SIMD=off compiles in permanently) must not change
// a single output bit, for every query shape, at serial and parallel
// widths, under all three scan pipelines. ForceScalarForTest flips a
// global, so the scalar runs are grouped after the SIMD baseline of each
// (query, mode, width) cell with no query in flight across the flip.
TEST(ParallelDifferential, ScalarKernelsAreBitIdenticalToSimd) {
  WidthedClusters* wc = WidthedClusters::Get();
  constexpr ScanMode kModes[] = {ScanMode::kRowWise, ScanMode::kBlockEval,
                                 ScanMode::kLateMat};
  for (const auto& [name, spec] : ParallelQuerySet()) {
    for (ScanMode mode : kModes) {
      for (int width : {1, 4}) {
        EonSession simd_session(wc->by_width[width]->cluster.get(), "",
                                /*seed=*/31);
        simd_session.set_scan_mode(mode);
        auto with_simd = simd_session.Execute(spec);
        ASSERT_TRUE(with_simd.ok()) << name << ": "
                                    << with_simd.status().ToString();

        simd::ForceScalarForTest(true);
        EonSession scalar_session(wc->by_width[width]->cluster.get(), "",
                                  /*seed=*/31);
        scalar_session.set_scan_mode(mode);
        auto with_scalar = scalar_session.Execute(spec);
        simd::ForceScalarForTest(false);
        ASSERT_TRUE(with_scalar.ok()) << name << ": "
                                      << with_scalar.status().ToString();
        EXPECT_EQ(with_scalar->profile.exec_kernel_isa, "scalar") << name;

        std::string diff;
        EXPECT_TRUE(BitIdentical(with_scalar->rows, with_simd->rows, &diff))
            << name << " mode " << ScanModeName(mode) << " width " << width
            << ": scalar diverged from SIMD: " << diff;
      }
    }
  }
}

// The pool actually parallelizes: a multi-container scan at width 4 must
// report more than one task and a busiest-lane CPU below the total task
// CPU whenever more than one lane did work (checked loosely — on a
// single-core CI box scheduling may still serialize the lanes).
TEST(ParallelDifferential, ProfileReportsParallelExecution) {
  WidthedClusters* wc = WidthedClusters::Get();
  EonSession session(wc->by_width[4]->cluster.get(), "", 23);
  QuerySpec q;
  q.scan.table = "lineitem";
  q.scan.columns = {"l_orderkey", "l_quantity"};
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->profile.exec_threads, 4u);
  EXPECT_GT(result->profile.exec_tasks, 1u);
  EXPECT_GE(result->profile.exec_task_cpu_micros,
            result->profile.exec_critical_cpu_micros);
  EXPECT_GE(result->profile.Parallelism(), 1.0);
}

// ---------------------------------------------------------------------------
// Packed morsels: a day-partitioned table loaded in small batches splits
// into thousands of 1–3-row containers, which the executor scans in packs
// of up to 64 containers. Alongside them: one big container per shard
// (it joins a pack while the row budget allows; cold, under pushdown, it
// is pushed to the store and cuts the open pack), delete vectors, and
// unflushed WOS rows. Every width × crunch
// mode × pushdown setting must be bit-identical to width 1 and match the
// reference executor.

constexpr int64_t kPackedDays = 400;

Schema PackedSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"day", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"note", DataType::kString}});
}

Row PackedRow(int64_t id, int64_t day) {
  return Row{Value::Int(id), Value::Int(day),
             Value::Dbl(static_cast<double>((id * 37) % 1000) / 4),
             Value::Str("n" + std::to_string(id % 97))};
}

struct PackedClusters {
  testing_support::RefDatabase reference;
  struct Instance {
    SimClock clock;
    std::unique_ptr<SimObjectStore> store;
    std::unique_ptr<EonCluster> cluster;
  };
  /// Keyed by (pushdown mode, width).
  std::map<std::pair<int, int>, std::unique_ptr<Instance>> by_config;

  static PackedClusters* Get() {
    static PackedClusters* instance = [] {
      auto* pc = new PackedClusters();
      // Load order: tiny batches, one big day-0 batch, more tiny batches,
      // so each shard's container list has big containers between runs
      // of tiny ones.
      std::vector<std::vector<Row>> loads;
      int64_t next_id = 0;
      auto tiny_load = [&] {
        std::vector<Row> rows;
        for (int64_t day = 1; day <= kPackedDays; ++day) {
          for (int r = 0; r < 2; ++r) rows.push_back(PackedRow(next_id++, day));
        }
        loads.push_back(std::move(rows));
      };
      tiny_load();
      tiny_load();
      {
        std::vector<Row> big;
        for (int r = 0; r < 4500; ++r) big.push_back(PackedRow(next_id++, 0));
        loads.push_back(std::move(big));
      }
      tiny_load();
      std::vector<Row> wos_rows;
      for (int r = 0; r < 20; ++r) {
        wos_rows.push_back(PackedRow(next_id++, r % 7 + 1));
      }
      auto deleted = [](const Row& row) {
        const int64_t id = row[0].int_value();
        return (id >= 100 && id < 160) || row[1].int_value() == 5;
      };

      std::vector<Row> expected;
      for (const std::vector<Row>& load : loads) {
        for (const Row& row : load) {
          if (!deleted(row)) expected.push_back(row);
        }
      }
      for (const Row& row : wos_rows) expected.push_back(row);
      pc->reference["packed"] = {PackedSchema(), expected};

      for (int pushdown : {0, 1}) {
        for (int width : kWidths) {
          auto inst = std::make_unique<Instance>();
          SimStoreOptions sopts;
          sopts.get_latency_micros = 0;
          sopts.put_latency_micros = 0;
          sopts.list_latency_micros = 0;
          inst->store = std::make_unique<SimObjectStore>(sopts, &inst->clock);
          ClusterOptions copts;
          copts.num_shards = 3;
          copts.k_safety = 2;
          copts.exec_threads = width;
          copts.pushdown = pushdown;
          copts.wos = 1;
          copts.group_commit_micros = 0;
          copts.wos_flush_rows = int64_t{1} << 40;
          std::vector<NodeSpec> specs;
          for (int i = 1; i <= 5; ++i) {
            specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
          }
          auto cluster = EonCluster::Create(inst->store.get(), &inst->clock,
                                            copts, specs);
          EON_CHECK(cluster.ok());
          inst->cluster = std::move(cluster).value();
          EonCluster* c = inst->cluster.get();
          EON_CHECK(CreateTable(c, "packed", PackedSchema(), "day",
                                {ProjectionSpec{"packed_super", {}, {"id"},
                                                {"id"}}})
                        .ok());
          for (const std::vector<Row>& load : loads) {
            EON_CHECK(CopyInto(c, "packed", load).ok());
          }
          EON_CHECK(DeleteWhere(c, "packed",
                                Predicate::And(
                                    Predicate::Cmp(0, CmpOp::kGe,
                                                   Value::Int(100)),
                                    Predicate::Cmp(0, CmpOp::kLt,
                                                   Value::Int(160))))
                        .ok());
          EON_CHECK(DeleteWhere(c, "packed",
                                Predicate::Cmp(1, CmpOp::kEq, Value::Int(5)))
                        .ok());
          EON_CHECK(InsertInto(c, "packed", wos_rows).ok());
          // Cold big containers: with pushdown on, a selective scan pushes
          // them to the store while their tiny neighbours stay local.
          pc->by_config[{pushdown, width}] = std::move(inst);
        }
      }
      return pc;
    }();
    return instance;
  }
};

/// Evict the big containers' files from every cache: with pushdown on, a
/// selective scan then pushes them to the store while their tiny
/// neighbours stay local (a local read of them warms the cache again).
void ChillBigContainers(EonCluster* c) {
  for (const auto& holder : c->nodes()) {
    auto snapshot = holder->catalog()->snapshot();
    for (const auto& [oid, meta] : snapshot->containers) {
      if (meta.row_count < 100) continue;
      for (const auto& node : c->nodes()) {
        node->cache()->DropPrefix(meta.base_key + "_c");
      }
    }
  }
}

std::vector<std::pair<std::string, QuerySpec>> PackedQuerySet() {
  std::vector<std::pair<std::string, QuerySpec>> out;
  {
    QuerySpec q;
    q.scan.table = "packed";
    q.scan.columns = {"id", "day", "v", "note"};
    out.emplace_back("plain_scan", q);
  }
  {
    QuerySpec q;
    q.scan.table = "packed";
    q.scan.columns = {"id", "note"};
    q.scan.predicate = Predicate::And(
        Predicate::Cmp(2, CmpOp::kLt, Value::Dbl(40.0)),
        Predicate::Cmp(1, CmpOp::kLe, Value::Int(300)));
    out.emplace_back("selective_scan", q);
  }
  {
    QuerySpec q;
    q.scan.table = "packed";
    q.scan.columns = {"day"};
    q.scan.predicate = Predicate::Cmp(1, CmpOp::kGe, Value::Int(200));
    q.group_by = {"day"};
    q.aggregates = {{AggFn::kCount, "", "n"}, {AggFn::kSum, "id", "s"}};
    out.emplace_back("day_group_by", q);
  }
  {
    QuerySpec q;
    q.scan.table = "packed";
    q.scan.columns = {"id"};
    q.scan.predicate = Predicate::Cmp(2, CmpOp::kLt, Value::Dbl(20.0));
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "id", "s"},
                    {AggFn::kMax, "v", "hi"}};
    out.emplace_back("global_aggregate", q);
  }
  return out;
}

TEST(ParallelDifferential, PackedMorselsAreBitIdenticalAndMatchReference) {
  PackedClusters* pc = PackedClusters::Get();
  constexpr CrunchMode kCrunches[] = {
      CrunchMode::kNone, CrunchMode::kContainerSplit, CrunchMode::kHashFilter};
  uint64_t pushed = 0;
  for (int pushdown : {0, 1}) {
    for (CrunchMode crunch : kCrunches) {
      for (const auto& [name, spec] : PackedQuerySet()) {
        const std::string label = name + " pushdown " +
                                  std::to_string(pushdown) + " crunch " +
                                  std::to_string(static_cast<int>(crunch));
        std::vector<Row> serial;
        for (int width : kWidths) {
          EonCluster* c = pc->by_config[{pushdown, width}]->cluster.get();
          if (pushdown == 1) ChillBigContainers(c);
          EonSession session(c, "", /*seed=*/41);
          session.set_crunch_mode(crunch);
          auto result = session.Execute(spec);
          ASSERT_TRUE(result.ok())
              << label << " width " << width << ": "
              << result.status().ToString();
          pushed += result->profile.pushdown_containers_pushed;
          if (width == 1) {
            serial = std::move(result->rows);
            auto expected = ReferenceExecute(pc->reference, spec);
            ASSERT_TRUE(expected.ok()) << label;
            std::string diff;
            EXPECT_TRUE(SameResults(serial, *expected, /*ordered=*/false,
                                    &diff))
                << label << " vs reference: " << diff;
            continue;
          }
          std::string diff;
          EXPECT_TRUE(BitIdentical(result->rows, serial, &diff))
              << label << ": width " << width << " diverged: " << diff;
        }
      }
    }
  }
  // The pushed-container cut really happened.
  EXPECT_GT(pushed, 0u);
}

// The pack rule, replayed from the catalog: per shard, containers in oid
// order join the open pack until it holds 64 containers or would pass
// 4,096 rows; the shard's WOS rows are one more task. A plain serial scan
// with no crunch and no pushdown must run exactly that many tasks, at any
// width.
TEST(ParallelDifferential, PackedMorselsFollowThePackRule) {
  PackedClusters* pc = PackedClusters::Get();
  QuerySpec q = PackedQuerySet()[0].second;
  for (int width : kWidths) {
    EonCluster* c = pc->by_config[{0, width}]->cluster.get();
    EonSession session(c, "", /*seed=*/43);
    auto result = session.Execute(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const obs::QueryProfile& p = result->profile;

    // Nodes track only their subscribed shards' containers: take each
    // shard's list from a node that holds it.
    std::vector<std::shared_ptr<const CatalogState>> snapshots;
    for (const auto& node : c->nodes()) {
      snapshots.push_back(node->catalog()->snapshot());
    }
    const CatalogState& any = *snapshots.front();
    const ProjectionDef* proj = nullptr;
    for (const auto& [oid, def] : any.projections) {
      if (def.name == "packed_super") proj = &def;
    }
    ASSERT_NE(proj, nullptr);
    uint64_t packs = 0, containers = 0;
    size_t full_packs = 0;
    for (ShardId shard = 0; shard < any.sharding.num_segment_shards;
         ++shard) {
      std::vector<const StorageContainerMeta*> list;
      for (const auto& snapshot : snapshots) {
        auto held = snapshot->ContainersOf(proj->oid, shard);
        if (held.size() > list.size()) list = std::move(held);
      }
      size_t open = 0;
      uint64_t rows = 0;
      for (const StorageContainerMeta* meta : list) {
        ++containers;
        if (open > 0 && open < 64 && rows + meta->row_count <= 4096) {
          ++open;
          rows += meta->row_count;
          if (open == 64) ++full_packs;
          continue;
        }
        ++packs;
        open = 1;
        rows = meta->row_count;
      }
    }
    ASSERT_GT(containers, 2000u);
    EXPECT_GT(full_packs, 0u);  // Some packs are cut at exactly 64.
    EXPECT_EQ(p.containers_total, containers);
    // One WOS task per shard holding memtable rows (all of them here).
    EXPECT_EQ(p.exec_tasks, packs + any.sharding.num_segment_shards)
        << "width " << width;
  }
}

}  // namespace
}  // namespace eon
