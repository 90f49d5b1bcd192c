// Differential testing: randomly generated queries run through the full
// distributed engine — under varying participation, crunch scaling modes,
// and node failures — must match a naive single-node reference executor
// on the raw generated data.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "cluster/cluster.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"
#include "tests/reference_executor.h"
#include "workload/tpch.h"

namespace eon {
namespace {

using testing_support::RefDatabase;
using testing_support::ReferenceExecute;
using testing_support::SameResults;
using testing_support::TpchReferenceDb;

/// Shared fixture: one loaded cluster for the whole differential suite
/// (construction is the expensive part).
struct SharedCluster {
  SimClock clock;
  std::unique_ptr<SimObjectStore> store;
  std::unique_ptr<EonCluster> cluster;
  TpchOptions topts;
  TpchData data;
  RefDatabase reference;

  static SharedCluster* Get() {
    static SharedCluster* instance = [] {
      auto* sc = new SharedCluster();
      SimStoreOptions sopts;
      sopts.get_latency_micros = 0;
      sopts.put_latency_micros = 0;
      sopts.list_latency_micros = 0;
      sc->store = std::make_unique<SimObjectStore>(sopts, &sc->clock);
      ClusterOptions copts;
      copts.num_shards = 3;
      copts.k_safety = 2;
      std::vector<NodeSpec> specs;
      for (int i = 1; i <= 5; ++i) {
        specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
      }
      auto cluster =
          EonCluster::Create(sc->store.get(), &sc->clock, copts, specs);
      EON_CHECK(cluster.ok());
      sc->cluster = std::move(cluster).value();
      sc->topts.scale = 0.15;
      sc->data = GenerateTpch(sc->topts);
      sc->reference = TpchReferenceDb(sc->data);
      EON_CHECK(CreateTpchTables(sc->cluster.get()).ok());
      EON_CHECK(LoadTpch(sc->cluster.get(), sc->data, 256).ok());
      return sc;
    }();
    return instance;
  }
};

/// Random query generator over the TPC-H-style schema.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  QuerySpec Next() {
    QuerySpec q;
    const int table_pick = static_cast<int>(rng_.Uniform(4));
    switch (table_pick) {
      case 0: BuildLineitem(&q); break;
      case 1: BuildOrders(&q); break;
      case 2: BuildCustomer(&q); break;
      default: BuildPart(&q); break;
    }
    return q;
  }

 private:
  void MaybeAggregate(QuerySpec* q, const std::string& group_col,
                      const std::string& num_col) {
    if (rng_.Bernoulli(0.7)) {
      if (rng_.Bernoulli(0.7)) q->group_by = {group_col};
      q->aggregates = {{AggFn::kCount, "", "n"}};
      if (rng_.Bernoulli(0.8)) {
        q->aggregates.push_back({AggFn::kSum, num_col, "s"});
      }
      if (rng_.Bernoulli(0.4)) {
        q->aggregates.push_back({AggFn::kMin, num_col, "lo"});
        q->aggregates.push_back({AggFn::kMax, num_col, "hi"});
      }
      if (rng_.Bernoulli(0.25)) {
        q->aggregates.push_back({AggFn::kAvg, num_col, "m"});
      }
      if (rng_.Bernoulli(0.2)) {
        q->aggregates.push_back(
            {AggFn::kCountDistinct, group_col, "dist"});
      }
    }
  }

  PredicatePtr RandomLineitemPred() {
    const Schema li = TpchLineitemSchema();
    std::vector<PredicatePtr> cmps;
    if (rng_.Bernoulli(0.6)) {
      cmps.push_back(Predicate::Cmp(
          *li.IndexOf("l_shipdate"),
          rng_.Bernoulli(0.5) ? CmpOp::kGe : CmpOp::kLt,
          Value::Int(10000 - rng_.UniformRange(0, 720))));
    }
    if (rng_.Bernoulli(0.5)) {
      cmps.push_back(Predicate::Cmp(*li.IndexOf("l_quantity"),
                                    rng_.Bernoulli(0.5) ? CmpOp::kLe
                                                        : CmpOp::kGt,
                                    Value::Int(rng_.UniformRange(1, 50))));
    }
    if (rng_.Bernoulli(0.25)) {
      static const char* kFlags[] = {"A", "N", "R"};
      cmps.push_back(Predicate::Cmp(
          *li.IndexOf("l_returnflag"),
          rng_.Bernoulli(0.7) ? CmpOp::kEq : CmpOp::kNe,
          Value::Str(kFlags[rng_.Uniform(3)])));
    }
    if (cmps.empty()) return nullptr;
    PredicatePtr p = cmps[0];
    for (size_t i = 1; i < cmps.size(); ++i) {
      p = rng_.Bernoulli(0.8) ? Predicate::And(p, cmps[i])
                              : Predicate::Or(p, cmps[i]);
    }
    return p;
  }

  void BuildLineitem(QuerySpec* q) {
    q->scan.table = "lineitem";
    q->scan.columns = {"l_orderkey", "l_quantity", "l_extendedprice",
                       "l_shipmode"};
    q->scan.predicate = RandomLineitemPred();
    if (rng_.Bernoulli(0.4)) {
      q->join = JoinSpec{{"orders", {"o_orderkey", "o_orderpriority"},
                          nullptr},
                         "l_orderkey",
                         "o_orderkey"};
      if (rng_.Bernoulli(0.3)) {
        const Schema ord = TpchOrdersSchema();
        q->join->right.predicate =
            Predicate::Cmp(*ord.IndexOf("o_orderdate"), CmpOp::kGe,
                           Value::Int(10000 - rng_.UniformRange(30, 700)));
      }
      MaybeAggregate(q, rng_.Bernoulli(0.5) ? "l_shipmode"
                                            : "o_orderpriority",
                     "l_extendedprice");
    } else if (rng_.Bernoulli(0.3)) {
      // Broadcast join against the replicated dimension.
      q->join = JoinSpec{{"part", {"p_partkey", "p_type"}, nullptr},
                         "l_orderkey",  // Deliberately odd key: valid ints.
                         "p_partkey"};
      MaybeAggregate(q, "p_type", "l_extendedprice");
    } else {
      MaybeAggregate(q, "l_shipmode", "l_extendedprice");
    }
  }

  void BuildOrders(QuerySpec* q) {
    const Schema ord = TpchOrdersSchema();
    q->scan.table = "orders";
    q->scan.columns = {"o_orderkey", "o_custkey", "o_totalprice",
                       "o_orderpriority"};
    if (rng_.Bernoulli(0.6)) {
      q->scan.predicate =
          Predicate::Cmp(*ord.IndexOf("o_totalprice"),
                         rng_.Bernoulli(0.5) ? CmpOp::kGt : CmpOp::kLe,
                         Value::Dbl(rng_.UniformRange(100, 45000)));
    }
    if (rng_.Bernoulli(0.35)) {
      q->join = JoinSpec{{"customer", {"c_custkey", "c_nationkey"}, nullptr},
                         "o_custkey",
                         "c_custkey"};
      MaybeAggregate(q, "c_nationkey", "o_totalprice");
    } else {
      MaybeAggregate(q, "o_orderpriority", "o_totalprice");
    }
  }

  void BuildCustomer(QuerySpec* q) {
    const Schema cs = TpchCustomerSchema();
    q->scan.table = "customer";
    q->scan.columns = {"c_custkey", "c_nationkey", "c_acctbal"};
    if (rng_.Bernoulli(0.5)) {
      q->scan.predicate =
          Predicate::Cmp(*cs.IndexOf("c_nationkey"), CmpOp::kLt,
                         Value::Int(rng_.UniformRange(1, 25)));
    }
    MaybeAggregate(q, "c_nationkey", "c_acctbal");
  }

  void BuildPart(QuerySpec* q) {
    q->scan.table = "part";
    q->scan.columns = {"p_partkey", "p_type", "p_retailprice"};
    const Schema ps = TpchPartSchema();
    if (rng_.Bernoulli(0.5)) {
      q->scan.predicate =
          Predicate::Cmp(*ps.IndexOf("p_retailprice"), CmpOp::kGe,
                         Value::Dbl(rng_.UniformRange(900, 1900)));
    }
    MaybeAggregate(q, "p_type", "p_retailprice");
  }

  Random rng_;
};

void ExpectMatchesReference(const QuerySpec& spec, const QueryResult& result,
                            const std::string& label) {
  SharedCluster* sc = SharedCluster::Get();
  auto expected = ReferenceExecute(sc->reference, spec);
  ASSERT_TRUE(expected.ok()) << label << ": " << expected.status().ToString();
  std::string diff;
  EXPECT_TRUE(SameResults(result.rows, *expected, /*ordered=*/false, &diff))
      << label << ": " << diff << "\n(table " << spec.scan.table
      << (spec.join ? " join " + spec.join->right.table : "") << ", "
      << result.rows.size() << " vs " << expected->size() << " rows)";
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, RandomQueriesMatchReference) {
  SharedCluster* sc = SharedCluster::Get();
  QueryGen gen(GetParam());
  EonSession session(sc->cluster.get(), "", GetParam());
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec = gen.Next();
    auto result = session.Execute(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectMatchesReference(spec, *result,
                           "seed " + std::to_string(GetParam()) + " query " +
                               std::to_string(i));
  }
}

TEST_P(DifferentialTest, CrunchModesMatchReference) {
  SharedCluster* sc = SharedCluster::Get();
  QueryGen gen(GetParam() * 31 + 7);
  for (CrunchMode mode : {CrunchMode::kHashFilter,
                          CrunchMode::kContainerSplit}) {
    EonSession session(sc->cluster.get(), "", GetParam());
    session.set_crunch_mode(mode);
    for (int i = 0; i < 3; ++i) {
      QuerySpec spec = gen.Next();
      auto result = session.Execute(spec);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectMatchesReference(spec, *result,
                             "crunch mode " +
                                 std::to_string(static_cast<int>(mode)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(DifferentialSuite, TwentyQuerySetMatchesReference) {
  SharedCluster* sc = SharedCluster::Get();
  EonSession session(sc->cluster.get());
  for (const auto& [name, spec] : TpchQuerySet(sc->topts)) {
    auto result = session.Execute(spec);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    if (spec.limit >= 0) continue;  // Ties at the cutoff are unspecified.
    ExpectMatchesReference(spec, *result, name);
  }
}

TEST(DifferentialSuite, NodeDownStillMatchesReference) {
  SharedCluster* sc = SharedCluster::Get();
  ASSERT_TRUE(sc->cluster->KillNode(5).ok());
  QueryGen gen(4242);
  EonSession session(sc->cluster.get());
  for (int i = 0; i < 10; ++i) {
    QuerySpec spec = gen.Next();
    auto result = session.Execute(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectMatchesReference(spec, *result, "node-down query");
  }
  ASSERT_TRUE(sc->cluster->RestartNode(5).ok());
}

// SameResults pairs rows by canonical text, then compares doubles with a
// relative tolerance: sums a few ulps apart match even when they print on
// either side of a rounding boundary, but a real difference still fails.
TEST(DifferentialSuite, SameResultsToleratesUlpsNotErrors) {
  const double boundary = 10891631.65;
  const double above = std::nextafter(boundary, 1e300);
  double below = boundary;
  for (int i = 0; i < 3; ++i) below = std::nextafter(below, -1e300);
  char above_text[32], below_text[32];
  snprintf(above_text, sizeof(above_text), "%.9g", above);
  snprintf(below_text, sizeof(below_text), "%.9g", below);
  ASSERT_STRNE(above_text, below_text) << "values must straddle a boundary";

  const std::vector<Row> a = {{Value::Str("x"), Value::Dbl(above)},
                              {Value::Str("y"), Value::Dbl(1.0)}};
  const std::vector<Row> b = {{Value::Str("y"), Value::Dbl(1.0)},
                              {Value::Str("x"), Value::Dbl(below)}};
  std::string diff;
  EXPECT_TRUE(SameResults(a, b, /*ordered=*/false, &diff)) << diff;
  EXPECT_TRUE(SameResults(a, {a[0], a[1]}, /*ordered=*/true, &diff)) << diff;

  const std::vector<Row> off = {{Value::Str("y"), Value::Dbl(1.0)},
                                {Value::Str("x"), Value::Dbl(above * (1 + 1e-6))}};
  EXPECT_FALSE(SameResults(a, off, /*ordered=*/false, &diff));
  EXPECT_FALSE(diff.empty());
  EXPECT_FALSE(SameResults(a, b, /*ordered=*/true, &diff));
  EXPECT_FALSE(
      SameResults(a, {{Value::Str("x"), Value::Null(DataType::kDouble)},
                      {Value::Str("y"), Value::Dbl(1.0)}},
                  /*ordered=*/true, &diff));
}

}  // namespace
}  // namespace eon
