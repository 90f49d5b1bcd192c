// A deliberately naive, single-node reference implementation of QuerySpec
// over raw in-memory rows. Used for differential testing: the distributed
// engine (under any participation, crunch mode, or failure schedule) must
// produce exactly what this does.

#ifndef EON_TESTS_REFERENCE_EXECUTOR_H_
#define EON_TESTS_REFERENCE_EXECUTOR_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/query.h"
#include "workload/tpch.h"

namespace eon {
namespace testing_support {

/// In-memory relation: schema + rows.
struct RefTable {
  Schema schema;
  std::vector<Row> rows;
};

using RefDatabase = std::map<std::string, RefTable>;

inline RefDatabase TpchReferenceDb(const TpchData& data) {
  return RefDatabase{
      {"customer", {TpchCustomerSchema(), data.customers}},
      {"orders", {TpchOrdersSchema(), data.orders}},
      {"lineitem", {TpchLineitemSchema(), data.lineitems}},
      {"part", {TpchPartSchema(), data.parts}},
  };
}

/// Execute `spec` naively. Mirrors the engine's documented semantics:
/// scan → inner equi-join → group/aggregate (SQL one-row-for-empty-global-
/// aggregate rule) → order → limit. Output schema matches the engine's.
Result<std::vector<Row>> ReferenceExecute(const RefDatabase& db,
                                          const QuerySpec& spec);

/// Compare result sets. When `ordered` is false both sides are sorted by
/// their canonical text first (for queries with no ORDER BY, row order is
/// unspecified). Rows then compare value by value; doubles match within a
/// 1e-9 relative tolerance because distributed aggregation sums in a
/// different order.
bool SameResults(const std::vector<Row>& a, const std::vector<Row>& b,
                 bool ordered, std::string* diff);

}  // namespace testing_support
}  // namespace eon

#endif  // EON_TESTS_REFERENCE_EXECUTOR_H_
