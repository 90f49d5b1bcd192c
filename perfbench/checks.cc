#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>


namespace perfbench {
namespace {

using eon::Row;
using eon::Value;

/// Doubles match within a relative 1e-9: distributed aggregation sums in
/// another order than the reference, so the last bits may differ.
bool NearlyEqual(const Value& a, const Value& b) {
  if (a.type() == eon::DataType::kDouble &&
      b.type() == eon::DataType::kDouble && !a.is_null() && !b.is_null()) {
    const double x = a.dbl_value(), y = b.dbl_value();
    const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a.type() == b.type() && a.Compare(b) == 0;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!NearlyEqual(a[i], b[i])) return false;
  }
  return true;
}

std::string RowText(const Row& r) {
  std::string out;
  for (const Value& v : r) out += v.ToString() + "|";
  return out;
}

/// Multiset equality under NearlyEqual: both sides sorted, then paired.
bool SameRowsUnordered(std::vector<Row> a, std::vector<Row> b,
                       std::string* why) {
  if (a.size() != b.size()) {
    *why = "row count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  auto less = [](const Row& x, const Row& y) {
    return std::lexicographical_compare(
        x.begin(), x.end(), y.begin(), y.end(),
        [](const Value& p, const Value& q) { return p.Compare(q) < 0; });
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameRow(a[i], b[i])) {
      *why = "row " + RowText(a[i]) + " vs " + RowText(b[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

bool CheckQueryResult(const eon::QuerySpec& spec, const eon::Schema& schema,
                      const std::vector<Row>& got,
                      const std::vector<Row>& reference, std::string* why) {
  int order_col = -1;
  if (spec.order_by.has_value()) {
    auto idx = schema.IndexOf(*spec.order_by);
    if (!idx.ok()) {
      *why = "ORDER BY column missing from result: " + *spec.order_by;
      return false;
    }
    order_col = static_cast<int>(*idx);
  }
  if (order_col >= 0) {
    for (size_t i = 1; i < got.size(); ++i) {
      const int c = got[i - 1][order_col].Compare(got[i][order_col]);
      if (spec.order_desc ? c < 0 : c > 0) {
        *why = "rows out of ORDER BY order at row " + std::to_string(i);
        return false;
      }
    }
  }
  if (spec.limit < 0) {
    std::string diff;
    if (!SameRowsUnordered(got, reference, &diff)) {
      *why = "result differs from reference: " + diff;
      return false;
    }
    return true;
  }
  if (order_col < 0) {
    *why = "LIMIT without ORDER BY has no single answer to check";
    return false;
  }
  // ORDER BY ... LIMIT n: the keys must be the reference's first n keys,
  // and every row must be a row of the full answer.
  const size_t n = std::min(reference.size(), static_cast<size_t>(spec.limit));
  if (got.size() != n) {
    *why = "LIMIT returned " + std::to_string(got.size()) + " rows, want " +
           std::to_string(n);
    return false;
  }
  std::vector<Row> sorted_ref = reference;
  std::stable_sort(sorted_ref.begin(), sorted_ref.end(),
                   [&](const Row& a, const Row& b) {
                     const int c = a[order_col].Compare(b[order_col]);
                     return spec.order_desc ? c > 0 : c < 0;
                   });
  for (size_t i = 0; i < n; ++i) {
    if (!NearlyEqual(got[i][order_col], sorted_ref[i][order_col])) {
      *why = "ORDER BY key " + std::to_string(i) + " differs from reference";
      return false;
    }
    bool found = false;
    for (const Row& e : reference) found = found || SameRow(got[i], e);
    if (!found) {
      *why = "row " + std::to_string(i) + " not in reference answer";
      return false;
    }
  }
  return true;
}

bool CheckIngestTotals(uint64_t acked_rows, int64_t acked_sum,
                       uint64_t observed_rows, int64_t observed_sum,
                       std::string* why) {
  if (acked_rows != observed_rows || acked_sum != observed_sum) {
    *why = "acknowledged " + std::to_string(acked_rows) + " rows / sum " +
           std::to_string(acked_sum) + ", table holds " +
           std::to_string(observed_rows) + " / " +
           std::to_string(observed_sum);
    return false;
  }
  return true;
}

bool CheckReaderPrefix(const WriterTotals& seen, const WriterTotals& previous,
                       uint64_t batch_rows,
                       const std::vector<std::vector<int64_t>>& batch_sums,
                       std::string* why) {
  for (const auto& [writer, totals] : seen) {
    const auto [rows, sum] = totals;
    if (writer < 0 || static_cast<size_t>(writer) >= batch_sums.size()) {
      *why = "unknown writer " + std::to_string(writer);
      return false;
    }
    if (rows % batch_rows != 0) {
      *why = "writer " + std::to_string(writer) + " shows a partial batch (" +
             std::to_string(rows) + " rows)";
      return false;
    }
    const uint64_t batches = rows / batch_rows;
    const auto& sums = batch_sums[writer];
    if (batches > sums.size() || (batches > 0 && sums[batches - 1] != sum)) {
      *why = "writer " + std::to_string(writer) + " rows/sum " +
             std::to_string(rows) + "/" + std::to_string(sum) +
             " is not a prefix of its batches";
      return false;
    }
  }
  for (const auto& [writer, totals] : previous) {
    auto it = seen.find(writer);
    const uint64_t now = it == seen.end() ? 0 : it->second.first;
    if (now < totals.first) {
      *why = "writer " + std::to_string(writer) + " shrank from " +
             std::to_string(totals.first) + " to " + std::to_string(now);
      return false;
    }
  }
  return true;
}

bool CheckStoreAgreement(const StoreCounts& delta,
                         const eon::obs::QueryProfile& profile,
                         std::string* why) {
  struct Pair {
    const char* what;
    uint64_t mine;
    uint64_t program;
  } pairs[] = {
      {"gets", delta.reads(), profile.store_gets},
      {"bytes_read", delta.read_bytes(), profile.store_bytes_read},
      {"lists", delta.of(StoreOp::kList), profile.store_lists},
      {"scans", delta.of(StoreOp::kScan), profile.store_scans},
      {"puts", delta.of(StoreOp::kPut), profile.store_puts},
  };
  for (const Pair& p : pairs) {
    if (p.mine != p.program) {
      *why = std::string("store ") + p.what + ": decorator " +
             std::to_string(p.mine) + ", profile " + std::to_string(p.program);
      return false;
    }
  }
  return true;
}

bool RunCheckSelfTest() {
  using eon::Value;
  bool all = true;
  auto expect = [&](const char* name, bool good_ok, bool bad_ok,
                    const std::string& why) {
    const bool pass = good_ok && !bad_ok;
    printf("selftest %-28s correct input %s, wrong input %s%s%s\n", name,
           good_ok ? "accepted" : "REFUSED", bad_ok ? "ACCEPTED" : "refused",
           why.empty() ? "" : ": ", why.c_str());
    all = all && pass;
  };
  std::string why;

  // One result row changed.
  {
    eon::QuerySpec spec;
    spec.group_by = {"k"};
    spec.order_by = "k";
    eon::Schema schema({{"k", eon::DataType::kInt64},
                        {"n", eon::DataType::kInt64}});
    std::vector<Row> ref = {{Value::Int(1), Value::Int(10)},
                            {Value::Int(2), Value::Int(20)},
                            {Value::Int(3), Value::Int(30)}};
    std::vector<Row> bad = ref;
    bad[1][1] = Value::Int(21);
    std::string ignored;
    const bool good_ok = CheckQueryResult(spec, schema, ref, ref, &ignored);
    why.clear();
    const bool bad_ok = CheckQueryResult(spec, schema, bad, ref, &why);
    expect("result_row_changed", good_ok, bad_ok, why);

    eon::QuerySpec top = spec;
    top.order_by = "n";
    top.order_desc = true;
    top.limit = 2;
    std::vector<Row> good_top = {ref[2], ref[1]};
    std::vector<Row> bad_top = {ref[2], ref[0]};
    const bool top_ok = CheckQueryResult(top, schema, good_top, ref, &ignored);
    why.clear();
    const bool top_bad = CheckQueryResult(top, schema, bad_top, ref, &why);
    expect("top_k_row_changed", top_ok, top_bad, why);
  }

  // One acknowledged row dropped.
  {
    std::string ignored;
    const bool good_ok = CheckIngestTotals(30, 600, 30, 600, &ignored);
    why.clear();
    const bool bad_ok = CheckIngestTotals(30, 600, 29, 583, &why);
    expect("acked_row_dropped", good_ok, bad_ok, why);
  }

  // A reader observing half a batch, or going backwards.
  {
    const std::vector<std::vector<int64_t>> sums = {{10, 25}, {7, 9}};
    WriterTotals prev = {{0, {10, 10}}};
    WriterTotals good = {{0, {20, 25}}, {1, {10, 7}}};
    WriterTotals partial = {{0, {20, 25}}, {1, {9, 6}}};
    WriterTotals shrunk = {{1, {10, 7}}};
    std::string ignored;
    const bool good_ok = CheckReaderPrefix(good, prev, 10, sums, &ignored);
    why.clear();
    const bool partial_ok = CheckReaderPrefix(partial, prev, 10, sums, &why);
    expect("reader_partial_batch", good_ok, partial_ok, why);
    why.clear();
    const bool shrunk_ok = CheckReaderPrefix(shrunk, prev, 10, sums, &why);
    expect("reader_shrank", good_ok, shrunk_ok, why);
  }

  // One decorator byte count off by one.
  {
    StoreCounts d;
    d.calls[static_cast<int>(StoreOp::kGet)] = 12;
    d.bytes[static_cast<int>(StoreOp::kGet)] = 4096;
    eon::obs::QueryProfile p;
    p.store_gets = 12;
    p.store_bytes_read = 4096;
    std::string ignored;
    const bool good_ok = CheckStoreAgreement(d, p, &ignored);
    d.bytes[static_cast<int>(StoreOp::kGet)] += 1;
    why.clear();
    const bool bad_ok = CheckStoreAgreement(d, p, &why);
    expect("store_bytes_off_by_one", good_ok, bad_ok, why);
  }
  printf("selftest %s\n", all ? "passed" : "FAILED");
  return all;
}

}  // namespace perfbench
