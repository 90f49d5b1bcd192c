#include "tests/reference_executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace eon {
namespace testing_support {

namespace {

/// Engine name-resolution mirror: requested columns + extras, deduped.
std::vector<std::string> ResolveNames(const std::vector<std::string>& base,
                                      const std::vector<std::string>& extras) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const std::string& c : base) {
    if (seen.insert(c).second) out.push_back(c);
  }
  for (const std::string& c : extras) {
    if (seen.insert(c).second) out.push_back(c);
  }
  return out;
}

struct AggAccum {
  int64_t count = 0;
  double sum = 0;
  int64_t sum_int = 0;
  bool sum_is_int = true;
  Value min, max;
  std::set<Value> distinct;
};

}  // namespace

Result<std::vector<Row>> ReferenceExecute(const RefDatabase& db,
                                          const QuerySpec& spec) {
  auto left_it = db.find(spec.scan.table);
  if (left_it == db.end()) {
    return Status::NotFound("no such table: " + spec.scan.table);
  }
  const RefTable& left_table = left_it->second;

  // --- Name resolution, mirroring the engine. ---
  std::vector<std::string> left_extras;
  if (spec.join) left_extras.push_back(spec.join->left_key);
  for (const std::string& g : spec.group_by) left_extras.push_back(g);
  for (const AggSpec& a : spec.aggregates) {
    if (!a.column.empty()) left_extras.push_back(a.column);
  }
  if (spec.join) {
    std::vector<std::string> filtered;
    for (const std::string& name : left_extras) {
      if (left_table.schema.IndexOf(name).ok()) filtered.push_back(name);
    }
    left_extras = std::move(filtered);
  }
  const std::vector<std::string> left_names =
      ResolveNames(spec.scan.columns, left_extras);

  std::vector<size_t> left_cols;
  for (const std::string& name : left_names) {
    EON_ASSIGN_OR_RETURN(size_t idx, left_table.schema.IndexOf(name));
    left_cols.push_back(idx);
  }

  // --- Scan left. ---
  std::vector<Row> data;
  std::vector<std::string> names = left_names;
  for (const Row& full : left_table.rows) {
    if (spec.scan.predicate && !spec.scan.predicate->Eval(full)) continue;
    Row out;
    out.reserve(left_cols.size());
    for (size_t c : left_cols) out.push_back(full[c]);
    data.push_back(std::move(out));
  }

  // --- Join. ---
  if (spec.join) {
    auto right_it = db.find(spec.join->right.table);
    if (right_it == db.end()) {
      return Status::NotFound("no such table: " + spec.join->right.table);
    }
    const RefTable& right_table = right_it->second;

    std::vector<std::string> right_extras = {spec.join->right_key};
    for (const std::string& g : spec.group_by) {
      if (right_table.schema.IndexOf(g).ok() &&
          std::find(left_names.begin(), left_names.end(), g) ==
              left_names.end()) {
        right_extras.push_back(g);
      }
    }
    const std::vector<std::string> right_names =
        ResolveNames(spec.join->right.columns, right_extras);
    std::vector<size_t> right_cols;
    for (const std::string& name : right_names) {
      EON_ASSIGN_OR_RETURN(size_t idx, right_table.schema.IndexOf(name));
      right_cols.push_back(idx);
    }

    std::vector<Row> right_rows;
    for (const Row& full : right_table.rows) {
      if (spec.join->right.predicate &&
          !spec.join->right.predicate->Eval(full)) {
        continue;
      }
      Row out;
      out.reserve(right_cols.size());
      for (size_t c : right_cols) out.push_back(full[c]);
      right_rows.push_back(std::move(out));
    }

    size_t left_key = SIZE_MAX, right_key = SIZE_MAX;
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == spec.join->left_key) left_key = i;
    }
    for (size_t i = 0; i < right_names.size(); ++i) {
      if (right_names[i] == spec.join->right_key) right_key = i;
    }
    if (left_key == SIZE_MAX || right_key == SIZE_MAX) {
      return Status::InvalidArgument("join key not in scan output");
    }

    std::multimap<Value, const Row*> hash;
    for (const Row& r : right_rows) hash.emplace(r[right_key], &r);
    std::vector<Row> joined;
    for (const Row& l : data) {
      if (l[left_key].is_null()) continue;
      auto [lo, hi] = hash.equal_range(l[left_key]);
      for (auto it = lo; it != hi; ++it) {
        Row out = l;
        out.insert(out.end(), it->second->begin(), it->second->end());
        joined.push_back(std::move(out));
      }
    }
    data = std::move(joined);
    std::set<std::string> taken(names.begin(), names.end());
    for (const std::string& rn : right_names) {
      std::string name = rn;
      if (taken.count(name)) name = spec.join->right.table + "." + name;
      taken.insert(name);
      names.push_back(name);
    }
  }

  // --- Group / aggregate. ---
  std::vector<Row> result;
  if (!spec.aggregates.empty() || !spec.group_by.empty()) {
    std::vector<size_t> group_pos;
    for (const std::string& g : spec.group_by) {
      auto it = std::find(names.begin(), names.end(), g);
      if (it == names.end()) {
        return Status::InvalidArgument("group-by column not in output: " + g);
      }
      group_pos.push_back(static_cast<size_t>(it - names.begin()));
    }
    std::vector<size_t> agg_pos;
    for (const AggSpec& a : spec.aggregates) {
      if (a.column.empty()) {
        agg_pos.push_back(SIZE_MAX);
        continue;
      }
      auto it = std::find(names.begin(), names.end(), a.column);
      if (it == names.end()) {
        return Status::InvalidArgument("aggregate column not in output: " +
                                       a.column);
      }
      agg_pos.push_back(static_cast<size_t>(it - names.begin()));
    }

    struct KeyLess {
      bool operator()(const std::vector<Value>& a,
                      const std::vector<Value>& b) const {
        for (size_t i = 0; i < a.size(); ++i) {
          int c = a[i].Compare(b[i]);
          if (c != 0) return c < 0;
        }
        return false;
      }
    };
    std::map<std::vector<Value>, std::vector<AggAccum>, KeyLess> groups;
    for (const Row& row : data) {
      std::vector<Value> key;
      for (size_t p : group_pos) key.push_back(row[p]);
      auto [it, inserted] =
          groups.try_emplace(key, std::vector<AggAccum>(spec.aggregates.size()));
      for (size_t a = 0; a < spec.aggregates.size(); ++a) {
        AggAccum& acc = it->second[a];
        const AggSpec& as = spec.aggregates[a];
        const Value& v = agg_pos[a] == SIZE_MAX ? row[0] : row[agg_pos[a]];
        switch (as.fn) {
          case AggFn::kCount:
            acc.count++;
            break;
          case AggFn::kSum:
          case AggFn::kAvg:
            if (!v.is_null()) {
              acc.count++;
              acc.sum += v.AsDouble();
              if (v.type() == DataType::kInt64) {
                acc.sum_int += v.int_value();
              } else {
                acc.sum_is_int = false;
              }
            }
            break;
          case AggFn::kMin:
            if (!v.is_null() && (acc.min.is_null() || v.Compare(acc.min) < 0)) {
              acc.min = v;
            }
            break;
          case AggFn::kMax:
            if (!v.is_null() && (acc.max.is_null() || v.Compare(acc.max) > 0)) {
              acc.max = v;
            }
            break;
          case AggFn::kCountDistinct:
            if (!v.is_null()) acc.distinct.insert(v);
            break;
        }
      }
    }
    if (groups.empty() && spec.group_by.empty()) {
      groups.try_emplace({}, std::vector<AggAccum>(spec.aggregates.size()));
    }
    for (const auto& [key, accums] : groups) {
      Row row = key;
      for (size_t a = 0; a < accums.size(); ++a) {
        const AggAccum& acc = accums[a];
        const AggSpec& as = spec.aggregates[a];
        DataType input_type = DataType::kInt64;
        if (agg_pos[a] != SIZE_MAX && !data.empty()) {
          // Infer from any non-null input later; fall back to NULL typing.
        }
        switch (as.fn) {
          case AggFn::kCount:
            row.push_back(Value::Int(acc.count));
            break;
          case AggFn::kSum:
            if (acc.count == 0) {
              row.push_back(Value::Null(input_type));
            } else if (acc.sum_is_int) {
              row.push_back(Value::Int(acc.sum_int));
            } else {
              row.push_back(Value::Dbl(acc.sum));
            }
            break;
          case AggFn::kAvg:
            row.push_back(acc.count == 0
                              ? Value::Null(DataType::kDouble)
                              : Value::Dbl(acc.sum /
                                           static_cast<double>(acc.count)));
            break;
          case AggFn::kMin:
            row.push_back(acc.min);
            break;
          case AggFn::kMax:
            row.push_back(acc.max);
            break;
          case AggFn::kCountDistinct:
            row.push_back(Value::Int(static_cast<int64_t>(acc.distinct.size())));
            break;
        }
      }
      result.push_back(std::move(row));
    }
    // Output names become group cols + aggregate aliases.
    std::vector<std::string> out_names = spec.group_by;
    for (const AggSpec& a : spec.aggregates) {
      out_names.push_back(a.as.empty() ? std::string(AggFnName(a.fn)) + "(" +
                                             a.column + ")"
                                       : a.as);
    }
    names = std::move(out_names);
  } else {
    result = std::move(data);
  }

  // --- Order / limit. ---
  if (spec.order_by) {
    auto it = std::find(names.begin(), names.end(), *spec.order_by);
    if (it == names.end()) {
      return Status::InvalidArgument("order-by column not in output: " +
                                     *spec.order_by);
    }
    const size_t pos = static_cast<size_t>(it - names.begin());
    std::stable_sort(result.begin(), result.end(),
                     [&](const Row& a, const Row& b) {
                       int c = a[pos].Compare(b[pos]);
                       return spec.order_desc ? c > 0 : c < 0;
                     });
  }
  if (spec.limit >= 0 && result.size() > static_cast<size_t>(spec.limit)) {
    result.resize(static_cast<size_t>(spec.limit));
  }
  return result;
}

namespace {

std::string NormalizeValue(const Value& v) {
  if (v.is_null()) return "<null>";
  switch (v.type()) {
    case DataType::kInt64:
      return "i" + std::to_string(v.int_value());
    case DataType::kDouble: {
      char buf[64];
      snprintf(buf, sizeof(buf), "d%.9g", v.dbl_value());
      return buf;
    }
    case DataType::kString:
      return "s" + v.str_value();
  }
  return "?";
}

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) {
      line += NormalizeValue(v);
      line += "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Doubles match within a relative 1e-9: distributed aggregation sums in
/// another order than the reference, so the last bits may differ. Every
/// other value (and NULL-ness) matches exactly.
bool NearlyEqual(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() == DataType::kDouble) {
    const double x = a.dbl_value(), y = b.dbl_value();
    if (x == y) return true;
    const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a.Compare(b) == 0;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!NearlyEqual(a[i], b[i])) return false;
  }
  return true;
}

/// A row with doubles at full precision, for mismatch reports.
std::string ExactText(const Row& row) {
  std::string line;
  for (const Value& v : row) {
    if (!v.is_null() && v.type() == DataType::kDouble) {
      char buf[64];
      snprintf(buf, sizeof(buf), "d%.17g", v.dbl_value());
      line += buf;
    } else {
      line += NormalizeValue(v);
    }
    line += "|";
  }
  return line;
}

}  // namespace

bool SameResults(const std::vector<Row>& a, const std::vector<Row>& b,
                 bool ordered, std::string* diff) {
  if (a.size() != b.size()) {
    if (diff) {
      *diff = "row count " + std::to_string(a.size()) + " vs " +
              std::to_string(b.size());
    }
    return false;
  }
  // Pair the rows up — by position, or (unordered) by their canonical
  // form — then compare each pair value by value, so two doubles a few
  // ulps apart compare equal even when rounding puts them on different
  // sides of a printed digit.
  std::vector<size_t> ia(a.size()), ib(b.size());
  std::iota(ia.begin(), ia.end(), size_t{0});
  std::iota(ib.begin(), ib.end(), size_t{0});
  if (!ordered) {
    const std::vector<std::string> ca = Canonical(a);
    const std::vector<std::string> cb = Canonical(b);
    std::stable_sort(ia.begin(), ia.end(),
                     [&](size_t x, size_t y) { return ca[x] < ca[y]; });
    std::stable_sort(ib.begin(), ib.end(),
                     [&](size_t x, size_t y) { return cb[x] < cb[y]; });
  }
  for (size_t i = 0; i < ia.size(); ++i) {
    if (!SameRow(a[ia[i]], b[ib[i]])) {
      if (diff) {
        *diff = "row " + std::to_string(i) + ": " + ExactText(a[ia[i]]) +
                " vs " + ExactText(b[ib[i]]);
      }
      return false;
    }
  }
  return true;
}

}  // namespace testing_support
}  // namespace eon
