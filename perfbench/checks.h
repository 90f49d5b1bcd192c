// Correctness checks the benchmark applies to the program's outputs, kept
// apart from the workloads so the self-test can feed each one a
// deliberately wrong input.

#ifndef EON_PERFBENCH_CHECKS_H_
#define EON_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/query.h"
#include "metered_store.h"

namespace perfbench {

/// `got` is one execution's result of `spec`; `reference` is the
/// reference executor's answer for `spec` with its LIMIT removed. Rows
/// must match as a multiset; with ORDER BY they must come in order; with
/// ORDER BY ... LIMIT n they must be n rows of the reference whose ORDER BY
/// keys equal the reference's first n keys (ties at the cut-off may pick
/// any rows).
bool CheckQueryResult(const eon::QuerySpec& spec, const eon::Schema& schema,
                      const std::vector<eon::Row>& got,
                      const std::vector<eon::Row>& reference,
                      std::string* why);

/// Totals of the rows whose INSERT was acknowledged, as the benchmark
/// counted them, against what a query over the table returned.
bool CheckIngestTotals(uint64_t acked_rows, int64_t acked_sum,
                       uint64_t observed_rows, int64_t observed_sum,
                       std::string* why);

/// One reader observation, per writer: (rows seen, SUM(value) seen).
/// Each writer's batches are `batch_rows` rows; `batch_sums[w][i]` is the
/// value total of writer w's first i+1 batches. Every observation must be
/// a whole-batch prefix of each writer's sequence, and must not shrink
/// against `previous` (the reader's last observation; updated on success).
using WriterTotals = std::map<int64_t, std::pair<uint64_t, int64_t>>;
bool CheckReaderPrefix(const WriterTotals& seen, const WriterTotals& previous,
                       uint64_t batch_rows,
                       const std::vector<std::vector<int64_t>>& batch_sums,
                       std::string* why);

/// The decorator's request and byte counts over one query against the
/// program's own profile counters for the same query.
bool CheckStoreAgreement(const StoreCounts& delta,
                         const eon::obs::QueryProfile& profile,
                         std::string* why);

/// Feed every check a correct and a deliberately wrong input; prints one
/// line per case and returns true when each check accepted the first and
/// refused the second.
bool RunCheckSelfTest();

}  // namespace perfbench

#endif  // EON_PERFBENCH_CHECKS_H_
