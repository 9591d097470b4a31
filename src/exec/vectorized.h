// Vectorized (batch-at-a-time) operator kernels over row-id intermediates —
// the executor's production path.
//
// Every intermediate carries base-table row-id columns instead of payload
// columns (exec/rowset.h); payload values are gathered through the row ids
// at first use. Scans stream their input in fixed-size batches (default 1024
// rows) through branch-free selection vectors (common/selvec.h); the hash
// join builds a flat bucket-segment table probed batch-at-a-time, and a hash
// join over a leaf scan fuses the scan's filter into its first probe. Merge
// and nested-loop joins gather their keys through the row ids and enumerate
// match pairs exactly like the row-at-a-time kernels. Every kernel emits the
// row-at-a-time oracle's rows in bit-identical order at every batch and
// thread-pool size (see DESIGN.md "Vectorized execution").
#ifndef LPCE_EXEC_VECTORIZED_H_
#define LPCE_EXEC_VECTORIZED_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/rowset.h"
#include "query/query.h"
#include "storage/database.h"
#include "storage/table.h"

namespace lpce::exec {

/// Rows per batch when the caller does not name a size: large enough to
/// amortize per-batch dispatch, small enough that one batch's selection
/// vector and gathered keys stay cache-resident.
inline constexpr int kDefaultBatchSize = 1024;

/// Batch scan: drives the table (or, for index scans, the row list the
/// driving index produced) through `residual` predicates batch-at-a-time
/// with selection vectors. The surviving selection vector becomes the
/// output's single row-id column; `required` is recorded in the schema
/// unmaterialized. `index_rows == nullptr` scans the whole table in storage
/// order. Same rows, same order as the row-at-a-time scan.
RowSetPtr BatchScan(const db::Table& table, int32_t table_id,
                    const std::vector<uint32_t>* index_rows,
                    const std::vector<qry::Predicate>& residual,
                    const std::vector<db::ColRef>& required, int batch_size,
                    int num_threads);

/// Late hash join: both sides carry row-id columns; join keys and residual-
/// key values are gathered through the row-id indirection at probe time
/// (common/selvec.h GatherGathered) and the output carries one row-id column
/// per table in `out_rid_tables` — no payload column is ever materialized.
/// `required` is recorded in the output schema unmaterialized. Two phases:
/// the probe collects a match list (matched outer rows with their match
/// counts, inner rows of every match), then every output column is allocated
/// at its exact size and written once. Per-key matches enumerate in
/// ascending inner-row order and probe batches keep their order, so the
/// emitted rows are bit-identical to the row oracle's at every batch and
/// pool size. Sets *overflow when more than `max_rows` rows would be emitted
/// (0 = unlimited).
RowSetPtr LateHashJoin(const db::Database& db, const RowSet& outer,
                       const RowSet& inner, db::ColRef outer_key,
                       db::ColRef inner_key,
                       const std::vector<std::pair<db::ColRef, db::ColRef>>&
                           residual_keys,
                       const std::vector<db::ColRef>& required,
                       const std::vector<int32_t>& out_rid_tables,
                       size_t max_rows, bool* overflow, int batch_size,
                       int num_threads);

/// Fused scan-filter → probe: streams `outer_table` (or the driving index's
/// row list) through the scan's residual predicates and feeds each batch's
/// surviving selection vector straight into the hash-join probe — no
/// intermediate rowset between the scan and the first join. The scan's
/// row-id output is still accumulated as a by-product into *scan_out (the
/// executor needs it for actual-cardinality bookkeeping, checkpoints, and
/// re-planning), so results, traces, and the finished-node map stay
/// bit-identical to the unfused kernels.
RowSetPtr LateFusedScanJoin(
    const db::Database& db, const db::Table& outer_table,
    int32_t outer_table_id, const std::vector<uint32_t>* index_rows,
    const std::vector<qry::Predicate>& scan_filters,
    const std::vector<db::ColRef>& scan_required, RowSetPtr* scan_out,
    const RowSet& inner, db::ColRef outer_key, db::ColRef inner_key,
    const std::vector<std::pair<db::ColRef, db::ColRef>>& residual_keys,
    const std::vector<db::ColRef>& required,
    const std::vector<int32_t>& out_rid_tables, size_t max_rows,
    bool* overflow, int batch_size, int num_threads);

/// Late nested-loop and merge joins: keys and residual keys are gathered
/// through both sides' row ids, then the match pairs are enumerated by
/// NestLoopPairs / MergePairs — the row oracle's own enumeration — into the
/// same kind of match list as LateHashJoin's, and each row-id column for
/// `out_rid_tables` is written once at its exact size. Same overflow
/// contract as LateHashJoin.
RowSetPtr LateNestLoopJoin(const db::Database& db, const RowSet& outer,
                           const RowSet& inner, db::ColRef outer_key,
                           db::ColRef inner_key,
                           const std::vector<std::pair<db::ColRef, db::ColRef>>&
                               residual_keys,
                           const std::vector<db::ColRef>& required,
                           const std::vector<int32_t>& out_rid_tables,
                           size_t max_rows, bool* overflow);
RowSetPtr LateMergeJoin(const db::Database& db, const RowSet& outer,
                        const RowSet& inner, db::ColRef outer_key,
                        db::ColRef inner_key,
                        const std::vector<std::pair<db::ColRef, db::ColRef>>&
                            residual_keys,
                        const std::vector<db::ColRef>& required,
                        const std::vector<int32_t>& out_rid_tables,
                        size_t max_rows, bool* overflow);

/// Nested-loop pair enumeration shared by the row oracle and the late
/// kernel: for every outer row in order, every inner row with an equal key
/// in inner order — deliberately O(n·m) comparisons, so a mistaken nested
/// loop on a large outer stays slow (the paper's running example).
/// `emit(outer_row, inner_row)` receives each key match; `stop()` is polled
/// after every outer row and ends the enumeration when it returns true.
template <typename Emit, typename Stop>
void NestLoopPairs(const std::vector<int64_t>& okeys,
                   const std::vector<int64_t>& ikeys, Emit emit, Stop stop) {
  for (size_t r = 0; r < okeys.size(); ++r) {
    const int64_t key = okeys[r];
    for (size_t ir = 0; ir < ikeys.size(); ++ir) {
      if (ikeys[ir] == key) emit(r, ir);
    }
    if (stop()) return;
  }
}

/// Merge-join pair enumeration shared by the row oracle and the late kernel:
/// std::sort permutations of both key columns, then the cross product of
/// every equal-key group. std::sort is not stable, so bit-identical output
/// rests on both callers sorting the same identity permutations over the
/// same key values. `stop()` is polled after every outer row of a group.
template <typename Emit, typename Stop>
void MergePairs(const std::vector<int64_t>& okeys,
                const std::vector<int64_t>& ikeys, Emit emit, Stop stop) {
  std::vector<uint32_t> operm(okeys.size()), iperm(ikeys.size());
  for (size_t i = 0; i < operm.size(); ++i) operm[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < iperm.size(); ++i) iperm[i] = static_cast<uint32_t>(i);
  std::sort(operm.begin(), operm.end(),
            [&](uint32_t a, uint32_t b) { return okeys[a] < okeys[b]; });
  std::sort(iperm.begin(), iperm.end(),
            [&](uint32_t a, uint32_t b) { return ikeys[a] < ikeys[b]; });
  size_t oi = 0, ii = 0;
  while (oi < operm.size() && ii < iperm.size()) {
    const int64_t ov = okeys[operm[oi]];
    const int64_t iv = ikeys[iperm[ii]];
    if (ov < iv) {
      ++oi;
    } else if (ov > iv) {
      ++ii;
    } else {
      size_t oe = oi;
      while (oe < operm.size() && okeys[operm[oe]] == ov) ++oe;
      size_t ie = ii;
      while (ie < iperm.size() && ikeys[iperm[ie]] == iv) ++ie;
      for (size_t a = oi; a < oe; ++a) {
        for (size_t b = ii; b < ie; ++b) emit(operm[a], iperm[b]);
        if (stop()) return;
      }
      oi = oe;
      ii = ie;
    }
  }
}

/// Gathers a late rowset's payload columns from the base tables (dst[r] =
/// table.column(schema[c])[rid[r]]), producing the fully-materialized rowset
/// the row oracle builds — identical schema, row order, and values. Returns
/// `rs` unchanged when it is already materialized. The differential tests
/// and benches call it to compare late intermediates bit-for-bit against the
/// oracle.
RowSetPtr MaterializeRowSet(const db::Database& db, RowSetPtr rs,
                            int num_threads = 0);

}  // namespace lpce::exec

#endif  // LPCE_EXEC_VECTORIZED_H_
