// Operator-at-a-time executor with checkpoint support.
//
// Nodes are executed in post-order; every operator materializes its result
// (column-at-a-time, MonetDB style — see DESIGN.md substitution 2). A
// checkpoint fires when a finished node's actual cardinality deviates from
// its estimate by more than a q-error threshold (paper Sec. 6.2); execution
// stops with all finished intermediates retained so the re-optimization
// controller can re-plan the remainder.
//
// Two operator implementations share this control loop: the vectorized
// kernels (exec/vectorized.h), the production path, whose intermediates
// carry base-table row ids and whose scans and hash joins stream in batches
// with branch-free selection vectors; and the single-threaded row-at-a-time
// kernels below, kept only as the differential oracle (Options::batch_size
// = 0). Both produce the same rows in the same order and byte-identical
// deterministic traces at every batch and pool size.
#ifndef LPCE_EXEC_EXECUTOR_H_
#define LPCE_EXEC_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "engine/trace.h"
#include "exec/plan.h"
#include "exec/rowset.h"
#include "storage/database.h"

namespace lpce::exec {

/// q-error between an estimate and an actual cardinality; both sides are
/// clamped to >= 1 tuple (a zero-cardinality result matches any estimate
/// below one tuple).
double QError(double estimated, double actual);

class Executor {
 public:
  struct Options {
    bool enable_checkpoints = false;
    double qerror_threshold = 50.0;
    /// Trigger-policy refinements (the paper's Sec. 6.2 closes by calling
    /// smarter triggers future work; these knobs implement two natural ones):
    /// only consider re-optimizing when the finished operator produced at
    /// least this many rows (tiny intermediates cannot hurt the remainder)...
    size_t min_trip_rows = 0;
    /// ...and/or only on underestimates (actual > estimate) — the direction
    /// that lures the optimizer into nested-loop mistakes.
    bool underestimates_only = false;
    /// Abort the run if any single operator materializes more rows than
    /// this (0 = unlimited). Used by the workload generator to reject
    /// pathologically exploding queries.
    size_t max_node_rows = 0;
    /// Caps the worker threads the vectorized kernels use for scan filters
    /// and hash-join build/probe (0 = the global pool's full size, 1 =
    /// sequential; the row oracle is always sequential). Output row order is
    /// deterministic — identical at every setting.
    int num_threads = 0;
    /// Executor path: < 0 = the vectorized path at kDefaultBatchSize rows per
    /// batch, > 0 = the vectorized path at this many rows per batch, 0 = the
    /// row-at-a-time oracle. Results, actual cardinalities, and deterministic
    /// traces are bit-identical at every setting. A pseudo scan replays a
    /// rowset saved under the same path (row ids or payload columns).
    int batch_size = -1;
    /// When set, every finished operator appends a span and every checkpoint
    /// evaluation appends an event (see engine/trace.h). Not owned.
    eng::QueryTrace* trace = nullptr;
  };

  struct RunResult {
    /// Root result when the plan ran to completion, nullptr otherwise.
    RowSetPtr result;
    /// Node whose checkpoint tripped (nullptr when completed).
    PlanNode* tripped = nullptr;
    /// Set when max_node_rows was exceeded (the run is abandoned).
    bool aborted = false;
    /// Materialized results of every finished node.
    std::unordered_map<const PlanNode*, RowSetPtr> finished;
  };

  Executor(const db::Database* database, const qry::Query* query)
      : db_(database), query_(query) {}

  /// Runs the plan to completion (no checkpoints), annotating actual_card on
  /// every node. Returns the root result.
  RowSetPtr Execute(PlanNode* root);

  /// Runs with the given options; may stop early at a tripped checkpoint.
  RunResult Run(PlanNode* root, const Options& options);

  /// Peak total resident bytes across all retained intermediates in the last
  /// run — the "peak memory" proxy for the Sec. 6.2 overhead experiment.
  /// Every finished node's result is retained (checkpoints may need it for
  /// re-planning), so this is the sum of live rowsets at its maximum, not
  /// just the largest single one.
  size_t peak_intermediate_bytes() const { return peak_bytes_; }

 private:
  RowSetPtr ExecuteNode(PlanNode* node, const std::vector<db::ColRef>& required,
                        const Options& options, RunResult* result);

  /// Post-execution bookkeeping shared by the operator-at-a-time loop and the
  /// fused scan→probe path: annotates the node, retains the result, updates
  /// metrics/trace, and evaluates the node's checkpoint. Returns true when
  /// the checkpoint tripped (result->tripped is set).
  bool FinishNode(PlanNode* node, const RowSetPtr& out,
                  const std::vector<db::ColRef>& required,
                  const Options& options, RunResult* result,
                  double exec_seconds, int outer_span, int inner_span,
                  uint64_t outer_rows, uint64_t inner_rows);

  /// Fused scan-filter → first-probe execution of a hash join whose outer
  /// child is a leaf scan (vectorized runs only): each scanned
  /// batch's selection vector feeds the probe directly, with per-node
  /// bookkeeping emitted afterwards in oracle order (outer, inner, join).
  RowSetPtr ExecuteFusedScanJoin(PlanNode* node,
                                 const std::vector<db::ColRef>& required,
                                 const Options& options, RunResult* result);

  RowSetPtr ExecuteScan(const PlanNode& node, const std::vector<db::ColRef>& required,
                        int num_threads);
  /// Resolves a scan node's driving input: fills `rows` with the index range
  /// result (index scans) and `residual` with the predicates left to filter;
  /// returns true for a dense scan of the whole table in storage order.
  bool ResolveScanInput(const PlanNode& node, std::vector<uint32_t>* rows,
                        std::vector<qry::Predicate>* residual) const;
  /// Row-id columns a late intermediate covering `rels` must carry: the
  /// tables still referenced downstream — incident to a join edge crossing
  /// out of `rels`, or owning a parent-required column — in ascending query
  /// position order. Tables no longer referenced are dropped, shrinking the
  /// intermediate as the join chain consumes relations.
  std::vector<int32_t> LateRidTables(
      qry::RelSet rels, const std::vector<db::ColRef>& required) const;
  RowSetPtr ExecutePseudo(const PlanNode& node,
                          const std::vector<db::ColRef>& required);
  RowSetPtr ExecuteJoin(const PlanNode& node, const RowSet& outer, const RowSet& inner,
                        const std::vector<db::ColRef>& required, size_t max_rows,
                        bool* overflow, int num_threads);

  /// Splits parent-required columns into those provided by `rels`.
  std::vector<db::ColRef> SideRequired(const std::vector<db::ColRef>& required,
                                       qry::RelSet rels) const;

  const db::Database* db_;
  const qry::Query* query_;
  size_t peak_bytes_ = 0;
  size_t live_bytes_ = 0;
  /// Rows per batch of the current run (Options::batch_size with < 0
  /// resolved to kDefaultBatchSize); 0 = the row oracle.
  int batch_size_ = 0;
  bool vectorized() const { return batch_size_ > 0; }
};

/// Builds an all-hash-join plan following the canonical left-deep tree for
/// the full query — used by workload labeling, where only true cardinalities
/// matter, not operator choice.
std::unique_ptr<PlanNode> BuildCanonicalHashPlan(const qry::Query& query);

}  // namespace lpce::exec

#endif  // LPCE_EXEC_EXECUTOR_H_
