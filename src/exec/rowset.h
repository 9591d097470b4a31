// Materialized intermediate results exchanged between physical operators.
#ifndef LPCE_EXEC_ROWSET_H_
#define LPCE_EXEC_ROWSET_H_

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "storage/schema.h"

namespace lpce::exec {

/// std::allocator that default-initializes instead of value-initializing, so
/// a row-id column sized up front is not zero-filled before the kernel that
/// owns it writes every element exactly once.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One row-id column: base-table storage rows, aligned with a rowset's rows.
using RidColumn = std::vector<uint32_t, DefaultInitAllocator<uint32_t>>;

/// A finished row-id column. Immutable once published, so rowsets share
/// columns by pointer: a pseudo scan replaying a finished intermediate hands
/// the same storage through without copying an element.
using RidColumnPtr = std::shared_ptr<const RidColumn>;

/// A columnar result: `schema[i]` names the source column of `cols[i]`.
/// `row_count` is tracked explicitly so zero-column results (everything
/// projected away under a COUNT(*)) still carry their cardinality.
///
/// Late materialization (the vectorized executor's intermediates): instead
/// of payload columns, a rowset may carry aligned row-id columns into the
/// base tables —
/// `(*rid_cols[i])[r]` is the storage row of table `rid_tables[i]` that
/// contributed to output row r. `schema` still records which logical
/// columns the rowset provides (so ColumnIndex-based resolution keeps
/// working), but `cols` stays empty; consumers gather payload values through
/// the row ids at first use (exec::MaterializeRowSet, the late join
/// kernels). A late rowset and its materialized counterpart describe the
/// same rows in the same order.
struct RowSet {
  std::vector<db::ColRef> schema;
  std::vector<std::vector<int64_t>> cols;
  size_t row_count = 0;
  std::vector<int32_t> rid_tables;
  std::vector<RidColumnPtr> rid_cols;

  size_t num_rows() const { return row_count; }
  size_t num_cols() const { return schema.size(); }

  /// True when this rowset carries row-id columns instead of payloads.
  bool late() const { return !rid_tables.empty(); }

  /// Index of `ref` in the schema, or -1.
  int ColumnIndex(db::ColRef ref) const {
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema[i] == ref) return static_cast<int>(i);
    }
    return -1;
  }

  /// Index of `table_id` in rid_tables, or -1.
  int RidIndex(int32_t table_id) const {
    for (size_t i = 0; i < rid_tables.size(); ++i) {
      if (rid_tables[i] == table_id) return static_cast<int>(i);
    }
    return -1;
  }

  /// Estimated resident bytes (for the Sec. 6.2 overhead measurements).
  /// Row-id columns count at their narrower width — the memory saving of
  /// late materialization is visible in peak_intermediate_bytes. A column
  /// shared with another rowset counts in each, as if it were a copy.
  size_t ByteSize() const {
    size_t bytes = 0;
    for (const auto& c : cols) bytes += c.size() * sizeof(int64_t);
    for (const auto& r : rid_cols) bytes += r->size() * sizeof(uint32_t);
    return bytes;
  }
};

using RowSetPtr = std::shared_ptr<const RowSet>;

}  // namespace lpce::exec

#endif  // LPCE_EXEC_ROWSET_H_
