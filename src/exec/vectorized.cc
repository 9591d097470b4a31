#include "exec/vectorized.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/selvec.h"
#include "common/thread_pool.h"

namespace lpce::exec {

namespace {

// Inputs below this many rows run the sequential paths: the pool dispatch is
// not worth it, and tiny intermediates dominate the plans here.
constexpr size_t kMinParallelRows = 4096;

int EffectiveThreads(int num_threads) {
  int workers = common::GlobalPool().size();
  if (num_threads > 0) workers = std::min(workers, num_threads);
  return workers;
}

/// splitmix64 finalizer — spreads join keys across hash buckets even when
/// they are small consecutive integers.
uint64_t MixJoinKey(int64_t key) {
  uint64_t x = static_cast<uint64_t>(key);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Refines the selection vector `sel` (global row ids, length n) in place
/// against `col[r] op lit`, one branch-free pass per predicate. The switch
/// is hoisted out of the loop so each comparison compiles to a flag-setting
/// compare feeding the cursor increment, with no per-row branch.
size_t RefineCmp(const std::vector<int64_t>& col, qry::CmpOp op, int64_t lit,
                 uint32_t* sel, size_t n) {
  switch (op) {
    case qry::CmpOp::kLt:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] < lit; });
    case qry::CmpOp::kLe:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] <= lit; });
    case qry::CmpOp::kEq:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] == lit; });
    case qry::CmpOp::kGe:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] >= lit; });
    case qry::CmpOp::kGt:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] > lit; });
    case qry::CmpOp::kNe:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] != lit; });
  }
  return n;
}

common::Counter* BatchesCounter() {
  static common::Counter* batches =
      common::MetricsRegistry::Global().counter("executor.batches_total");
  return batches;
}

}  // namespace

RowSetPtr BatchScan(const db::Table& table, int32_t table_id,
                    const std::vector<uint32_t>* index_rows,
                    const std::vector<qry::Predicate>& residual,
                    const std::vector<db::ColRef>& required, int batch_size,
                    int num_threads) {
  LPCE_PROFILE_SCOPE("exec.batch_scan");
  LPCE_CHECK(batch_size > 0);
  const size_t B = static_cast<size_t>(batch_size);
  const size_t n = index_rows != nullptr ? index_rows->size() : table.num_rows();
  auto out = std::make_shared<RowSet>();
  out->schema = required;
  for (const auto& ref : required) LPCE_CHECK(ref.table == table_id);
  out->rid_tables.push_back(table_id);
  std::vector<uint32_t>& rows = out->rid_cols.emplace_back();

  // A dense scan with no predicates is an identity row-id column (4 bytes
  // per row, regardless of how many columns the parent will eventually
  // read) — no selection vector at all.
  if (index_rows == nullptr && residual.empty()) {
    out->row_count = n;
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
    return out;
  }

  // Filter batch-at-a-time: batch k always covers candidates
  // [k*B, min((k+1)*B, n)) — fixed global boundaries, so any chunking of
  // whole batches across workers concatenates back to the input order and
  // the surviving rows are bit-identical at every pool size.
  const size_t num_batches = (n + B - 1) / B;
  auto filter_batches = [&](size_t batch_lo, size_t batch_hi,
                            std::vector<uint32_t>* kept) {
    std::vector<uint32_t> sel(B);
    for (size_t batch = batch_lo; batch < batch_hi; ++batch) {
      const size_t lo = batch * B;
      const size_t count = std::min(B, n - lo);
      if (index_rows != nullptr) {
        // Candidates are the driving index's row list.
        std::copy(index_rows->data() + lo, index_rows->data() + lo + count,
                  sel.data());
      } else {
        for (size_t i = 0; i < count; ++i) {
          sel[i] = static_cast<uint32_t>(lo + i);
        }
      }
      size_t live = count;
      for (const auto& f : residual) {
        if (live == 0) break;
        live = RefineCmp(table.column(f.col.column), f.op, f.value, sel.data(),
                         live);
      }
      kept->insert(kept->end(), sel.data(), sel.data() + live);
    }
  };

  // The surviving selection vector *is* the result — no payload gather.
  // Payload reads happen downstream through the row-id indirection.
  const int workers = EffectiveThreads(num_threads);
  if (workers > 1 && n >= kMinParallelRows && num_batches > 1) {
    const auto chunks =
        common::ThreadPool::Partition(0, num_batches, 1, workers);
    std::vector<std::vector<uint32_t>> kept(chunks.size());
    common::GlobalPool().ParallelFor(
        0, chunks.size(), 1,
        [&](size_t c0, size_t c1) {
          LPCE_PROFILE_SCOPE("exec.worker.batch_filter");
          for (size_t c = c0; c < c1; ++c) {
            kept[c].reserve((chunks[c].second - chunks[c].first) * B);
            filter_batches(chunks[c].first, chunks[c].second, &kept[c]);
          }
        },
        workers);
    size_t total = 0;
    for (const auto& k : kept) total += k.size();
    rows.reserve(total);
    for (const auto& k : kept) rows.insert(rows.end(), k.begin(), k.end());
  } else {
    rows.reserve(n);
    filter_batches(0, num_batches, &rows);
  }
  BatchesCounter()->Increment(num_batches);
  out->row_count = rows.size();
  return out;
}

// ---- Joins over row-id intermediates ----------------------------------------
//
// A join's inputs and output carry base-table row-id columns instead of
// payload columns. Every payload read — join keys at probe time, residual-key
// values, the final materialization — goes through the row-id indirection
// (common/selvec.h GatherGathered). Hash-join probes concatenate whole
// batches in order at every pool size, and merge / nested-loop joins run the
// oracle's own pair enumeration, so the emitted row order is bit-identical
// to the row-at-a-time kernels.

namespace {

/// Payload column read through a row-id indirection. `rid == nullptr` means
/// the candidate handles already are base rows (the fused scan side), so the
/// read is a one-level gather.
struct LateKeyCol {
  const int64_t* base = nullptr;
  const uint32_t* rid = nullptr;
};

/// Source of one output row-id column: a side's rid column gathered through
/// the match list, or (outer side with `rid == nullptr`) the outer candidate
/// handle itself.
struct LateRidSource {
  bool from_outer = false;
  const uint32_t* rid = nullptr;
};

/// Flattened bucket-segment table over the inner side's (gathered) keys,
/// built by counting sort: every bucket's (key, row) pairs land in one
/// contiguous segment of flat_keys/flat_rows, written in ascending inner-row
/// order, so a probe scans a cache-resident segment instead of chasing chain
/// pointers and a key's matches enumerate exactly like the row oracle's
/// per-key insertion-order vector. The hash only places rows into buckets —
/// key equality is re-checked per entry — so the bucket count and hash
/// function are invisible in the output.
struct LateBuildTable {
  uint64_t mask = 0;
  std::vector<uint32_t> off;
  std::vector<int64_t> flat_keys;
  std::vector<uint32_t> flat_rows;
};

LateBuildTable BuildLateHashTable(const int64_t* key_base,
                                  const uint32_t* key_rid, size_t n_inner,
                                  int workers) {
  LateBuildTable t;
  size_t nbuckets = 16;
  while (nbuckets < 2 * n_inner) nbuckets <<= 1;
  t.mask = nbuckets - 1;
  // Gather the inner keys through the row-id indirection once; the bucket
  // pass and the flat fill both read the gathered copy sequentially.
  std::vector<int64_t> ikeys(n_inner);
  std::vector<uint32_t> bucket(n_inner);
  auto hash_range = [&](size_t b, size_t e) {
    for (size_t r = b; r < e; ++r) {
      ikeys[r] = key_base[key_rid[r]];
      bucket[r] = static_cast<uint32_t>(MixJoinKey(ikeys[r]) & t.mask);
    }
  };
  if (workers > 1 && n_inner >= kMinParallelRows) {
    common::GlobalPool().ParallelFor(
        0, n_inner, 4096,
        [&](size_t b, size_t e) {
          LPCE_PROFILE_SCOPE("exec.worker.batch_hash");
          hash_range(b, e);
        },
        workers);
  } else {
    hash_range(0, n_inner);
  }
  t.off.assign(nbuckets + 1, 0);
  for (size_t r = 0; r < n_inner; ++r) ++t.off[bucket[r] + 1];
  for (size_t b = 0; b < nbuckets; ++b) t.off[b + 1] += t.off[b];
  t.flat_keys.resize(n_inner);
  t.flat_rows.resize(n_inner);
  {
    std::vector<uint32_t> cursor(t.off.begin(), t.off.end() - 1);
    for (size_t r = 0; r < n_inner; ++r) {
      const uint32_t p = cursor[bucket[r]]++;
      t.flat_keys[p] = ikeys[r];
      t.flat_rows[p] = static_cast<uint32_t>(r);
    }
  }
  return t;
}

struct LateProbeArgs {
  const int64_t* okey_base = nullptr;
  const uint32_t* okey_rid = nullptr;  // nullptr: candidates are base rows
  std::vector<std::pair<LateKeyCol, LateKeyCol>> residual;  // (outer, inner)
  std::vector<LateRidSource> out_rids;
  size_t max_rows = 0;
  size_t B = 0;
  int workers = 1;
  size_t n_cand = 0;   // candidate domain size (pre-filter for fused)
  size_t n_inner = 0;  // build-side rows (parallel threshold only)
};

/// Shared probe driver for the late join kernels. `fill(batch, cand)` writes
/// the batch's candidate handles (rowset rows for the unfused kernel, filter-
/// surviving base rows for the fused one) and returns how many there are;
/// batch k always covers candidate domain [k*B, (k+1)*B), so chunking whole
/// batches across workers concatenates back to the sequential order. A
/// non-null `collected` accumulates every candidate (the fused scan's
/// output). Returns false on overflow.
///
/// Probe modes, all sharing the branch-free segment scan (every entry is
/// stored/summed unconditionally, the cursor advances by the key-equality
/// result):
///  - count-only (no residuals, no output row ids — a root join): each batch
///    is a pure sum of key-equality hits, nothing materialized;
///  - expand (no residuals): only inner rows are collected, plus a
///    per-candidate match count; outer row ids are emitted by run-length fill
///    and inner ones by gather (inner rows are skipped entirely when no inner
///    row id is emitted);
///  - pairs (residual keys): full (outer, inner) candidate pairs, refined
///    branch-free per residual key, then gathered per side.
template <typename FillBatch>
bool LateProbeDrive(const LateBuildTable& build, const LateProbeArgs& a,
                    FillBatch fill, RowSet* out,
                    std::vector<uint32_t>* collected) {
  const size_t B = a.B;
  const uint64_t mask = build.mask;
  const std::vector<uint32_t>& off = build.off;
  const std::vector<int64_t>& flat_keys = build.flat_keys;
  const std::vector<uint32_t>& flat_rows = build.flat_rows;
  const size_t num_batches = (a.n_cand + B - 1) / B;
  std::atomic<size_t> emitted{0};
  std::atomic<bool> over{false};

  const bool count_only = a.residual.empty() && a.out_rids.empty();
  const bool expand = a.residual.empty() && !count_only;
  bool need_inner_rows = !expand;
  for (const LateRidSource& s : a.out_rids) need_inner_rows |= !s.from_outer;

  struct ChunkOut {
    std::vector<std::vector<uint32_t>> rids;
    std::vector<uint32_t> cand_rows;  // collected candidates (fused scans)
    size_t rows = 0;
  };

  auto probe_batches = [&](size_t batch_lo, size_t batch_hi, ChunkOut* local) {
    local->rids.resize(a.out_rids.size());
    std::vector<uint32_t> cand(B);
    std::vector<uint32_t> m_outer(expand || count_only ? 0 : B), m_inner(B);
    std::vector<uint32_t> counts(expand ? B : 0);
    std::vector<uint32_t> buckets(B);
    std::vector<int64_t> okey_buf(B);
    std::vector<int64_t> res_outer, res_inner;
    for (size_t batch = batch_lo; batch < batch_hi; ++batch) {
      if (over.load(std::memory_order_relaxed)) return;
      const size_t live = fill(batch, cand.data());
      if (collected != nullptr) {
        local->cand_rows.insert(local->cand_rows.end(), cand.data(),
                                cand.data() + live);
      }
      if (live == 0) continue;
      // Join-key access gathers through the row-id indirection — the
      // deferred payload read late materialization trades the emission
      // copies for.
      if (a.okey_rid != nullptr) {
        common::GatherGathered(a.okey_base, a.okey_rid, cand.data(), live,
                               okey_buf.data());
      } else {
        common::GatherSelected(a.okey_base, cand.data(), live, okey_buf.data());
      }
      for (size_t i = 0; i < live; ++i) {
        buckets[i] = static_cast<uint32_t>(MixJoinKey(okey_buf[i]) & mask);
      }
      if (count_only) {
        size_t hits = 0;
        for (size_t i = 0; i < live; ++i) {
          const int64_t key = okey_buf[i];
          const uint64_t b = buckets[i];
          const uint32_t seg_end = off[b + 1];
          for (uint32_t j = off[b]; j < seg_end; ++j) {
            hits += static_cast<size_t>(flat_keys[j] == key);
          }
        }
        local->rows += hits;
        if (a.max_rows > 0 && hits > 0 &&
            emitted.fetch_add(hits, std::memory_order_relaxed) + hits >
                a.max_rows) {
          over.store(true, std::memory_order_relaxed);
          return;
        }
        continue;
      }
      size_t m = 0;
      for (size_t i = 0; i < live; ++i) {
        const int64_t key = okey_buf[i];
        const uint64_t b = buckets[i];
        const uint32_t seg_begin = off[b];
        const uint32_t seg_end = off[b + 1];
        if (need_inner_rows && m + (seg_end - seg_begin) > m_inner.size()) {
          const size_t grown =
              std::max(m_inner.size() * 2, m + (seg_end - seg_begin));
          m_inner.resize(grown);
          if (!expand) m_outer.resize(grown);
        }
        if (expand && !need_inner_rows) {
          size_t hits = 0;
          for (uint32_t j = seg_begin; j < seg_end; ++j) {
            hits += static_cast<size_t>(flat_keys[j] == key);
          }
          counts[i] = static_cast<uint32_t>(hits);
          m += hits;
        } else if (expand) {
          const size_t before = m;
          for (uint32_t j = seg_begin; j < seg_end; ++j) {
            m_inner[m] = flat_rows[j];
            m += static_cast<size_t>(flat_keys[j] == key);
          }
          counts[i] = static_cast<uint32_t>(m - before);
        } else {
          for (uint32_t j = seg_begin; j < seg_end; ++j) {
            m_outer[m] = cand[i];
            m_inner[m] = flat_rows[j];
            m += static_cast<size_t>(flat_keys[j] == key);
          }
        }
      }
      // Residual equi-join keys evaluate through the same indirection: gather
      // both sides' candidate values (two-level on the rid-backed sides),
      // then refine branch-free.
      for (const auto& [res_o, res_i] : a.residual) {
        if (m == 0) break;
        if (res_outer.size() < m) {
          res_outer.resize(m);
          res_inner.resize(m);
        }
        if (res_o.rid != nullptr) {
          common::GatherGathered(res_o.base, res_o.rid, m_outer.data(), m,
                                 res_outer.data());
        } else {
          common::GatherSelected(res_o.base, m_outer.data(), m,
                                 res_outer.data());
        }
        common::GatherGathered(res_i.base, res_i.rid, m_inner.data(), m,
                               res_inner.data());
        size_t k = 0;
        for (size_t j = 0; j < m; ++j) {
          m_outer[k] = m_outer[j];
          m_inner[k] = m_inner[j];
          k += static_cast<size_t>(res_outer[j] == res_inner[j]);
        }
        m = k;
      }
      // Emit row-id columns only — the whole point: one uint32 column per
      // still-referenced table instead of one int64 column per payload.
      for (size_t s = 0; s < a.out_rids.size(); ++s) {
        auto& dst = local->rids[s];
        const LateRidSource& src = a.out_rids[s];
        if (src.from_outer && expand) {
          // Run-length emit: each outer row id repeats once per match, in
          // match order — identical to gathering through explicit pairs.
          for (size_t i = 0; i < live; ++i) {
            const uint32_t cnt = counts[i];
            if (cnt > 0) {
              dst.insert(dst.end(), cnt,
                         src.rid != nullptr ? src.rid[cand[i]] : cand[i]);
            }
          }
        } else if (src.from_outer) {
          if (src.rid != nullptr) {
            dst.insert(dst.end(),
                       common::GatherIterator<uint32_t>(src.rid,
                                                        m_outer.data(), 0),
                       common::GatherIterator<uint32_t>(src.rid,
                                                        m_outer.data(), m));
          } else {
            dst.insert(dst.end(), m_outer.data(), m_outer.data() + m);
          }
        } else {
          dst.insert(dst.end(),
                     common::GatherIterator<uint32_t>(src.rid, m_inner.data(),
                                                      0),
                     common::GatherIterator<uint32_t>(src.rid, m_inner.data(),
                                                      m));
        }
      }
      local->rows += m;
      if (a.max_rows > 0 && m > 0 &&
          emitted.fetch_add(m, std::memory_order_relaxed) + m > a.max_rows) {
        over.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  BatchesCounter()->Increment(num_batches);
  common::ThreadPool& pool = common::GlobalPool();
  if (a.workers > 1 && a.n_cand + a.n_inner >= kMinParallelRows &&
      num_batches > 1) {
    const auto chunks =
        common::ThreadPool::Partition(0, num_batches, 1, a.workers);
    std::vector<ChunkOut> partials(chunks.size());
    pool.ParallelFor(
        0, chunks.size(), 1,
        [&](size_t c0, size_t c1) {
          LPCE_PROFILE_SCOPE("exec.worker.late_probe");
          for (size_t c = c0; c < c1; ++c) {
            probe_batches(chunks[c].first, chunks[c].second, &partials[c]);
          }
        },
        a.workers);
    if (over.load()) return false;
    size_t total = 0;
    for (const auto& p : partials) total += p.rows;
    out->row_count = total;
    pool.ParallelFor(
        0, a.out_rids.size(), 1,
        [&](size_t s0, size_t s1) {
          LPCE_PROFILE_SCOPE("exec.worker.concat");
          for (size_t s = s0; s < s1; ++s) {
            auto& dst = out->rid_cols[s];
            dst.reserve(total);
            for (const auto& p : partials) {
              dst.insert(dst.end(), p.rids[s].begin(), p.rids[s].end());
            }
          }
        },
        a.workers);
    if (collected != nullptr) {
      size_t kept = 0;
      for (const auto& p : partials) kept += p.cand_rows.size();
      collected->reserve(kept);
      for (const auto& p : partials) {
        collected->insert(collected->end(), p.cand_rows.begin(),
                          p.cand_rows.end());
      }
    }
    return true;
  }

  ChunkOut all;
  probe_batches(0, num_batches, &all);
  if (over.load()) return false;
  out->row_count = all.rows;
  for (size_t s = 0; s < a.out_rids.size(); ++s) {
    out->rid_cols[s] = std::move(all.rids[s]);
  }
  if (collected != nullptr) *collected = std::move(all.cand_rows);
  return true;
}

/// Resolves a side's join-key accessor: base column data plus the side's
/// row-id column for the key's table.
LateKeyCol LateSideKey(const db::Database& db, const RowSet& side,
                       db::ColRef key) {
  const int idx = side.RidIndex(key.table);
  LPCE_CHECK_MSG(idx >= 0, "late join input missing the key table's row ids");
  return {db.table(key.table).column(key.column).data(),
          side.rid_cols[idx].data()};
}

std::vector<LateRidSource> ResolveRidSources(
    const RowSet* outer, const RowSet& inner, int32_t fused_outer_table,
    const std::vector<int32_t>& out_rid_tables) {
  std::vector<LateRidSource> sources;
  sources.reserve(out_rid_tables.size());
  for (int32_t table_id : out_rid_tables) {
    if (outer != nullptr) {
      const int oi = outer->RidIndex(table_id);
      if (oi >= 0) {
        sources.push_back({true, outer->rid_cols[oi].data()});
        continue;
      }
    } else if (table_id == fused_outer_table) {
      sources.push_back({true, nullptr});
      continue;
    }
    const int ii = inner.RidIndex(table_id);
    LPCE_CHECK_MSG(ii >= 0, "join output row-id table not found in either side");
    sources.push_back({false, inner.rid_cols[ii].data()});
  }
  return sources;
}

}  // namespace

RowSetPtr LateHashJoin(const db::Database& db, const RowSet& outer,
                       const RowSet& inner, db::ColRef outer_key,
                       db::ColRef inner_key,
                       const std::vector<std::pair<db::ColRef, db::ColRef>>&
                           residual_keys,
                       const std::vector<db::ColRef>& required,
                       const std::vector<int32_t>& out_rid_tables,
                       size_t max_rows, bool* overflow, int batch_size,
                       int num_threads) {
  LPCE_PROFILE_SCOPE("exec.late_hash_join");
  LPCE_CHECK(batch_size > 0);
  const int workers = EffectiveThreads(num_threads);

  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->rid_tables = out_rid_tables;
  out->rid_cols.resize(out_rid_tables.size());

  const LateKeyCol okey = LateSideKey(db, outer, outer_key);
  const LateKeyCol ikey = LateSideKey(db, inner, inner_key);
  const LateBuildTable build =
      BuildLateHashTable(ikey.base, ikey.rid, inner.row_count, workers);

  LateProbeArgs args;
  args.okey_base = okey.base;
  args.okey_rid = okey.rid;
  for (const auto& [outer_col, inner_col] : residual_keys) {
    args.residual.emplace_back(LateSideKey(db, outer, outer_col),
                               LateSideKey(db, inner, inner_col));
  }
  args.out_rids = ResolveRidSources(&outer, inner, -1, out_rid_tables);
  args.max_rows = max_rows;
  args.B = static_cast<size_t>(batch_size);
  args.workers = workers;
  args.n_cand = outer.row_count;
  args.n_inner = inner.row_count;

  const size_t B = args.B;
  const size_t n_outer = outer.row_count;
  auto fill = [B, n_outer](size_t batch, uint32_t* cand) -> size_t {
    const size_t lo = batch * B;
    const size_t count = std::min(B, n_outer - lo);
    for (size_t i = 0; i < count; ++i) {
      cand[i] = static_cast<uint32_t>(lo + i);
    }
    return count;
  };
  if (!LateProbeDrive(build, args, fill, out.get(), nullptr)) {
    *overflow = true;
  }
  return out;
}

RowSetPtr LateFusedScanJoin(
    const db::Database& db, const db::Table& outer_table,
    int32_t outer_table_id, const std::vector<uint32_t>* index_rows,
    const std::vector<qry::Predicate>& scan_filters,
    const std::vector<db::ColRef>& scan_required, RowSetPtr* scan_out,
    const RowSet& inner, db::ColRef outer_key, db::ColRef inner_key,
    const std::vector<std::pair<db::ColRef, db::ColRef>>& residual_keys,
    const std::vector<db::ColRef>& required,
    const std::vector<int32_t>& out_rid_tables, size_t max_rows,
    bool* overflow, int batch_size, int num_threads) {
  LPCE_PROFILE_SCOPE("exec.late_fused_scan_join");
  LPCE_CHECK(batch_size > 0);
  LPCE_CHECK(outer_key.table == outer_table_id);
  const int workers = EffectiveThreads(num_threads);

  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->rid_tables = out_rid_tables;
  out->rid_cols.resize(out_rid_tables.size());

  const LateKeyCol ikey = LateSideKey(db, inner, inner_key);
  const LateBuildTable build =
      BuildLateHashTable(ikey.base, ikey.rid, inner.row_count, workers);

  LateProbeArgs args;
  args.okey_base = outer_table.column(outer_key.column).data();
  args.okey_rid = nullptr;  // candidates are the scanned table's base rows
  for (const auto& [outer_col, inner_col] : residual_keys) {
    LPCE_CHECK(outer_col.table == outer_table_id);
    args.residual.emplace_back(
        LateKeyCol{db.table(outer_col.table).column(outer_col.column).data(),
                   nullptr},
        LateSideKey(db, inner, inner_col));
  }
  args.out_rids =
      ResolveRidSources(nullptr, inner, outer_table_id, out_rid_tables);
  args.max_rows = max_rows;
  args.B = static_cast<size_t>(batch_size);
  args.workers = workers;
  args.n_cand =
      index_rows != nullptr ? index_rows->size() : outer_table.num_rows();
  args.n_inner = inner.row_count;

  // The fusion itself: each batch's surviving selection vector (base rows)
  // feeds the probe directly — no intermediate rowset between the scan's
  // filter and the first join — while a copy of it accumulates into the
  // scan's row-id output for checkpoint/re-planning bookkeeping.
  const size_t B = args.B;
  const size_t n_cand = args.n_cand;
  auto fill = [&](size_t batch, uint32_t* cand) -> size_t {
    const size_t lo = batch * B;
    const size_t count = std::min(B, n_cand - lo);
    if (index_rows != nullptr) {
      std::copy(index_rows->data() + lo, index_rows->data() + lo + count, cand);
    } else {
      for (size_t i = 0; i < count; ++i) {
        cand[i] = static_cast<uint32_t>(lo + i);
      }
    }
    size_t live = count;
    for (const auto& f : scan_filters) {
      if (live == 0) break;
      live = RefineCmp(outer_table.column(f.col.column), f.op, f.value, cand,
                       live);
    }
    return live;
  };

  std::vector<uint32_t> kept;
  if (!LateProbeDrive(build, args, fill, out.get(), &kept)) {
    // Overflow abandons the run; the caller recomputes the scan honestly if
    // it still needs the outer node's bookkeeping.
    *overflow = true;
    *scan_out = nullptr;
    return out;
  }
  auto scan = std::make_shared<RowSet>();
  scan->schema = scan_required;
  for (const auto& ref : scan_required) LPCE_CHECK(ref.table == outer_table_id);
  scan->row_count = kept.size();
  scan->rid_tables.push_back(outer_table_id);
  scan->rid_cols.push_back(std::move(kept));
  *scan_out = std::move(scan);
  return out;
}

namespace {

/// A side's payload column gathered through its row ids into a dense copy.
std::vector<int64_t> GatherSideColumn(const db::Database& db,
                                      const RowSet& side, db::ColRef ref) {
  const LateKeyCol col = LateSideKey(db, side, ref);
  std::vector<int64_t> out(side.row_count);
  common::GatherSelected(col.base, col.rid, side.row_count, out.data());
  return out;
}

/// Shared body of the late merge and nested-loop joins: gathers both sides'
/// keys once, then lets `enumerate` (MergePairs / NestLoopPairs) drive the
/// emission of row-id columns for every pair that also agrees on the
/// residual keys.
template <typename Enumerate>
RowSetPtr LatePairJoin(const db::Database& db, const RowSet& outer,
                       const RowSet& inner, db::ColRef outer_key,
                       db::ColRef inner_key,
                       const std::vector<std::pair<db::ColRef, db::ColRef>>&
                           residual_keys,
                       const std::vector<db::ColRef>& required,
                       const std::vector<int32_t>& out_rid_tables,
                       size_t max_rows, bool* overflow, Enumerate enumerate) {
  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->rid_tables = out_rid_tables;
  out->rid_cols.resize(out_rid_tables.size());
  const std::vector<int64_t> okeys = GatherSideColumn(db, outer, outer_key);
  const std::vector<int64_t> ikeys = GatherSideColumn(db, inner, inner_key);
  std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> residual;
  residual.reserve(residual_keys.size());
  for (const auto& [outer_col, inner_col] : residual_keys) {
    residual.emplace_back(GatherSideColumn(db, outer, outer_col),
                          GatherSideColumn(db, inner, inner_col));
  }
  const std::vector<LateRidSource> sources =
      ResolveRidSources(&outer, inner, -1, out_rid_tables);
  auto emit = [&](size_t o, size_t i) {
    for (const auto& [ocol, icol] : residual) {
      if (ocol[o] != icol[i]) return;
    }
    for (size_t s = 0; s < sources.size(); ++s) {
      out->rid_cols[s].push_back(sources[s].rid[sources[s].from_outer ? o : i]);
    }
    ++out->row_count;
  };
  auto over_limit = [&] {
    if (max_rows > 0 && out->row_count > max_rows) {
      *overflow = true;
      return true;
    }
    return false;
  };
  enumerate(okeys, ikeys, emit, over_limit);
  return out;
}

}  // namespace

RowSetPtr LateNestLoopJoin(const db::Database& db, const RowSet& outer,
                           const RowSet& inner, db::ColRef outer_key,
                           db::ColRef inner_key,
                           const std::vector<std::pair<db::ColRef, db::ColRef>>&
                               residual_keys,
                           const std::vector<db::ColRef>& required,
                           const std::vector<int32_t>& out_rid_tables,
                           size_t max_rows, bool* overflow) {
  LPCE_PROFILE_SCOPE("exec.late_nestloop_join");
  return LatePairJoin(db, outer, inner, outer_key, inner_key, residual_keys,
                      required, out_rid_tables, max_rows, overflow,
                      [](const auto& okeys, const auto& ikeys, auto emit,
                         auto stop) { NestLoopPairs(okeys, ikeys, emit, stop); });
}

RowSetPtr LateMergeJoin(const db::Database& db, const RowSet& outer,
                        const RowSet& inner, db::ColRef outer_key,
                        db::ColRef inner_key,
                        const std::vector<std::pair<db::ColRef, db::ColRef>>&
                            residual_keys,
                        const std::vector<db::ColRef>& required,
                        const std::vector<int32_t>& out_rid_tables,
                        size_t max_rows, bool* overflow) {
  LPCE_PROFILE_SCOPE("exec.late_merge_join");
  return LatePairJoin(db, outer, inner, outer_key, inner_key, residual_keys,
                      required, out_rid_tables, max_rows, overflow,
                      [](const auto& okeys, const auto& ikeys, auto emit,
                         auto stop) { MergePairs(okeys, ikeys, emit, stop); });
}

RowSetPtr MaterializeRowSet(const db::Database& db, RowSetPtr rs,
                            int num_threads) {
  if (rs == nullptr || !rs->late()) return rs;
  LPCE_PROFILE_SCOPE("exec.materialize");
  auto out = std::make_shared<RowSet>();
  out->schema = rs->schema;
  out->row_count = rs->row_count;
  out->cols.resize(out->schema.size());
  const int workers = EffectiveThreads(num_threads);
  for (size_t c = 0; c < out->schema.size(); ++c) {
    const db::ColRef ref = out->schema[c];
    const int idx = rs->RidIndex(ref.table);
    LPCE_CHECK_MSG(idx >= 0, "late rowset missing row ids for a schema column");
    const auto& rid = rs->rid_cols[idx];
    const auto& src = db.table(ref.table).column(ref.column);
    auto& dst = out->cols[c];
    dst.resize(rid.size());
    if (workers > 1 && rid.size() >= kMinParallelRows) {
      common::GlobalPool().ParallelFor(
          0, rid.size(), kMinParallelRows / 4,
          [&](size_t b, size_t e) {
            LPCE_PROFILE_SCOPE("exec.worker.gather");
            common::GatherSelected(src.data(), rid.data() + b, e - b,
                                   dst.data() + b);
          },
          workers);
    } else {
      common::GatherSelected(src.data(), rid.data(), rid.size(), dst.data());
    }
  }
  return out;
}

}  // namespace lpce::exec
