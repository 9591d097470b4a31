#include "exec/vectorized.h"

#include <algorithm>
#include <atomic>
#include <functional>

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
  auto rows_ptr = std::make_shared<RidColumn>();
  out->rid_cols.push_back(rows_ptr);
  RidColumn& rows = *rows_ptr;

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
                            RidColumn* kept) {
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
    std::vector<RidColumn> kept(chunks.size());
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
// (common/selvec.h GatherGathered). Every join runs in two phases: it first
// collects its match list (a hash probe's matched candidates, the merge /
// nested-loop kernels' pairs), then allocates each output row-id column at
// its exact size and writes it once (EmitMatches). Hash-join probes cover
// whole batches in order at every pool size, and merge / nested-loop joins
// run the oracle's own pair enumeration, so the emitted row order is
// bit-identical to the row-at-a-time kernels.

namespace {

/// Transient kernel buffer whose resize does not zero-fill.
template <typename T>
using Scratch = std::vector<T, DefaultInitAllocator<T>>;

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

/// A join's matches in the oracle's row order, outer-major: `hand[k]` is the
/// k-th matched outer handle and `cnt[k]` its number of matches (kept only
/// when an outer row-id column is emitted); `inner` holds the inner row of
/// every match (kept only when an inner row-id column is emitted).
/// Unmatched outer rows never appear.
struct LateMatches {
  Scratch<uint32_t> hand, cnt, inner;
  size_t rows = 0;       // matches
  bool fan_out = false;  // some outer handle matched more than once
};

/// The emit phase shared by every late join: writes `m`'s rows at
/// [row_off, row_off + m.rows) of each output column `dst[s]`. Outer columns
/// gather through the matched handles when no handle matched twice, else
/// run-length fill over the matched handles only; inner columns gather
/// through the match list. Callers allocate every column at its exact size
/// first, so each element is written once.
void EmitMatches(const LateMatches& m, const std::vector<LateRidSource>& srcs,
                 const std::vector<uint32_t*>& dst, size_t row_off) {
  for (size_t s = 0; s < srcs.size(); ++s) {
    uint32_t* d = dst[s] + row_off;
    const LateRidSource& src = srcs[s];
    if (!src.from_outer) {
      common::GatherSelected(src.rid, m.inner.data(), m.rows, d);
    } else if (!m.fan_out) {
      if (src.rid != nullptr) {
        common::GatherSelected(src.rid, m.hand.data(), m.hand.size(), d);
      } else {
        std::copy(m.hand.begin(), m.hand.end(), d);
      }
    } else {
      for (size_t k = 0; k < m.hand.size(); ++k) {
        const uint32_t h = m.hand[k];
        d = std::fill_n(d, m.cnt[k], src.rid != nullptr ? src.rid[h] : h);
      }
    }
  }
}

/// Allocates every output row-id column of `out` at exactly `rows` entries;
/// returns their write pointers for EmitMatches.
std::vector<uint32_t*> AllocateRidColumns(RowSet* out, size_t num_cols,
                                          size_t rows) {
  std::vector<uint32_t*> dst;
  dst.reserve(num_cols);
  out->row_count = rows;
  out->rid_cols.clear();
  for (size_t s = 0; s < num_cols; ++s) {
    auto col = std::make_shared<RidColumn>(rows);
    dst.push_back(col->data());
    out->rid_cols.push_back(std::move(col));
  }
  return dst;
}

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
  Scratch<int64_t> flat_keys;
  Scratch<uint32_t> flat_rows;
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
  Scratch<int64_t> ikeys(n_inner);
  Scratch<uint32_t> bucket(n_inner);
  auto hash_range = [&](size_t b, size_t e) {
    common::GatherSelected(key_base, key_rid + b, e - b, ikeys.data() + b);
    // Apart from the gather, hashing is load-free, so it vectorizes.
    for (size_t r = b; r < e; ++r) {
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
  // Counting sort through a shifted offset array: bucket b counts into
  // off[b + 2], so after the prefix sum off[b + 1] is bucket b's first slot.
  // The scatter advances off[b + 1] in place to bucket b's end — bucket
  // b + 1's start — which leaves the finished offset table behind with no
  // cursor copy.
  t.off.assign(nbuckets + 2, 0);
  for (size_t r = 0; r < n_inner; ++r) ++t.off[bucket[r] + 2];
  for (size_t b = 2; b < nbuckets + 2; ++b) t.off[b] += t.off[b - 1];
  // One padding entry: the probe reads a segment's first entry even when
  // the segment is empty, which for the last buckets is index n_inner.
  t.flat_keys.resize(n_inner + 1);
  t.flat_rows.resize(n_inner + 1);
  t.flat_keys[n_inner] = 0;
  t.flat_rows[n_inner] = 0;
  for (size_t r = 0; r < n_inner; ++r) {
    const uint32_t p = t.off[bucket[r] + 1]++;
    t.flat_keys[p] = ikeys[r];
    t.flat_rows[p] = static_cast<uint32_t>(r);
  }
  t.off.pop_back();
  return t;
}

/// One probe batch's matches: `hand[k]`/`cnt[k]` for k < matched are the
/// matched candidates and their match counts (when kept), `rows` the inner
/// row of each of the `m` matches (when kept), all in candidate order.
struct BatchMatches {
  uint32_t* hand = nullptr;
  uint32_t* cnt = nullptr;
  uint32_t* rows = nullptr;
  size_t matched = 0;
  size_t m = 0;
};

/// The probe's segment scan, branch-free: every entry of each candidate's
/// bucket segment is compared against its key and the match cursor advanced
/// by the key-equality result. kKeepRows also stores each entry's inner row
/// unconditionally at the cursor, so each key's matches land in ascending
/// inner-row order. There the first entry is read for every candidate, empty
/// segment or not (the flat arrays carry one padding entry), and masked by
/// the segment bound; the loop only runs for the rest of a segment. With at
/// least two buckets per build row most segments hold at most one entry, so
/// that loop is rarely entered and a miss costs no branch misprediction.
/// `out->rows` must hold one entry more than the segments hold. Without
/// kKeepRows a segment is a plain count, which vectorizes over long runs of
/// duplicate keys. kKeepHands stores each candidate and its count
/// unconditionally too and keeps them by advancing a second cursor when it
/// matched, so the matched candidates come out compacted. With neither, the
/// scan only counts (a root join).
template <bool kKeepRows, bool kKeepHands>
void ProbeSegments(const LateBuildTable& build, const int64_t* keys,
                   const uint32_t* buckets, const uint32_t* cand, size_t live,
                   BatchMatches* out) {
  const uint32_t* off = build.off.data();
  const int64_t* flat_keys = build.flat_keys.data();
  const uint32_t* flat_rows = build.flat_rows.data();
  uint32_t* rows = out->rows;
  size_t m = 0, k = 0;
  for (size_t i = 0; i < live; ++i) {
    const int64_t key = keys[i];
    const uint32_t seg_begin = off[buckets[i]];
    const uint32_t seg_end = off[buckets[i] + 1];
    const size_t before = m;
    if constexpr (kKeepRows) {
      rows[m] = flat_rows[seg_begin];
      m += static_cast<size_t>((seg_begin < seg_end) &
                               (flat_keys[seg_begin] == key));
      for (uint32_t j = seg_begin + 1; j < seg_end; ++j) {
        rows[m] = flat_rows[j];
        m += static_cast<size_t>(flat_keys[j] == key);
      }
    } else {
      size_t c = 0;
      for (uint32_t j = seg_begin; j < seg_end; ++j) {
        c += static_cast<size_t>(flat_keys[j] == key);
      }
      m += c;
    }
    if constexpr (kKeepHands) {
      out->hand[k] = cand[i];
      out->cnt[k] = static_cast<uint32_t>(m - before);
      k += static_cast<size_t>(m != before);
    }
  }
  out->matched = k;
  out->m = m;
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

/// Probe driver shared by the late hash-join kernels, in two phases.
///
/// Probe: `fill(batch, cand)` writes the batch's candidate handles (rowset
/// rows for the unfused kernel, filter-surviving base rows for the fused
/// one) and returns how many there are; batch k always covers candidate
/// domain [k*B, (k+1)*B), so chunks of whole batches concatenate back to the
/// sequential order. Each batch runs through ProbeSegments, which writes the
/// matched candidates compacted into the chunk's LateMatches, and residual
/// keys then refine those matches in place. A root join (no output row ids)
/// only counts.
///
/// Emit: the total is now exact, so every output column is allocated once
/// and each chunk writes its own disjoint slice through EmitMatches.
///
/// A non-null `collected` receives every candidate (the fused scan's
/// output). Returns false on overflow (more than `max_rows` matches).
template <typename FillBatch>
bool LateProbeDrive(const LateBuildTable& build, const LateProbeArgs& a,
                    FillBatch fill, RowSet* out, RidColumnPtr* collected) {
  const size_t B = a.B;
  const size_t num_batches = (a.n_cand + B - 1) / B;
  bool need_outer = false, need_inner = false;
  for (const LateRidSource& s : a.out_rids) {
    need_outer |= s.from_outer;
    need_inner |= !s.from_outer;
  }
  const bool keep_rows = need_inner || !a.residual.empty();
  const bool keep_hands = need_outer || !a.residual.empty();
  std::atomic<size_t> emitted{0};
  std::atomic<bool> over{false};

  struct Chunk {
    LateMatches matches;
    Scratch<uint32_t> cand_rows;  // collected candidates (fused scans)
  };

  auto probe_batches = [&](size_t batch_lo, size_t batch_hi, Chunk* chunk) {
    LateMatches& mt = chunk->matches;
    Scratch<uint32_t> cand(B), buckets(B), pair_k;
    // Without outer columns the batch's matched candidates are only needed
    // for residual keys and live here instead of in the match list.
    const size_t hand_scratch = keep_hands && !need_outer ? B : 0;
    Scratch<uint32_t> hand(hand_scratch), cnt(hand_scratch);
    Scratch<int64_t> okeys(B), res_outer, res_inner;
    if (need_outer) {
      // At most one entry per candidate, so these never reallocate.
      const size_t max_cand = std::min(batch_hi * B, a.n_cand) - batch_lo * B;
      mt.hand.reserve(max_cand);
      mt.cnt.reserve(max_cand);
    }
    for (size_t batch = batch_lo; batch < batch_hi; ++batch) {
      if (over.load(std::memory_order_relaxed)) return;
      const size_t live = fill(batch, cand.data());
      if (collected != nullptr) {
        chunk->cand_rows.insert(chunk->cand_rows.end(), cand.data(),
                                cand.data() + live);
      }
      if (live == 0) continue;
      // Join-key access gathers through the row-id indirection — the
      // deferred payload read late materialization trades the emission
      // copies for.
      if (a.okey_rid != nullptr) {
        common::GatherGathered(a.okey_base, a.okey_rid, cand.data(), live,
                               okeys.data());
      } else {
        common::GatherSelected(a.okey_base, cand.data(), live, okeys.data());
      }
      // Hashing alone is branch- and load-free, so it vectorizes.
      for (size_t i = 0; i < live; ++i) {
        buckets[i] = static_cast<uint32_t>(MixJoinKey(okeys[i]) & build.mask);
      }
      // Matched candidates, their counts and the emitted inner rows go
      // straight into the chunk's match list; with residual keys alone the
      // inner rows only hold this batch's matches.
      const size_t hand_base = need_outer ? mt.hand.size() : 0;
      const size_t base = need_inner ? mt.inner.size() : 0;
      BatchMatches bm{hand.data(), cnt.data(), nullptr};
      if (need_outer) {
        mt.hand.resize(hand_base + live);
        mt.cnt.resize(hand_base + live);
        bm.hand = mt.hand.data() + hand_base;
        bm.cnt = mt.cnt.data() + hand_base;
      }
      if (keep_rows) {
        // Segment entries: an upper bound on the matches (ProbeSegments
        // writes one row past it).
        size_t bound = 0;
        for (size_t i = 0; i < live; ++i) {
          bound += build.off[buckets[i] + 1] - build.off[buckets[i]];
        }
        mt.inner.resize(base + bound + 1);
        bm.rows = mt.inner.data() + base;
      }
      const int64_t* k = okeys.data();
      const uint32_t* b = buckets.data();
      if (keep_rows && keep_hands) {
        ProbeSegments<true, true>(build, k, b, cand.data(), live, &bm);
      } else if (keep_rows) {
        ProbeSegments<true, false>(build, k, b, cand.data(), live, &bm);
      } else if (keep_hands) {
        ProbeSegments<false, true>(build, k, b, cand.data(), live, &bm);
      } else {
        ProbeSegments<false, false>(build, k, b, cand.data(), live, &bm);
      }
      if (!a.residual.empty() && bm.m > 0) {
        // Residual equi-join keys evaluate through the same indirection:
        // each outer value is gathered once per matched candidate, each
        // inner value once per match, and the matches are refined
        // branch-free, then recounted and the candidates compacted again.
        pair_k.resize(bm.m);
        res_outer.resize(bm.matched);
        res_inner.resize(bm.m);
        uint32_t* next = pair_k.data();
        for (size_t k = 0; k < bm.matched; ++k) {
          next = std::fill_n(next, bm.cnt[k], static_cast<uint32_t>(k));
        }
        for (const auto& [res_o, res_i] : a.residual) {
          if (bm.m == 0) break;
          if (res_o.rid != nullptr) {
            common::GatherGathered(res_o.base, res_o.rid, bm.hand, bm.matched,
                                   res_outer.data());
          } else {
            common::GatherSelected(res_o.base, bm.hand, bm.matched,
                                   res_outer.data());
          }
          common::GatherGathered(res_i.base, res_i.rid, bm.rows, bm.m,
                                 res_inner.data());
          size_t kept = 0;
          for (size_t j = 0; j < bm.m; ++j) {
            const uint32_t row = bm.rows[j];
            const uint32_t k = pair_k[j];
            bm.rows[kept] = row;
            pair_k[kept] = k;
            kept += static_cast<size_t>(res_outer[k] == res_inner[j]);
          }
          bm.m = kept;
        }
        std::fill_n(bm.cnt, bm.matched, 0u);
        for (size_t j = 0; j < bm.m; ++j) ++bm.cnt[pair_k[j]];
        size_t kept = 0;
        for (size_t k = 0; k < bm.matched; ++k) {
          bm.hand[kept] = bm.hand[k];
          bm.cnt[kept] = bm.cnt[k];
          kept += static_cast<size_t>(bm.cnt[k] != 0);
        }
        bm.matched = kept;
      }
      if (need_inner) mt.inner.resize(base + bm.m);
      if (need_outer) {
        mt.hand.resize(hand_base + bm.matched);
        mt.cnt.resize(hand_base + bm.matched);
        // Every matched candidate counts at least once, so more matches
        // than matched candidates means one of them repeats.
        mt.fan_out |= bm.m > bm.matched;
      }
      mt.rows += bm.m;
      if (a.max_rows > 0 && bm.m > 0 &&
          emitted.fetch_add(bm.m, std::memory_order_relaxed) + bm.m >
              a.max_rows) {
        over.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  BatchesCounter()->Increment(num_batches);
  std::vector<std::pair<size_t, size_t>> ranges = {{0, num_batches}};
  if (a.workers > 1 && a.n_cand + a.n_inner >= kMinParallelRows &&
      num_batches > 1) {
    ranges = common::ThreadPool::Partition(0, num_batches, 1, a.workers);
  }
  std::vector<Chunk> chunks(ranges.size());
  // Runs body(c) for every chunk: inline for one, on the pool otherwise,
  // under the worker profile span `span` (a string literal).
  auto for_each_chunk = [&](const char* span,
                            const std::function<void(size_t)>& body) {
    if (chunks.size() == 1) {
      body(0);
      return;
    }
    common::GlobalPool().ParallelFor(
        0, chunks.size(), 1,
        [&](size_t c0, size_t c1) {
          LPCE_PROFILE_SCOPE(span);
          for (size_t c = c0; c < c1; ++c) body(c);
        },
        a.workers);
  };
  for_each_chunk("exec.worker.late_probe", [&](size_t c) {
    probe_batches(ranges[c].first, ranges[c].second, &chunks[c]);
  });
  if (over.load()) return false;

  // Emit: each chunk's rows start at the prefix sum of the chunks before it.
  std::vector<size_t> row_off(chunks.size() + 1, 0);
  std::vector<size_t> cand_off(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    row_off[c + 1] = row_off[c] + chunks[c].matches.rows;
    cand_off[c + 1] = cand_off[c] + chunks[c].cand_rows.size();
  }
  const std::vector<uint32_t*> dst =
      AllocateRidColumns(out, a.out_rids.size(), row_off.back());
  std::shared_ptr<RidColumn> kept;
  if (collected != nullptr) {
    kept = chunks.size() == 1
               ? std::make_shared<RidColumn>(std::move(chunks[0].cand_rows))
               : std::make_shared<RidColumn>(cand_off.back());
  }
  for_each_chunk("exec.worker.late_emit", [&](size_t c) {
    EmitMatches(chunks[c].matches, a.out_rids, dst, row_off[c]);
    if (kept != nullptr && chunks.size() > 1) {
      std::copy(chunks[c].cand_rows.begin(), chunks[c].cand_rows.end(),
                kept->begin() + cand_off[c]);
    }
  });
  if (collected != nullptr) *collected = std::move(kept);
  return true;
}

/// Resolves a side's join-key accessor: base column data plus the side's
/// row-id column for the key's table.
LateKeyCol LateSideKey(const db::Database& db, const RowSet& side,
                       db::ColRef key) {
  const int idx = side.RidIndex(key.table);
  LPCE_CHECK_MSG(idx >= 0, "late join input missing the key table's row ids");
  return {db.table(key.table).column(key.column).data(),
          side.rid_cols[idx]->data()};
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
        sources.push_back({true, outer->rid_cols[oi]->data()});
        continue;
      }
    } else if (table_id == fused_outer_table) {
      sources.push_back({true, nullptr});
      continue;
    }
    const int ii = inner.RidIndex(table_id);
    LPCE_CHECK_MSG(ii >= 0, "join output row-id table not found in either side");
    sources.push_back({false, inner.rid_cols[ii]->data()});
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

  RidColumnPtr kept;
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
  scan->row_count = kept->size();
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
/// keys once, lets `enumerate` (MergePairs / NestLoopPairs) collect every
/// pair that also agrees on the residual keys into a LateMatches — each
/// outer row's pairs arrive consecutively in both enumerations, so they
/// run-length encode — then writes every output column once at its exact
/// size through EmitMatches.
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
  bool need_outer = false, need_inner = false;
  for (const LateRidSource& s : sources) {
    need_outer |= s.from_outer;
    need_inner |= !s.from_outer;
  }
  LateMatches matches;
  auto emit = [&](size_t o, size_t i) {
    for (const auto& [ocol, icol] : residual) {
      if (ocol[o] != icol[i]) return;
    }
    if (need_outer) {
      if (!matches.hand.empty() && matches.hand.back() == o) {
        matches.fan_out = true;
        ++matches.cnt.back();
      } else {
        matches.hand.push_back(static_cast<uint32_t>(o));
        matches.cnt.push_back(1);
      }
    }
    if (need_inner) matches.inner.push_back(static_cast<uint32_t>(i));
    ++matches.rows;
  };
  bool over = false;
  auto over_limit = [&] {
    over = max_rows > 0 && matches.rows > max_rows;
    return over;
  };
  enumerate(okeys, ikeys, emit, over_limit);
  if (over) {
    *overflow = true;
    return out;
  }
  EmitMatches(matches, sources,
              AllocateRidColumns(out.get(), sources.size(), matches.rows), 0);
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
    const RidColumn& rid = *rs->rid_cols[idx];
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
