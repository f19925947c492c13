// The four intersection kernels and the per-row scratch state that makes
// them cheap to reuse.
//
// Call shape shared by every counting loop in the repo (2D Cannon, SUMMA,
// serial forward algorithm, 1D baselines): one "hashed" row is fixed and
// probed by many task rows. IntersectScratch::begin_row pins the hashed
// row; IntersectScratch::task then intersects it with one probe row using
// whatever kernel the policy selects, building the hash set or bitset
// lazily on the first task that needs it and reusing it for the rest of
// the row's tasks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "tricount/graph/types.hpp"
#include "tricount/hashmap/hash_set.hpp"
#include "tricount/kernels/kernels.hpp"

namespace tricount::kernels {

using graph::TriangleCount;
using graph::VertexId;

/// Dense bitset over one sorted, duplicate-free row. Rebuilding clears
/// exactly the words the previous build set (tracked in a touched-word
/// list), so a reused bitmap can never leak stale bits between rows —
/// the invariant tests/kernels_test.cpp pins down.
class RowBitmap {
 public:
  /// Replaces the contents with `row` (ascending, duplicate-free).
  void build(std::span<const VertexId> row);

  /// Membership test; ids at or above universe() always miss.
  bool test(VertexId v) const {
    const std::size_t word = v >> 6;
    return word < words_.size() && ((words_[word] >> (v & 63)) & 1) != 0;
  }

  /// One past the largest id of the current row (0 when empty).
  VertexId universe() const { return universe_; }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> touched_;
  VertexId universe_ = 0;
};

/// Hit callback of the counting path: the kernels only count matches.
/// Callers that need each match (per-vertex counts, edge supports) pass a
/// callable taking the matched id instead; this no-op instantiation
/// compiles to the plain counting loop.
struct CountOnly {
  void operator()(VertexId) const {}
};

/// Sorted-merge intersection counting matches between two ascending lists.
/// Every kernel calls `on_hit(id)` once per match.
template <class OnHit = CountOnly>
TriangleCount merge_intersect(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              KernelCounters& counters, OnHit on_hit = {}) {
  ++counters.merge_calls;
  TriangleCount hits = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    ++counters.lookups;
    ++counters.merge_steps;
    if (a[i] == b[j]) {
      on_hit(a[i]);
      ++hits;
      ++counters.hits;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return hits;
}

/// First index >= `from` with haystack[index] >= x (haystack.size() when
/// none): a doubling jump from `from` brackets x, then binary search.
inline std::size_t gallop_lower_bound(std::span<const VertexId> haystack,
                                      std::size_t from, VertexId x,
                                      KernelCounters& counters) {
  const std::size_t n = haystack.size();
  if (from >= n || haystack[from] >= x) return from;
  std::size_t prev = from;  // last index known to hold a value < x
  std::size_t step = 1;
  std::size_t cur = from + step;
  while (cur < n && haystack[cur] < x) {
    ++counters.galloping_steps;
    prev = cur;
    step <<= 1;
    cur = from + step;
  }
  std::size_t lo = prev + 1;
  std::size_t hi = std::min(cur, n);
  while (lo < hi) {
    ++counters.galloping_steps;
    const std::size_t mid = lo + (hi - lo) / 2;
    if (haystack[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Galloping (exponential + binary search) intersection: every needle is
/// located in `haystack` with a doubling jump from the previous match
/// position. Both lists ascending; pass the shorter list as `needles`.
template <class OnHit = CountOnly>
TriangleCount galloping_intersect(std::span<const VertexId> needles,
                                  std::span<const VertexId> haystack,
                                  KernelCounters& counters,
                                  OnHit on_hit = {}) {
  ++counters.galloping_calls;
  TriangleCount hits = 0;
  std::size_t at = 0;
  for (const VertexId x : needles) {
    ++counters.lookups;
    at = gallop_lower_bound(haystack, at, x, counters);
    if (at == haystack.size()) break;
    if (haystack[at] == x) {
      on_hit(x);
      ++hits;
      ++counters.hits;
      ++at;
    }
  }
  return hits;
}

/// Probes `probe` (ascending) against a built bitmap; stops at the first
/// id past the bitmap's universe (everything later misses too).
template <class OnHit = CountOnly>
TriangleCount bitmap_intersect(const RowBitmap& bitmap,
                               std::span<const VertexId> probe,
                               KernelCounters& counters, OnHit on_hit = {}) {
  ++counters.bitmap_calls;
  TriangleCount hits = 0;
  for (const VertexId v : probe) {
    if (v >= bitmap.universe()) break;  // probe ascending: the rest miss too
    ++counters.lookups;
    ++counters.bitmap_tests;
    if (bitmap.test(v)) {
      on_hit(v);
      ++hits;
      ++counters.hits;
    }
  }
  return hits;
}

/// Probes `probe` against a built hash set. With `backward_early_exit`
/// (§5.2) the probe list is walked from the largest id down and the loop
/// breaks at the first id below `hashed_min` — every further lookup
/// would miss.
template <class OnHit = CountOnly>
TriangleCount hash_intersect(const hashmap::VertexHashSet& set,
                             std::span<const VertexId> probe,
                             VertexId hashed_min, bool backward_early_exit,
                             KernelCounters& counters, OnHit on_hit = {}) {
  ++counters.hash_calls;
  TriangleCount hits = 0;
  if (backward_early_exit) {
    for (std::size_t at = probe.size(); at-- > 0;) {
      const VertexId k = probe[at];
      if (k < hashed_min) {
        ++counters.early_exits;
        break;
      }
      ++counters.lookups;
      ++counters.hash_lookups;
      if (set.contains(k)) {
        on_hit(k);
        ++counters.hits;
        ++hits;
      }
    }
  } else {
    for (const VertexId k : probe) {
      ++counters.lookups;
      ++counters.hash_lookups;
      if (set.contains(k)) {
        on_hit(k);
        ++counters.hits;
        ++hits;
      }
    }
  }
  return hits;
}

/// Reusable per-rank scratch: the hash set and bitmap for the currently
/// pinned hashed row, built lazily per row and cached across that row's
/// tasks. Debug builds assert that a cached structure always belongs to
/// the pinned row, so stale reuse across rows trips immediately.
class IntersectScratch {
 public:
  /// Sizes the hash table for the longest row this scratch will see.
  void reserve_for(std::size_t max_row_len) { hash_.reserve_for(max_row_len); }

  /// Pins `row` as the hashed side for subsequent task() calls and
  /// invalidates any structure built for the previous row. `allow_direct`
  /// is the §5.2 modified-hashing switch, forwarded to the hash build.
  void begin_row(std::span<const VertexId> row, bool allow_direct);

  /// Intersects the pinned row with `probe` using the kernel `policy`
  /// selects for this pair. Returns the number of matches and calls
  /// `on_hit(id)` for each.
  template <class OnHit = CountOnly>
  TriangleCount task(KernelPolicy policy, std::span<const VertexId> probe,
                     bool backward_early_exit, KernelCounters& counters,
                     OnHit on_hit = {}) {
    if (row_.empty() || probe.empty()) return 0;
    switch (choose_kernel(policy, row_.size(), probe.size(), row_density_)) {
      case KernelKind::kMerge:
        return merge_intersect(row_, probe, counters, on_hit);
      case KernelKind::kGalloping:
        return row_.size() <= probe.size()
                   ? galloping_intersect(row_, probe, counters, on_hit)
                   : galloping_intersect(probe, row_, counters, on_hit);
      case KernelKind::kBitmap:
        return bitmap_intersect(bitmap(counters), probe, counters, on_hit);
      case KernelKind::kHash:
        return hash_intersect(hash(counters), probe, row_.front(),
                              backward_early_exit, counters, on_hit);
    }
    return 0;
  }

  std::uint64_t probes() const { return hash_.probes(); }
  void reset_probes() { hash_.reset_probes(); }
  /// Restores a checkpointed probe tally (see VertexHashSet::set_probes).
  void set_probes(std::uint64_t probes) { hash_.set_probes(probes); }

  /// Current hash-table capacity, for superstep checkpoints.
  std::size_t hash_capacity() const { return hash_.capacity(); }
  /// Crash-recovery rollback: restores the checkpointed capacity and
  /// probe tally together so a replayed superstep reproduces the kernel
  /// tallies of the execution it discards (capacity gates both collision
  /// rates and the direct-mode threshold). Drops any built row state.
  void restore(std::size_t hash_capacity, std::uint64_t probes) {
    hash_.restore_capacity(hash_capacity);
    hash_.set_probes(probes);
    hash_built_ = false;
    bitmap_built_ = false;
  }

 private:
  const hashmap::VertexHashSet& hash(KernelCounters& counters);
  const RowBitmap& bitmap(KernelCounters& counters);

  hashmap::VertexHashSet hash_;
  RowBitmap bitmap_;
  std::span<const VertexId> row_;
  double row_density_ = 0.0;
  bool allow_direct_ = true;
  bool hash_built_ = false;
  bool bitmap_built_ = false;
#ifndef NDEBUG
  /// Identity of the row each cached structure was built from; the
  /// cleared-between-rows assertion compares against the pinned row.
  const VertexId* hash_row_data_ = nullptr;
  std::size_t hash_row_size_ = 0;
  const VertexId* bitmap_row_data_ = nullptr;
  std::size_t bitmap_row_size_ = 0;
#endif
};

}  // namespace tricount::kernels
