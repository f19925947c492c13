#include "tricount/kernels/intersect.hpp"

#include <cassert>

namespace tricount::kernels {

void RowBitmap::build(std::span<const VertexId> row) {
  for (const std::uint32_t word : touched_) words_[word] = 0;
  touched_.clear();
  universe_ = row.empty() ? 0 : row.back() + 1;
  const std::size_t needed = (static_cast<std::size_t>(universe_) + 63) / 64;
  if (words_.size() < needed) words_.resize(needed, 0);
  for (const VertexId v : row) {
    const auto word = static_cast<std::uint32_t>(v >> 6);
    if (words_[word] == 0) touched_.push_back(word);
    words_[word] |= std::uint64_t{1} << (v & 63);
  }
}

void IntersectScratch::begin_row(std::span<const VertexId> row,
                                 bool allow_direct) {
  row_ = row;
  allow_direct_ = allow_direct;
  hash_built_ = false;
  bitmap_built_ = false;
  row_density_ = 0.0;
  if (!row.empty()) {
    const double span =
        static_cast<double>(row.back()) - static_cast<double>(row.front()) + 1.0;
    row_density_ = static_cast<double>(row.size()) / span;
  }
}

const hashmap::VertexHashSet& IntersectScratch::hash(KernelCounters& counters) {
  if (!hash_built_) {
    hash_.build(row_, allow_direct_);
    hash_built_ = true;
    ++counters.hash_builds;
    if (hash_.mode() == hashmap::VertexHashSet::Mode::kDirect) {
      ++counters.direct_builds;
    }
#ifndef NDEBUG
    hash_row_data_ = row_.data();
    hash_row_size_ = row_.size();
#endif
  }
  // The scratch is reused across tasks and rows; a hash that was built
  // for a different row than the one currently pinned means begin_row was
  // skipped and stale entries would corrupt the count.
  assert(hash_row_data_ == row_.data() && hash_row_size_ == row_.size());
  return hash_;
}

const RowBitmap& IntersectScratch::bitmap(KernelCounters& counters) {
  if (!bitmap_built_) {
    bitmap_.build(row_);
    bitmap_built_ = true;
    ++counters.bitmap_builds;
#ifndef NDEBUG
    bitmap_row_data_ = row_.data();
    bitmap_row_size_ = row_.size();
#endif
  }
  assert(bitmap_row_data_ == row_.data() && bitmap_row_size_ == row_.size());
  return bitmap_;
}

}  // namespace tricount::kernels
