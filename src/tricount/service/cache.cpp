#include "tricount/service/cache.hpp"

#include <utility>

namespace tricount::service {

std::string ResultCache::key(std::uint64_t graph_version,
                             const std::string& verb,
                             const std::string& canonical_params) {
  return std::to_string(graph_version) + '|' + verb + '|' + canonical_params;
}

std::optional<std::string> ResultCache::get(const std::string& key) {
  if (capacity_ == 0) return std::nullopt;
  std::scoped_lock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  entries_.splice(entries_.begin(), entries_, it->second);  // bump to MRU
  return entries_.front().result;
}

void ResultCache::put(const std::string& key, std::string result) {
  if (capacity_ == 0) return;
  std::scoped_lock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->result = std::move(result);
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  entries_.push_front(Entry{key, std::move(result)});
  index_[key] = entries_.begin();
  while (entries_.size() > capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    ++evictions_;
  }
}

void ResultCache::invalidate_version(std::uint64_t graph_version) {
  std::scoped_lock lock(mutex_);
  const std::string prefix = std::to_string(graph_version) + '|';
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->key.compare(0, prefix.size(), prefix) == 0) {
      index_.erase(it->key);
      it = entries_.erase(it);
      ++invalidations_;
    } else {
      ++it;
    }
  }
}

void ResultCache::invalidate_all() {
  std::scoped_lock lock(mutex_);
  invalidations_ += entries_.size();
  entries_.clear();
  index_.clear();
}

ResultCache::Stats ResultCache::stats() const {
  std::scoped_lock lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.size = entries_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace tricount::service
