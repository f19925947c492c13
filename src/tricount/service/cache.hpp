// Versioned LRU result cache (docs/service.md): served results keyed on
// (graph_version, verb, canonical params). A graph.load/graph.swap bumps
// the version, so stale entries can never match again; invalidate_all()
// additionally frees them eagerly. Capacity 0 disables caching entirely
// (get/put become no-ops), which the batch coalescer uses in tests.
//
// Thread-safe: the dispatcher reads and writes entries while client
// threads read stats() for the live gauges.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace tricount::service {

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };

  /// The composite cache key.
  static std::string key(std::uint64_t graph_version, const std::string& verb,
                         const std::string& canonical_params);

  /// Looks up a cached response body; counts a hit or a miss.
  std::optional<std::string> get(const std::string& key);

  /// Inserts (or refreshes) an entry, evicting the LRU tail past capacity.
  void put(const std::string& key, std::string result);

  /// Drops every entry (graph swap); counts them as invalidations.
  void invalidate_all();

  /// Drops only the entries keyed under `graph_version` (surgical: a
  /// graph.apply supersedes one version, and everything older was
  /// already purged at its own bump). Counts them as invalidations.
  void invalidate_version(std::uint64_t graph_version);

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::string result;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace tricount::service
