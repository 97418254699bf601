#ifndef SFSQL_TEXT_SIMILARITY_CACHE_H_
#define SFSQL_TEXT_SIMILARITY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sfsql::text {

/// Thread-safe, bounded memo for name-similarity scores.
///
/// Keys are normalized (a, b, q) triples: both names lower-cased and ordered,
/// so Sim(a, b) and Sim(B, A) share one entry (every similarity in the system
/// is symmetric and case-insensitive). The cache is sharded — each shard is an
/// LRU list + hash map behind its own mutex — so concurrent lookups from the
/// parallel generator or from multiple engine users rarely contend.
///
/// A capacity of 0 disables storage entirely: GetOrCompute degenerates to
/// calling `compute` (still counted as a miss), which is how benchmarks
/// reproduce the uncached baseline.
class SimilarityCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  explicit SimilarityCache(size_t capacity = 1 << 16, size_t num_shards = 8);

  SimilarityCache(const SimilarityCache&) = delete;
  SimilarityCache& operator=(const SimilarityCache&) = delete;

  /// Returns the cached score for the normalized (a, b, q) key, or invokes
  /// `compute`, stores the result (evicting the least recently used entry when
  /// the shard is full), and returns it. `compute` runs outside any lock; a
  /// racing duplicate computation is harmless because scores are pure.
  double GetOrCompute(std::string_view a, std::string_view b, int q,
                      const std::function<double()>& compute);

  /// Cached value lookup only; returns true and sets *value on a hit.
  bool Lookup(std::string_view a, std::string_view b, int q,
              double* value) const;

  void Clear();

  size_t capacity() const { return capacity_; }
  /// Cumulative counters of this cache, across every thread.
  Stats stats() const;
  /// Hits, misses and evictions of the calling thread's GetOrCompute calls,
  /// summed over every cache (`entries` stays 0). Before/after differences
  /// count exactly the lookups a caller made in between, whatever other
  /// threads do meanwhile.
  static Stats ThreadStats();

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. Pairs of (key, score).
    std::list<std::pair<std::string, double>> lru;
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, double>>::iterator>
        index;  ///< views into the list-owned key strings
  };

  static std::string MakeKey(std::string_view a, std::string_view b, int q);
  Shard& ShardFor(std::string_view key) const;

  size_t capacity_;
  size_t per_shard_capacity_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  /// Live entry count across all shards, maintained at insert/evict so
  /// stats() never touches a shard mutex (it runs per metered translate).
  mutable std::atomic<size_t> entries_{0};
};

}  // namespace sfsql::text

#endif  // SFSQL_TEXT_SIMILARITY_CACHE_H_
