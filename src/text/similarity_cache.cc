#include "text/similarity_cache.h"

#include <algorithm>

#include "common/strings.h"

namespace sfsql::text {

namespace {

/// The calling thread's share of every cache's counters (see ThreadStats).
thread_local SimilarityCache::Stats tls_stats;

}  // namespace

SimilarityCache::SimilarityCache(size_t capacity, size_t num_shards)
    : capacity_(capacity),
      per_shard_capacity_(0),
      shards_(std::max<size_t>(1, num_shards)) {
  per_shard_capacity_ = (capacity_ + shards_.size() - 1) / shards_.size();
}

std::string SimilarityCache::MakeKey(std::string_view a, std::string_view b,
                                     int q) {
  std::string la = ToLower(a);
  std::string lb = ToLower(b);
  if (lb < la) std::swap(la, lb);
  std::string key;
  key.reserve(la.size() + lb.size() + 3);
  key += la;
  key += '\x1F';  // out of band for identifiers, same sentinel as q-gram padding
  key += lb;
  key += '\x1F';
  key += static_cast<char>('0' + (q & 0x3F));
  return key;
}

SimilarityCache::Shard& SimilarityCache::ShardFor(std::string_view key) const {
  return shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

bool SimilarityCache::Lookup(std::string_view a, std::string_view b, int q,
                             double* value) const {
  if (capacity_ == 0) return false;
  std::string key = MakeKey(a, b, q);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  if (value != nullptr) *value = it->second->second;
  return true;
}

double SimilarityCache::GetOrCompute(std::string_view a, std::string_view b,
                                     int q,
                                     const std::function<double()>& compute) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++tls_stats.misses;
    return compute();
  }
  std::string key = MakeKey(a, b, q);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: move to the front of the LRU list.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      ++tls_stats.hits;
      return it->second->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  ++tls_stats.misses;
  double value = compute();  // outside the lock; pure and repeatable
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) return it->second->second;  // raced; keep first
    shard.lru.emplace_front(std::move(key), value);
    shard.index.emplace(shard.lru.front().first, shard.lru.begin());
    entries_.fetch_add(1, std::memory_order_relaxed);
    if (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      ++tls_stats.evictions;
      entries_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  return value;
}

void SimilarityCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.index.clear();
    shard.lru.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

SimilarityCache::Stats SimilarityCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  // Lock-free: the entry count is maintained at insert/evict. stats() runs
  // once per metered translate, so walking the shard mutexes here would put
  // cross-thread contention on the serving hot path.
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

SimilarityCache::Stats SimilarityCache::ThreadStats() { return tls_stats; }

}  // namespace sfsql::text
