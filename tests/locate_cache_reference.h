// The locate cache as LocateCache kept it before it moved each node's
// hints into one flat slot array: a std::list per node in LRU order plus
// an unordered_map from base guid to list iterator, with full NodeIds in
// every entry.  Kept outside the library as the correctness oracle for
// the flat layout: test_hotspot drives both through one random op stream
// and compares every returned entry, counter and per-node size after each
// op.  The class is the library's old code, unchanged apart from living
// in namespace tap::reference, being header-only and taking its Entry,
// Stats and Liveness types from the library's class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/sim/metrics.h"
#include "src/tapestry/hotspot.h"
#include "src/tapestry/id.h"

namespace tap::reference {

class LocateCache {
 public:
  using Entry = tap::LocateCache::Entry;
  using Stats = tap::LocateCache::Stats;
  using Liveness = tap::LocateCache::Liveness;

  /// `capacity` == 0 disables the cache entirely (every call is a no-op and
  /// lookups never hit).  Without `is_live` every node counts as alive.
  explicit LocateCache(std::size_t capacity, Liveness is_live = nullptr)
      : capacity_(capacity), is_live_(std::move(is_live)) {}

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// Returns node `at`'s freshest entry for `base`, refreshing its LRU
  /// position.  An entry whose holder or server is dead, or whose
  /// deadline has passed, is dropped on the spot and the lookup counts as
  /// a miss.
  std::optional<Entry> lookup(const NodeId& at, const Guid& base, double now) {
    if (!enabled()) return std::nullopt;
    auto nit = nodes_.find(at.value());
    if (nit == nodes_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    PerNode& pn = nit->second;
    auto it = pn.index.find(base);
    if (it == pn.index.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    // A hint naming a dead holder or replica leads nowhere; it dies here,
    // where it is read, not at the death.  The cache is also one instant
    // stricter than the store, which still treats now == expires_at as
    // live: a hint dies at its deadline, so it can never name a pointer
    // the holder's store no longer returns.
    const Entry& e = it->second->second;
    const bool stale = is_live_ && !(is_live_(e.holder) && is_live_(e.server));
    if (stale || e.expires <= now) {
      ++(stale ? stats_.invalidated : stats_.expired);
      pn.lru.erase(it->second);
      pn.index.erase(it);
      ++stats_.misses;
      return std::nullopt;
    }
    pn.lru.splice(pn.lru.begin(), pn.lru, it->second);  // refresh LRU position
    ++stats_.hits;
    metrics::cache_hits_total().inc();
    return it->second->second;
  }

  /// Upserts an entry into node `at`'s LRU, evicting the stalest entry
  /// past capacity.  An entry already at or past its deadline is dropped.
  void insert(const NodeId& at, const Guid& base, Entry entry, double now) {
    if (!enabled()) return;
    if (entry.expires <= now) return;  // born dead; nothing worth remembering
    PerNode& pn = nodes_[at.value()];
    ++stats_.insertions;
    if (auto it = pn.index.find(base); it != pn.index.end()) {
      it->second->second = entry;
      pn.lru.splice(pn.lru.begin(), pn.lru, it->second);
      return;
    }
    pn.lru.emplace_front(base, entry);
    pn.index.emplace(base, pn.lru.begin());
    if (pn.lru.size() > capacity_) {
      pn.index.erase(pn.lru.back().first);
      pn.lru.pop_back();
    }
  }

  /// Drops node `at`'s entry for `base` (failed verification).
  void erase(const NodeId& at, const Guid& base) {
    auto nit = nodes_.find(at.value());
    if (nit == nodes_.end()) return;
    PerNode& pn = nit->second;
    auto it = pn.index.find(base);
    if (it == pn.index.end()) return;
    pn.lru.erase(it->second);
    pn.index.erase(it);
  }

  /// Drops the dead or departed node's own LRU (§5).  Hints elsewhere
  /// that name it as pointer holder or replica stay until lookup reads
  /// them, or the LRU evicts them.
  void drop_node(const NodeId& dead) {
    if (auto nit = nodes_.find(dead.value()); nit != nodes_.end()) {
      stats_.invalidated += nit->second.lru.size();
      nodes_.erase(nit);
    }
  }

  /// Records a hit whose holder verification failed (the caller fell back
  /// to the surrogate walk).
  void note_fallback() noexcept {
    ++stats_.fallbacks;
    metrics::cache_fallbacks_total().inc();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Total entries across all nodes (tests audit the LRU bound with
  /// entries_at).
  [[nodiscard]] std::size_t entries() const noexcept {
    std::size_t n = 0;
    for (const auto& [node, pn] : nodes_) n += pn.lru.size();
    return n;
  }
  [[nodiscard]] std::size_t entries_at(const NodeId& at) const {
    auto nit = nodes_.find(at.value());
    return nit == nodes_.end() ? 0 : nit->second.lru.size();
  }

 private:
  using Item = std::pair<Guid, Entry>;
  struct PerNode {
    std::list<Item> lru;  // front = most recently used
    std::unordered_map<Guid, std::list<Item>::iterator> index;
  };

  std::size_t capacity_;
  Liveness is_live_;
  std::unordered_map<std::uint64_t, PerNode> nodes_;
  Stats stats_{};
};

}  // namespace tap::reference
