// The per-slot container RoutingTable kept before it packed every slot
// into one member array: each (β, j) slot was its own NeighborSet with its
// own entry vector, and a pin was a flag on the entry.  Kept outside the
// library as the correctness oracle for RoutingTable's consider / remove /
// pin / unpin rules: test_tables drives a table and one of these per slot
// through the same random operations and compares every slot's (id,
// distance, pinned) sequence after each.  The class is the library's old
// code, unchanged apart from living in namespace tap::reference and being
// header-only.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "src/common/assert.h"
#include "src/tapestry/id.h"

namespace tap::reference {

struct NeighborEntry {
  NodeId id{};
  double dist = 0.0;
  bool pinned = false;
};

class NeighborSet {
 public:
  explicit NeighborSet(unsigned capacity = 0) : capacity_(capacity) {}

  struct ConsiderResult {
    bool inserted = false;             ///< candidate is now a member
    std::optional<NodeId> evicted{};   ///< member displaced to make room
  };

  /// Offers a candidate.  Inserts it when the set has room or the candidate
  /// is closer than the farthest unpinned member (which is then evicted).
  /// Updating an existing member's distance is allowed (relocation, §6.4).
  ConsiderResult consider(NodeId id, double dist);

  /// Removes a member.  Returns true when it was present.
  bool remove(const NodeId& id);

  [[nodiscard]] bool contains(const NodeId& id) const;

  /// Closest member (the primary neighbor), if any.
  [[nodiscard]] std::optional<NodeId> primary() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.front().id;
  }

  /// Members ordered by distance (primary first).
  [[nodiscard]] const std::vector<NeighborEntry>& entries() const noexcept {
    return entries_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] unsigned capacity() const noexcept { return capacity_; }

  /// Marks a member pinned, inserting it first if absent (never evicts
  /// anyone to do so — pinned members live outside the capacity budget).
  void pin(NodeId id, double dist);

  /// Clears the pinned mark.  If the set is now over capacity the farthest
  /// unpinned members are evicted; evicted ids are appended to `evicted`.
  void unpin(const NodeId& id, std::vector<NodeId>& evicted);

  [[nodiscard]] std::vector<NodeId> pinned_members() const;
  [[nodiscard]] std::size_t unpinned_count() const;

 private:
  void insert_sorted(NeighborEntry e);
  void enforce_capacity(std::vector<NodeId>& evicted);

  unsigned capacity_;
  std::vector<NeighborEntry> entries_;  // sorted by (dist, id)
};

namespace detail {
inline bool closer(const NeighborEntry& a, const NeighborEntry& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;  // deterministic tiebreak
}
}  // namespace detail

inline void NeighborSet::insert_sorted(NeighborEntry e) {
  // Grow one entry at a time up to R so a full slot holds exactly R
  // entries instead of the next power of two; pinned members past R fall
  // back to normal vector growth.
  if (entries_.size() == entries_.capacity() && entries_.size() < capacity_)
    entries_.reserve(entries_.size() + 1);
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), e, detail::closer);
  entries_.insert(it, e);
}

inline NeighborSet::ConsiderResult NeighborSet::consider(NodeId id,
                                                         double dist) {
  TAP_CHECK(capacity_ > 0, "NeighborSet has zero capacity");
  ConsiderResult result;
  // Distance update path: remove and reinsert to keep order.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      if (it->dist == dist) {
        result.inserted = true;  // already a member, nothing to do
        return result;
      }
      NeighborEntry e = *it;
      entries_.erase(it);
      e.dist = dist;
      insert_sorted(e);
      result.inserted = true;
      return result;
    }
  }

  const std::size_t unpinned = unpinned_count();
  if (unpinned < capacity_) {
    insert_sorted(NeighborEntry{id, dist, false});
    result.inserted = true;
    return result;
  }

  // Find the farthest unpinned member; replace it if the candidate is
  // strictly closer (ties keep the incumbent for stability).
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (!it->pinned) victim = it;  // entries_ sorted => last unpinned is farthest
  TAP_ASSERT(victim != entries_.end());
  if (detail::closer(NeighborEntry{id, dist, false}, *victim)) {
    result.evicted = victim->id;
    entries_.erase(victim);
    insert_sorted(NeighborEntry{id, dist, false});
    result.inserted = true;
  }
  return result;
}

inline bool NeighborSet::remove(const NodeId& id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

inline bool NeighborSet::contains(const NodeId& id) const {
  for (const auto& e : entries_)
    if (e.id == id) return true;
  return false;
}

inline void NeighborSet::pin(NodeId id, double dist) {
  for (auto& e : entries_) {
    if (e.id == id) {
      e.pinned = true;
      return;
    }
  }
  insert_sorted(NeighborEntry{id, dist, true});
}

inline void NeighborSet::unpin(const NodeId& id,
                               std::vector<NodeId>& evicted) {
  for (auto& e : entries_) {
    if (e.id == id) {
      e.pinned = false;
      enforce_capacity(evicted);
      return;
    }
  }
}

inline void NeighborSet::enforce_capacity(std::vector<NodeId>& evicted) {
  while (unpinned_count() > capacity_) {
    // Farthest unpinned member goes.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (!it->pinned) {
        evicted.push_back(it->id);
        entries_.erase(std::next(it).base());
        break;
      }
    }
  }
}

inline std::vector<NodeId> NeighborSet::pinned_members() const {
  std::vector<NodeId> out;
  for (const auto& e : entries_)
    if (e.pinned) out.push_back(e.id);
  return out;
}

inline std::size_t NeighborSet::unpinned_count() const {
  std::size_t n = 0;
  for (const auto& e : entries_)
    if (!e.pinned) ++n;
  return n;
}

}  // namespace tap::reference
