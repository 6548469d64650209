#include "src/tapestry/neighbor_set.h"

#include <algorithm>

namespace tap {

namespace {
bool closer(const NeighborEntry& a, const NeighborEntry& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;  // deterministic tiebreak
}
}  // namespace

void NeighborSet::insert_sorted(NeighborEntry e) {
  // Grow one entry at a time up to R so a full slot holds exactly R
  // entries instead of the next power of two; pinned members past R fall
  // back to normal vector growth.
  if (entries_.size() == entries_.capacity() && entries_.size() < capacity_)
    entries_.reserve(entries_.size() + 1);
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), e, closer);
  entries_.insert(it, e);
}

NeighborSet::ConsiderResult NeighborSet::consider(NodeId id, double dist) {
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
  if (closer(NeighborEntry{id, dist, false}, *victim)) {
    result.evicted = victim->id;
    entries_.erase(victim);
    insert_sorted(NeighborEntry{id, dist, false});
    result.inserted = true;
  }
  return result;
}

bool NeighborSet::remove(const NodeId& id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

bool NeighborSet::contains(const NodeId& id) const {
  for (const auto& e : entries_)
    if (e.id == id) return true;
  return false;
}

void NeighborSet::pin(NodeId id, double dist) {
  for (auto& e : entries_) {
    if (e.id == id) {
      e.pinned = true;
      return;
    }
  }
  insert_sorted(NeighborEntry{id, dist, true});
}

void NeighborSet::unpin(const NodeId& id, std::vector<NodeId>& evicted) {
  for (auto& e : entries_) {
    if (e.id == id) {
      e.pinned = false;
      enforce_capacity(evicted);
      return;
    }
  }
}

void NeighborSet::enforce_capacity(std::vector<NodeId>& evicted) {
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

std::vector<NodeId> NeighborSet::pinned_members() const {
  std::vector<NodeId> out;
  for (const auto& e : entries_)
    if (e.pinned) out.push_back(e.id);
  return out;
}

std::size_t NeighborSet::unpinned_count() const {
  std::size_t n = 0;
  for (const auto& e : entries_)
    if (!e.pinned) ++n;
  return n;
}

}  // namespace tap
