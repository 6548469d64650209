// NeighborSet: a read-only view of one (β, j) entry of a Tapestry routing
// table (paper §2.1).
//
// The set holds up to R = `capacity` neighbors whose node-IDs share the
// prefix β·j, ordered by network distance; the closest is the *primary*
// neighbor, the rest are *secondary* (backup) neighbors.  Of all candidate
// nodes, the set keeps the closest — Property 2 (locality).  If the set
// holds fewer than R members it must hold *all* (β, j) nodes — Property 1
// (consistency); that global property is maintained by the Network
// algorithms, not by the table.
//
// Pinned members (paper §4.4) are concurrently-inserting nodes whose
// multicasts have not yet been acknowledged.  A pinned member is never
// evicted and does not count against capacity: "X must keep at least one
// unpinned pointer and all pinned pointers."
//
// Layout: a set owns no storage.  RoutingTable keeps every slot's members
// in one packed array, and RoutingTable::at(level, digit) hands out this
// view of one slot's run of it: a pointer range over the members, sorted
// by (distance, id), plus the table's short list of (slot, id) pins.  A
// view, and every pointer taken from it, is invalidated by any mutation of
// its table — of any slot, not only its own — because an insert or erase
// shifts, and may reallocate, the whole array.  The consider / remove /
// pin / unpin rules live in RoutingTable, the only writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/tapestry/id.h"

namespace tap {

class RoutingTable;

/// One member of a slot: 24 bytes, the id and its measured distance.
struct NeighborEntry {
  NodeId id{};
  double dist = 0.0;
};

/// A §4.4 pin: member `id` of table slot `slot` (level * radix + digit).
struct SlotPin {
  std::uint32_t slot = 0;
  NodeId id{};
};

class NeighborSet {
 public:
  /// Contiguous, read-only range over a slot's members, primary first.
  class Entries {
   public:
    Entries(const NeighborEntry* b, const NeighborEntry* e) noexcept
        : b_(b), e_(e) {}
    [[nodiscard]] const NeighborEntry* begin() const noexcept { return b_; }
    [[nodiscard]] const NeighborEntry* end() const noexcept { return e_; }
    [[nodiscard]] std::size_t size() const noexcept {
      return static_cast<std::size_t>(e_ - b_);
    }
    [[nodiscard]] bool empty() const noexcept { return b_ == e_; }
    [[nodiscard]] const NeighborEntry& operator[](std::size_t i) const {
      return b_[i];
    }
    [[nodiscard]] const NeighborEntry& front() const { return *b_; }
    [[nodiscard]] const NeighborEntry& back() const { return e_[-1]; }

   private:
    const NeighborEntry* b_;
    const NeighborEntry* e_;
  };

  /// Members ordered by (distance, id) (primary first).
  [[nodiscard]] Entries entries() const noexcept { return entries_; }

  /// Closest member (the primary neighbor), if any.
  [[nodiscard]] std::optional<NodeId> primary() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.front().id;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] unsigned capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool contains(const NodeId& id) const {
    for (const auto& e : entries_)
      if (e.id == id) return true;
    return false;
  }

  /// True when member `id` of this slot is pinned.
  [[nodiscard]] bool pinned(const NodeId& id) const {
    for (const SlotPin& p : *pins_)
      if (p.slot == slot_ && p.id == id) return true;
    return false;
  }

  /// Pinned members, in distance order.
  [[nodiscard]] std::vector<NodeId> pinned_members() const {
    std::vector<NodeId> out;
    if (pins_->empty()) return out;
    for (const auto& e : entries_)
      if (pinned(e.id)) out.push_back(e.id);
    return out;
  }

  [[nodiscard]] std::size_t unpinned_count() const {
    std::size_t n = entries_.size();
    for (const SlotPin& p : *pins_)
      if (p.slot == slot_) --n;
    return n;
  }

 private:
  friend class RoutingTable;  // the only maker of views
  NeighborSet(Entries entries, unsigned capacity, std::uint32_t slot,
              const std::vector<SlotPin>& pins) noexcept
      : entries_(entries), capacity_(capacity), slot_(slot), pins_(&pins) {}

  Entries entries_;
  unsigned capacity_;
  std::uint32_t slot_;
  const std::vector<SlotPin>* pins_;
};

}  // namespace tap
