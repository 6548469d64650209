// RoutingTable: a Tapestry node's neighbor sets and backpointers (§2.1).
//
// Level l (0-based here; the paper's levels are 1-based) holds, for each
// digit j, the neighbor set N_{β,j} where β is the first l digits of the
// owner's node-ID.  A node X can therefore appear in at most one slot per
// level — slot (l, X.digit(l)) — which makes backpointers per (level, node)
// unambiguous.
//
// The owner occupies its own slot at every level (it is a (β, own-digit)
// node at distance 0), so every row has at least one filled slot; the
// surrogate-routing stop rule ("current node is the only node left at and
// above this level") then falls out of plain next-filled-slot traversal.
//
// For each forward link A -> B, node B keeps a backpointer (level, A);
// the Network layer keeps the two sides coherent.  Each level's
// backpointers live in one sorted, duplicate-free vector: 16 bytes per
// holder (a node-based set spends a 64-byte heap chunk on each), and the
// ascending-id order that table fingerprints and join/repair candidate
// lists depend on.
//
// Occupancy bitmasks: each row carries a bitmask with bit j set iff slot
// (l, j) is non-empty, so the routing hot path (Router::select_slot /
// route_step) skips empty slots with O(1) bit scans instead of probing
// every NeighborSet.  To keep the masks trustworthy, *all* slot mutations
// funnel through the RoutingTable wrappers below (consider / remove / pin /
// unpin); the non-const per-slot accessor was removed so no caller can
// desynchronise a mask.  IdSpec caps the radix at 64, so each row's mask
// is one word.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/assert.h"
#include "src/tapestry/id.h"
#include "src/tapestry/neighbor_set.h"

namespace tap {

/// Bit-scan helpers over a row occupancy mask: bit j set <=> slot j
/// occupied.  Bits at and above the radix are always clear.
namespace occ {

inline constexpr unsigned kNone = ~0u;

[[nodiscard]] inline bool test(std::uint64_t row, unsigned j) noexcept {
  return (row >> j) & 1u;
}

/// First occupied slot >= `from` (no wrap), or kNone.
[[nodiscard]] inline unsigned next(std::uint64_t row, unsigned from) noexcept {
  if (from >= 64) return kNone;
  const std::uint64_t cur = row & (~std::uint64_t{0} << from);
  return cur == 0 ? kNone : static_cast<unsigned>(__builtin_ctzll(cur));
}

/// Last occupied slot <= `from` (from < 64), or kNone.
[[nodiscard]] inline unsigned prev(std::uint64_t row, unsigned from) noexcept {
  const std::uint64_t cur = row & (~std::uint64_t{0} >> (63u - from));
  return cur == 0 ? kNone : 63u - static_cast<unsigned>(__builtin_clzll(cur));
}

/// First occupied slot at or after `start`, wrapping around the digit
/// alphabet (the Tapestry Native hole rule); kNone iff the row is empty.
[[nodiscard]] inline unsigned next_wrap(std::uint64_t row,
                                        unsigned start) noexcept {
  const unsigned j = next(row, start);
  return j != kNone ? j : next(row, 0);
}

}  // namespace occ

class RoutingTable {
 public:
  RoutingTable(IdSpec spec, NodeId self, unsigned redundancy);

  [[nodiscard]] unsigned levels() const noexcept { return levels_; }
  [[nodiscard]] unsigned radix() const noexcept { return radix_; }
  [[nodiscard]] const NodeId& self() const noexcept { return self_; }

  /// Read-only slot access.  Slot *mutations* go through the wrappers
  /// below so the occupancy masks stay in sync.
  [[nodiscard]] const NeighborSet& at(unsigned level, unsigned digit) const {
    return slots_[index(level, digit)];
  }

  // --- occupancy masks ---
  /// The row's mask: bit j set <=> slot (level, j) non-empty.
  [[nodiscard]] std::uint64_t row_mask(unsigned level) const {
    TAP_ASSERT(level < levels_);
    return occupancy_[level];
  }
  /// O(1) emptiness test off the mask.
  [[nodiscard]] bool slot_empty(unsigned level, unsigned digit) const {
    TAP_ASSERT(level < levels_ && digit < radix_);
    return !occ::test(occupancy_[level], digit);
  }

  // --- slot mutations (the only write path; masks kept in sync) ---
  /// Offers a candidate to slot (level, digit); see NeighborSet::consider.
  NeighborSet::ConsiderResult consider(unsigned level, unsigned digit,
                                       NodeId id, double dist);
  /// Removes a member from slot (level, digit); true when it was present.
  bool remove(unsigned level, unsigned digit, const NodeId& id);
  /// Pins a member into slot (level, digit) (§4.4 simultaneous insertion).
  void pin(unsigned level, unsigned digit, NodeId id, double dist);
  /// Clears a pin; over-capacity evictions are appended to `evicted`.
  void unpin(unsigned level, unsigned digit, const NodeId& id,
             std::vector<NodeId>& evicted);

  /// Primary neighbor of a slot, if the slot is non-empty.
  [[nodiscard]] std::optional<NodeId> primary(unsigned level,
                                              unsigned digit) const {
    return at(level, digit).primary();
  }

  /// True when some slot in the row holds a node other than the owner —
  /// i.e. the owner is *not* the only node with its length-`level` prefix
  /// (the multicast NOTONLYNODEWITHPREFIX test, Figure 8).
  [[nodiscard]] bool row_has_other(unsigned level) const;

  /// Unique members across all slots of a row, owner included.  These are
  /// the "forward pointers at level l" handed out during GETNEXTLIST.
  [[nodiscard]] std::vector<NodeId> row_members(unsigned level) const;

  /// Unique members across the whole table, owner excluded.
  [[nodiscard]] std::vector<NodeId> all_neighbors() const;

  /// Total stored links, owner-self entries excluded — the space figure
  /// reported in Table 1 comparisons.
  [[nodiscard]] std::size_t total_entries() const;

  // --- backpointers ---
  /// Idempotent: adding a present holder is a no-op.
  void add_backpointer(unsigned level, NodeId who);
  /// Removing an absent holder is a no-op.
  void remove_backpointer(unsigned level, const NodeId& who);
  [[nodiscard]] bool has_backpointer(unsigned level, const NodeId& who) const;
  /// Holders at one level, ascending by id.  Mutations invalidate
  /// iterators, so a caller that edits backpointers while walking copies.
  [[nodiscard]] const std::vector<NodeId>& backpointers(unsigned level) const;
  /// Unique nodes holding any backpointer to the owner, ascending by id.
  [[nodiscard]] std::vector<NodeId> all_backpointers() const;

 private:
  [[nodiscard]] std::size_t index(unsigned level, unsigned digit) const {
    TAP_ASSERT(level < levels_ && digit < radix_);
    return static_cast<std::size_t>(level) * radix_ + digit;
  }
  /// Re-derives the mask bit of one slot from its contents.
  void sync_bit(unsigned level, unsigned digit) {
    const std::uint64_t bit = std::uint64_t{1} << digit;
    if (slots_[index(level, digit)].empty())
      occupancy_[level] &= ~bit;
    else
      occupancy_[level] |= bit;
  }

  NodeId self_;
  unsigned levels_;
  unsigned radix_;
  std::vector<NeighborSet> slots_;
  std::vector<std::uint64_t> occupancy_;       // one mask word per level
  std::vector<std::vector<NodeId>> backptrs_;  // per level, sorted, unique
};

}  // namespace tap
