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
// Layout: one packed member array per table.  `members_` holds every
// slot's members back to back in (level, digit) order, each slot's run
// sorted by (distance, id); slot s = level * radix + digit owns
// members_[start_[s], start_[s + 1]), with levels * radix + 1 uint16_t
// offsets.  Every id the table holds, member or backpointer, is stored
// as its 8-byte value under the table's IdSpec (the owner's), so a member
// is a 16-byte {value, distance} pair.  The stored form does not record
// the spec: every mutation and lookup checks that an id carries it, and
// views rebuild each NodeId on read.  Most of a table's levels * radix
// slots are empty (rows past log_radix n hold only the owner), so an
// empty slot costs two bytes, not a container header.  Inserting or
// erasing a member shifts the array's tail and bumps the later offsets;
// replacing a member of a full slot, or re-ranking one whose distance
// changed, re-sorts that slot's run in place.  Pins (§4.4) are not part
// of a member: the table keeps a short list of (slot, id) pairs, empty
// outside insertions.  at(level, digit) returns a NeighborSet view of one
// run, so any table mutation invalidates every view taken from that
// table.
//
// Growth: the member array and each level's backpointer vector grow by a
// fixed step of kGrowStep elements, not by doubling — a table one link
// past a build would otherwise double ~130 entries.  The static builder
// reserves each table's exact member count up front, and sizes each
// backpointer level as fixed-step growth would have.
//
// For each forward link A -> B, node B keeps a backpointer (level, A);
// the Network layer keeps the two sides coherent.  Each level's
// backpointers live in one sorted, duplicate-free vector of id values: 8
// bytes per holder (a node-based set spends a 64-byte heap chunk on
// each), and the ascending-id order that table fingerprints and
// join/repair candidate lists depend on.
//
// Occupancy bitmasks: each row carries a bitmask with bit j set iff slot
// (l, j) is non-empty, so the routing hot path (Router::select_slot /
// route_step) skips empty slots with O(1) bit scans instead of probing
// every slot.  To keep the masks and offsets trustworthy, *all* slot
// mutations funnel through the RoutingTable methods below (consider /
// remove / pin / unpin).  IdSpec caps the radix at 64, so each row's mask
// is one word.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
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
  /// Elements the member array and a backpointer vector grow by when full.
  static constexpr std::size_t kGrowStep = 4;

  /// Read-only range over one level's backpointer holders.
  using Backpointers = PackedView<std::uint64_t, NodeId>;

  RoutingTable(IdSpec spec, NodeId self, unsigned redundancy);

  [[nodiscard]] unsigned levels() const noexcept { return levels_; }
  [[nodiscard]] unsigned radix() const noexcept { return radix_; }
  [[nodiscard]] const NodeId& self() const noexcept { return self_; }

  /// Read-only view of slot (level, digit), valid until the next mutation
  /// of this table.  Slot *mutations* go through the methods below so the
  /// offsets and occupancy masks stay in sync.
  [[nodiscard]] NeighborSet at(unsigned level, unsigned digit) const {
    return slot(index(level, digit));
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
  struct ConsiderResult {
    bool inserted = false;            ///< candidate is now a member
    std::optional<NodeId> evicted{};  ///< member displaced to make room
  };
  /// Offers a candidate to slot (level, digit).  Inserts it when the slot
  /// holds fewer than R unpinned members, or when it is closer under
  /// (distance, id) than the farthest unpinned member, which is then
  /// evicted (ties keep the incumbent).  Re-offering a member updates its
  /// distance and re-ranks it (relocation, §6.4).
  ConsiderResult consider(unsigned level, unsigned digit, NodeId id,
                          double dist);
  /// Removes a member (and its pin) from slot (level, digit); true when
  /// it was present.
  bool remove(unsigned level, unsigned digit, const NodeId& id);
  /// Pins a member into slot (level, digit) (§4.4 simultaneous insertion),
  /// inserting it first if absent; a pin never evicts anyone and sits
  /// outside the capacity budget.
  void pin(unsigned level, unsigned digit, NodeId id, double dist);
  /// Clears a pin.  If the slot is now over capacity its farthest unpinned
  /// members are evicted and appended to `evicted`.
  void unpin(unsigned level, unsigned digit, const NodeId& id,
             std::vector<NodeId>& evicted);

  /// Primary neighbor of a slot, if the slot is non-empty.
  [[nodiscard]] std::optional<NodeId> primary(unsigned level,
                                              unsigned digit) const {
    return at(level, digit).primary();
  }

  /// True when some slot in the row holds a node other than the owner.
  /// A row without one does not make the owner the only node with its
  /// length-`level` prefix: its own-digit slot may list only itself while
  /// nodes sharing more digits exist, which a deeper row then shows.
  [[nodiscard]] bool row_has_other(unsigned level) const;

  /// Unique members across all slots of a row, owner included.  These are
  /// the "forward pointers at level l" handed out during GETNEXTLIST.
  [[nodiscard]] std::vector<NodeId> row_members(unsigned level) const;

  /// Unique members across the whole table, owner excluded.
  [[nodiscard]] std::vector<NodeId> all_neighbors() const;

  /// Total stored links, owner-self entries excluded — the space figure
  /// reported in Table 1 comparisons.
  [[nodiscard]] std::size_t total_entries() const;

  /// Members held across all slots, owner-self entries included, and the
  /// member array's capacity.
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] std::size_t member_capacity() const noexcept {
    return members_.capacity();
  }
  /// Reserves room for exactly `n` members (the static builder's count).
  void reserve_members(std::size_t n) { members_.reserve(n); }

  /// Frees the member array, the pins and every backpointer level, and
  /// zeroes the slot offsets and row masks in place: every slot is empty,
  /// self-entries included, and member_count() is 0.  Allocates nothing.
  /// A tombstone's table ends this way once no live node links with it
  /// (release_if_unlinked, maintenance.h); the table stays valid for the
  /// read and removal calls that may still reach it.
  void release() noexcept;

  /// Heap bytes this table holds: each of its containers' capacity times
  /// its element size.
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

  // --- backpointers ---
  /// Idempotent: adding a present holder is a no-op.
  void add_backpointer(unsigned level, NodeId who);
  /// Removing an absent holder is a no-op.
  void remove_backpointer(unsigned level, const NodeId& who);
  [[nodiscard]] bool has_backpointer(unsigned level, const NodeId& who) const;
  /// Holders at one level, ascending by id: a view that any backpointer
  /// mutation invalidates, so a caller that edits backpointers while
  /// walking copies.
  [[nodiscard]] Backpointers backpointers(unsigned level) const {
    TAP_ASSERT(level < levels_);
    const std::vector<std::uint64_t>& v = backptrs_[level];
    return Backpointers(v.data(), v.data() + v.size(), spec());
  }
  /// Unique nodes holding any backpointer to the owner, ascending by id.
  [[nodiscard]] std::vector<NodeId> all_backpointers() const;
  /// The static builder's bulk path: append_backpointer adds a holder with
  /// no order or duplicate check, and settle_backpointers then sorts and
  /// dedupes every level and sizes it to the next multiple of kGrowStep,
  /// as fixed-step growth would have.  In between, the backpointers are
  /// not sorted.
  void append_backpointer(unsigned level, NodeId who) {
    TAP_ASSERT(level < levels_);
    check_spec(who);
    backptrs_[level].push_back(who.value());
  }
  void settle_backpointers();

 private:
  [[nodiscard]] std::size_t index(unsigned level, unsigned digit) const {
    TAP_ASSERT(level < levels_ && digit < radix_);
    return static_cast<std::size_t>(level) * radix_ + digit;
  }
  [[nodiscard]] NeighborSet slot(std::size_t s) const {
    const PackedMember* base = members_.data();
    return NeighborSet({base + start_[s], base + start_[s + 1], spec()},
                       capacity_, static_cast<std::uint32_t>(s), pins_);
  }
  /// The spec of every id the table holds: the owner's.
  [[nodiscard]] IdSpec spec() const noexcept { return self_.spec(); }
  /// Throws CheckError unless `id` is under the table's spec: stored as a
  /// bare value, an id of another spec would alias one of this spec.
  void check_spec(const NodeId& id) const {
    TAP_CHECK(id.spec() == spec(), "id's IdSpec differs from the table's");
  }
  /// The id a stored value names.
  [[nodiscard]] NodeId id_of(std::uint64_t v) const noexcept {
    return unpack(spec(), v);
  }
  /// Position of `id` in slot `s`'s run, or members_.size() when absent.
  [[nodiscard]] std::size_t find(std::size_t s, std::uint64_t id) const;
  /// Clears pin (s, id) if set.
  void drop_pin(std::size_t s, const NodeId& id);
  /// Inserts `m` into slot `s` in (distance, id) order.
  void insert_sorted(std::size_t s, const PackedMember& m);
  /// Erases members_[pos], which lies in slot `s`.
  void erase_at(std::size_t s, std::size_t pos);
  /// Restores (distance, id) order in slot `s` after members_[pos] changed.
  void resort(std::size_t s, std::size_t pos);
  /// Position of slot `s`'s farthest unpinned member (the slot has one).
  [[nodiscard]] std::size_t farthest_unpinned(std::size_t s) const;
  /// Re-derives the mask bit of one slot from its contents.
  void sync_bit(unsigned level, unsigned digit) {
    const std::size_t s = index(level, digit);
    const std::uint64_t bit = std::uint64_t{1} << digit;
    if (start_[s] == start_[s + 1])
      occupancy_[level] &= ~bit;
    else
      occupancy_[level] |= bit;
  }

  NodeId self_;
  unsigned levels_;
  unsigned radix_;
  unsigned capacity_;                     // R, per slot, pins aside
  std::vector<PackedMember> members_;     // every slot, (level, digit)
  std::vector<std::uint16_t> start_;      // levels * radix + 1 offsets
  std::vector<SlotPin> pins_;             // §4.4 pins; empty otherwise
  std::vector<std::uint64_t> occupancy_;  // one mask word per level
  // Per level, holder id values, sorted and unique.
  std::vector<std::vector<std::uint64_t>> backptrs_;
};

}  // namespace tap
