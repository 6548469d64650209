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
// desynchronise a mask.  Rows wider than 64 digits (digit_bits > 6) span
// multiple mask words; the occ:: helpers hide the word walk.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/assert.h"
#include "src/tapestry/id.h"
#include "src/tapestry/neighbor_set.h"

namespace tap {

/// Bit-scan helpers over a row occupancy mask of `radix` bits stored in
/// ceil(radix/64) contiguous words, bit j of word j/64 = slot j occupied.
namespace occ {

inline constexpr unsigned kNone = ~0u;

[[nodiscard]] inline constexpr unsigned words_for(unsigned radix) noexcept {
  return (radix + 63u) / 64u;
}

[[nodiscard]] inline bool test(const std::uint64_t* w, unsigned j) noexcept {
  return (w[j >> 6] >> (j & 63u)) & 1u;
}

/// First occupied slot >= `from` (no wrap), or kNone.
[[nodiscard]] inline unsigned next(const std::uint64_t* w, unsigned radix,
                                   unsigned from) noexcept {
  if (from >= radix) return kNone;
  const unsigned nwords = words_for(radix);
  unsigned word = from >> 6;
  std::uint64_t cur = w[word] & (~std::uint64_t{0} << (from & 63u));
  for (;;) {
    if (cur != 0) {
      const unsigned j =
          (word << 6) + static_cast<unsigned>(__builtin_ctzll(cur));
      return j < radix ? j : kNone;
    }
    if (++word >= nwords) return kNone;
    cur = w[word];
  }
}

/// Last occupied slot <= `from`, or kNone.
[[nodiscard]] inline unsigned prev(const std::uint64_t* w, unsigned radix,
                                   unsigned from) noexcept {
  if (from >= radix) from = radix - 1;
  unsigned word = from >> 6;
  std::uint64_t cur =
      w[word] & (~std::uint64_t{0} >> (63u - (from & 63u)));
  for (;;) {
    if (cur != 0)
      return (word << 6) + 63u -
             static_cast<unsigned>(__builtin_clzll(cur));
    if (word == 0) return kNone;
    cur = w[--word];
  }
}

/// First occupied slot at or after `start`, wrapping around the digit
/// alphabet (the Tapestry Native hole rule); kNone iff the row is empty.
[[nodiscard]] inline unsigned next_wrap(const std::uint64_t* w,
                                        unsigned radix,
                                        unsigned start) noexcept {
  const unsigned j = next(w, radix, start);
  if (j != kNone) return j;
  return next(w, radix, 0);
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
  /// Words per row mask (1 for radix <= 64).
  [[nodiscard]] unsigned occupancy_words() const noexcept { return words_; }
  /// Pointer to the row's mask words; bit j set <=> slot (level, j)
  /// non-empty.  Stable for the table's lifetime (moves rebind it).
  [[nodiscard]] const std::uint64_t* row_occupancy(unsigned level) const {
    TAP_ASSERT(level < levels_);
    return occupancy_.data() + static_cast<std::size_t>(level) * words_;
  }
  /// The row mask as a single word (requires radix <= 64; true for every
  /// configuration with digit_bits <= 6, e.g. the default hex digits).
  [[nodiscard]] std::uint64_t row_mask64(unsigned level) const {
    TAP_ASSERT(words_ == 1);
    return *row_occupancy(level);
  }
  /// O(1) emptiness test off the mask.
  [[nodiscard]] bool slot_empty(unsigned level, unsigned digit) const {
    TAP_ASSERT(level < levels_ && digit < radix_);
    return !occ::test(row_occupancy(level), digit);
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
    std::uint64_t& word =
        occupancy_[static_cast<std::size_t>(level) * words_ + (digit >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (digit & 63u);
    if (slots_[index(level, digit)].empty())
      word &= ~bit;
    else
      word |= bit;
  }

  NodeId self_;
  unsigned levels_;
  unsigned radix_;
  unsigned words_;  // mask words per row
  std::vector<NeighborSet> slots_;
  std::vector<std::uint64_t> occupancy_;       // levels_ * words_ mask words
  std::vector<std::vector<NodeId>> backptrs_;  // per level, sorted, unique
};

}  // namespace tap
