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
// in one packed array of PackedMember {id value, distance} pairs, and
// RoutingTable::at(level, digit) hands out this view of one slot's run of
// it: a range over the members, sorted by (distance, id), plus the table's
// short list of (slot, id) pins.  The table stores each id as its bare
// value under the table's IdSpec; the view rebuilds a NeighborEntry under
// that spec on every read, so it yields values, not references into the
// array.  A view is invalidated by any mutation of its table — of any
// slot, not only its own — because an insert or erase shifts, and may
// reallocate, the whole array.  The consider / remove / pin / unpin rules
// live in RoutingTable, the only writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "src/tapestry/id.h"

namespace tap {

class RoutingTable;

/// One member as a RoutingTable stores it: 16 bytes, the id's value under
/// the table's IdSpec and its measured distance.
struct PackedMember {
  std::uint64_t id = 0;
  double dist = 0.0;
};

/// One member as a view yields it: the id rebuilt under the table's spec,
/// and its measured distance.
struct NeighborEntry {
  NodeId id{};
  double dist = 0.0;
};

/// A §4.4 pin: member `id` of table slot `slot` (level * radix + digit).
struct SlotPin {
  std::uint32_t slot = 0;
  NodeId id{};
};

/// Rebuilds what a table stores under the table's spec.  The table
/// checked the spec when it stored the value, so nothing is checked here.
[[nodiscard]] inline NodeId unpack(IdSpec spec, std::uint64_t v) noexcept {
  return NodeId::unchecked(spec, v);
}
[[nodiscard]] inline NeighborEntry unpack(IdSpec spec,
                                          const PackedMember& m) noexcept {
  return NeighborEntry{NodeId::unchecked(spec, m.id), m.dist};
}

/// Read-only range over a contiguous run of `Stored` that yields each
/// element unpacked under one IdSpec as a `Value`.  Elements are values,
/// not references, but the iterators are random-access, so constructing
/// or range-inserting a vector from a view sizes it once.
template <typename Stored, typename Value>
class PackedView {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Value;

    iterator() noexcept = default;
    iterator(const Stored* p, IdSpec spec) noexcept : p_(p), spec_(spec) {}

    [[nodiscard]] Value operator*() const noexcept {
      return unpack(spec_, *p_);
    }
    [[nodiscard]] Value operator[](difference_type n) const noexcept {
      return unpack(spec_, p_[n]);
    }
    iterator& operator++() noexcept { return *this += 1; }
    iterator& operator--() noexcept { return *this -= 1; }
    iterator operator++(int) noexcept {
      const iterator was = *this;
      ++p_;
      return was;
    }
    iterator operator--(int) noexcept {
      const iterator was = *this;
      --p_;
      return was;
    }
    iterator& operator+=(difference_type n) noexcept {
      p_ += n;
      return *this;
    }
    iterator& operator-=(difference_type n) noexcept {
      p_ -= n;
      return *this;
    }
    [[nodiscard]] friend iterator operator+(iterator it,
                                            difference_type n) noexcept {
      return it += n;
    }
    [[nodiscard]] friend iterator operator+(difference_type n,
                                            iterator it) noexcept {
      return it += n;
    }
    [[nodiscard]] friend iterator operator-(iterator it,
                                            difference_type n) noexcept {
      return it -= n;
    }
    [[nodiscard]] friend difference_type operator-(const iterator& a,
                                                   const iterator& b) noexcept {
      return a.p_ - b.p_;
    }
    [[nodiscard]] friend bool operator==(const iterator& a,
                                         const iterator& b) noexcept {
      return a.p_ == b.p_;
    }
    [[nodiscard]] friend bool operator!=(const iterator& a,
                                         const iterator& b) noexcept {
      return a.p_ != b.p_;
    }
    [[nodiscard]] friend bool operator<(const iterator& a,
                                        const iterator& b) noexcept {
      return a.p_ < b.p_;
    }
    [[nodiscard]] friend bool operator>(const iterator& a,
                                        const iterator& b) noexcept {
      return a.p_ > b.p_;
    }
    [[nodiscard]] friend bool operator<=(const iterator& a,
                                         const iterator& b) noexcept {
      return a.p_ <= b.p_;
    }
    [[nodiscard]] friend bool operator>=(const iterator& a,
                                         const iterator& b) noexcept {
      return a.p_ >= b.p_;
    }

   private:
    const Stored* p_ = nullptr;
    IdSpec spec_{};
  };

  PackedView(const Stored* b, const Stored* e, IdSpec spec) noexcept
      : b_(b), e_(e), spec_(spec) {}
  [[nodiscard]] iterator begin() const noexcept { return {b_, spec_}; }
  [[nodiscard]] iterator end() const noexcept { return {e_, spec_}; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(e_ - b_);
  }
  [[nodiscard]] bool empty() const noexcept { return b_ == e_; }
  [[nodiscard]] Value operator[](std::size_t i) const noexcept {
    return unpack(spec_, b_[i]);
  }
  [[nodiscard]] Value front() const noexcept { return unpack(spec_, *b_); }
  [[nodiscard]] Value back() const noexcept { return unpack(spec_, e_[-1]); }

 private:
  const Stored* b_;
  const Stored* e_;
  IdSpec spec_;
};

class NeighborSet {
 public:
  /// Read-only range over a slot's members, primary first.
  using Entries = PackedView<PackedMember, NeighborEntry>;

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
