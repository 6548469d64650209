#include "src/tapestry/routing_table.h"

#include <algorithm>
#include <limits>

namespace tap {

namespace {

/// The slot order: ascending distance, ties to the smaller id, so a slot's
/// contents do not depend on the order candidates arrived in.
bool closer(const PackedMember& a, const PackedMember& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;
}

/// Makes room for one more element, kGrowStep at a time.
template <typename T>
void grow_by_step(std::vector<T>& v) {
  if (v.size() == v.capacity())
    v.reserve(v.capacity() + RoutingTable::kGrowStep);
}

/// Sorts ascending and drops repeats.
template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

RoutingTable::RoutingTable(IdSpec spec, NodeId self, unsigned redundancy)
    : self_(self),
      levels_(spec.num_digits),
      radix_(spec.radix()),
      capacity_(redundancy) {
  TAP_CHECK(spec.valid(), "invalid IdSpec");
  TAP_CHECK(self.valid() && self.spec() == spec, "self id must match spec");
  TAP_CHECK(redundancy >= 1, "redundancy (R) must be at least 1");
  // The owner is a (β, own-digit) node at distance zero for every prefix β
  // of its own ID: one self-entry per level, in slot order.
  members_.reserve(levels_);
  start_.reserve(static_cast<std::size_t>(levels_) * radix_ + 1);
  occupancy_.assign(levels_, 0);
  backptrs_.resize(levels_);
  for (unsigned l = 0; l < levels_; ++l) {
    occupancy_[l] = std::uint64_t{1} << self.digit(l);
    for (unsigned j = 0; j < radix_; ++j) {
      start_.push_back(static_cast<std::uint16_t>(members_.size()));
      if (j == self.digit(l))
        members_.push_back(PackedMember{self.value(), 0.0});
    }
  }
  start_.push_back(static_cast<std::uint16_t>(members_.size()));
}

std::size_t RoutingTable::find(std::size_t s, std::uint64_t id) const {
  for (std::size_t i = start_[s]; i < start_[s + 1]; ++i)
    if (members_[i].id == id) return i;
  return members_.size();
}

void RoutingTable::drop_pin(std::size_t s, const NodeId& id) {
  const auto it =
      std::find_if(pins_.begin(), pins_.end(), [&](const SlotPin& p) {
        return p.slot == s && p.id == id;
      });
  if (it == pins_.end()) return;
  pins_.erase(it);
  // Pins are transient (§4.4): the last one releases the list's memory.
  if (pins_.empty()) std::vector<SlotPin>().swap(pins_);
}

void RoutingTable::insert_sorted(std::size_t s, const PackedMember& m) {
  TAP_CHECK(members_.size() < std::numeric_limits<std::uint16_t>::max(),
            "routing table holds too many members for 16-bit offsets");
  const auto first = members_.begin() + start_[s];
  const auto last = members_.begin() + start_[s + 1];
  const std::size_t pos = static_cast<std::size_t>(
      std::lower_bound(first, last, m, closer) - members_.begin());
  grow_by_step(members_);
  members_.insert(members_.begin() + static_cast<std::ptrdiff_t>(pos), m);
  for (std::size_t t = s + 1; t < start_.size(); ++t) ++start_[t];
}

void RoutingTable::erase_at(std::size_t s, std::size_t pos) {
  members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t t = s + 1; t < start_.size(); ++t) --start_[t];
}

void RoutingTable::resort(std::size_t s, std::size_t pos) {
  const PackedMember v = members_[pos];
  while (pos > start_[s] && closer(v, members_[pos - 1])) {
    members_[pos] = members_[pos - 1];
    --pos;
  }
  while (pos + 1 < start_[s + 1] && closer(members_[pos + 1], v)) {
    members_[pos] = members_[pos + 1];
    ++pos;
  }
  members_[pos] = v;
}

std::size_t RoutingTable::farthest_unpinned(std::size_t s) const {
  const NeighborSet view = slot(s);
  for (std::size_t i = start_[s + 1]; i-- > start_[s];)
    if (!view.pinned(id_of(members_[i].id))) return i;
  TAP_ASSERT_MSG(false, "slot has no unpinned member");
  return members_.size();
}

RoutingTable::ConsiderResult RoutingTable::consider(unsigned level,
                                                    unsigned digit, NodeId id,
                                                    double dist) {
  check_spec(id);
  const std::size_t s = index(level, digit);
  ConsiderResult result;
  // Distance update path: re-rank the member in place.
  if (const std::size_t i = find(s, id.value()); i != members_.size()) {
    result.inserted = true;
    if (members_[i].dist != dist) {
      members_[i].dist = dist;
      resort(s, i);
    }
    return result;
  }

  if (slot(s).unpinned_count() < capacity_) {
    insert_sorted(s, PackedMember{id.value(), dist});
    sync_bit(level, digit);
    result.inserted = true;
    return result;
  }

  // Replace the farthest unpinned member if the candidate is strictly
  // closer (ties keep the incumbent for stability).  The slot stays full,
  // so the array does not shift.
  const std::size_t victim = farthest_unpinned(s);
  const PackedMember cand{id.value(), dist};
  if (closer(cand, members_[victim])) {
    result.evicted = id_of(members_[victim].id);
    members_[victim] = cand;
    resort(s, victim);
    result.inserted = true;
  }
  return result;
}

bool RoutingTable::remove(unsigned level, unsigned digit, const NodeId& id) {
  check_spec(id);
  const std::size_t s = index(level, digit);
  const std::size_t i = find(s, id.value());
  if (i == members_.size()) return false;
  erase_at(s, i);
  drop_pin(s, id);
  sync_bit(level, digit);
  return true;
}

void RoutingTable::pin(unsigned level, unsigned digit, NodeId id,
                       double dist) {
  check_spec(id);
  const std::size_t s = index(level, digit);
  if (find(s, id.value()) == members_.size())
    insert_sorted(s, PackedMember{id.value(), dist});
  else if (slot(s).pinned(id))
    return;
  pins_.push_back(SlotPin{static_cast<std::uint32_t>(s), id});
  sync_bit(level, digit);
}

void RoutingTable::unpin(unsigned level, unsigned digit, const NodeId& id,
                         std::vector<NodeId>& evicted) {
  check_spec(id);
  const std::size_t s = index(level, digit);
  if (find(s, id.value()) == members_.size()) return;
  drop_pin(s, id);
  // Now possibly over capacity: the farthest unpinned members go.
  while (slot(s).unpinned_count() > capacity_) {
    const std::size_t victim = farthest_unpinned(s);
    evicted.push_back(id_of(members_[victim].id));
    erase_at(s, victim);
  }
  sync_bit(level, digit);
}

bool RoutingTable::row_has_other(unsigned level) const {
  const std::size_t first = start_[index(level, 0)];
  const std::size_t last = start_[index(level, 0) + radix_];
  for (std::size_t i = first; i < last; ++i)
    if (members_[i].id != self_.value()) return true;
  return false;
}

std::vector<NodeId> RoutingTable::row_members(unsigned level) const {
  std::vector<NodeId> out;
  const std::size_t first = start_[index(level, 0)];
  const std::size_t last = start_[index(level, 0) + radix_];
  // A node appears in at most one slot per row, so no dedupe needed.
  for (std::size_t i = first; i < last; ++i)
    out.push_back(id_of(members_[i].id));
  return out;
}

std::vector<NodeId> RoutingTable::all_neighbors() const {
  std::vector<NodeId> out;
  for (const PackedMember& m : members_)
    if (m.id != self_.value()) out.push_back(id_of(m.id));
  sort_unique(out);
  return out;
}

std::size_t RoutingTable::total_entries() const {
  std::size_t n = 0;
  for (const PackedMember& m : members_)
    if (m.id != self_.value()) ++n;
  return n;
}

std::size_t RoutingTable::heap_bytes() const noexcept {
  std::size_t n = members_.capacity() * sizeof(PackedMember) +
                  start_.capacity() * sizeof(std::uint16_t) +
                  pins_.capacity() * sizeof(SlotPin) +
                  occupancy_.capacity() * sizeof(std::uint64_t) +
                  backptrs_.capacity() * sizeof(backptrs_[0]);
  for (const auto& level : backptrs_)
    n += level.capacity() * sizeof(std::uint64_t);
  return n;
}

void RoutingTable::release() noexcept {
  std::vector<PackedMember>().swap(members_);
  std::vector<SlotPin>().swap(pins_);
  std::fill(start_.begin(), start_.end(), std::uint16_t{0});
  std::fill(occupancy_.begin(), occupancy_.end(), std::uint64_t{0});
  for (auto& level : backptrs_) std::vector<std::uint64_t>().swap(level);
}

void RoutingTable::add_backpointer(unsigned level, NodeId who) {
  TAP_ASSERT(level < levels_);
  check_spec(who);
  TAP_ASSERT_MSG(!(who == self_), "node cannot backpoint to itself");
  auto& v = backptrs_[level];
  auto it = std::lower_bound(v.begin(), v.end(), who.value());
  if (it != v.end() && *it == who.value()) return;
  const std::ptrdiff_t pos = it - v.begin();
  grow_by_step(v);
  v.insert(v.begin() + pos, who.value());
}

void RoutingTable::remove_backpointer(unsigned level, const NodeId& who) {
  TAP_ASSERT(level < levels_);
  check_spec(who);
  auto& v = backptrs_[level];
  const auto it = std::lower_bound(v.begin(), v.end(), who.value());
  if (it != v.end() && *it == who.value()) v.erase(it);
}

bool RoutingTable::has_backpointer(unsigned level, const NodeId& who) const {
  TAP_ASSERT(level < levels_);
  check_spec(who);
  return std::binary_search(backptrs_[level].begin(), backptrs_[level].end(),
                            who.value());
}

void RoutingTable::settle_backpointers() {
  for (auto& level : backptrs_) {
    sort_unique(level);
    // Sized as fixed-step growth from empty would have left it, so the
    // first link after a build does not always reallocate.
    std::vector<std::uint64_t> sized;
    sized.reserve((level.size() + kGrowStep - 1) / kGrowStep * kGrowStep);
    sized.assign(level.begin(), level.end());
    level.swap(sized);
  }
}

std::vector<NodeId> RoutingTable::all_backpointers() const {
  std::vector<NodeId> out;
  for (unsigned l = 0; l < levels_; ++l) {
    const Backpointers level = backpointers(l);
    out.insert(out.end(), level.begin(), level.end());
  }
  sort_unique(out);
  return out;
}

}  // namespace tap
