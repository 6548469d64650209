#include "src/tapestry/routing_table.h"

#include <algorithm>

namespace tap {

RoutingTable::RoutingTable(IdSpec spec, NodeId self, unsigned redundancy)
    : self_(self),
      levels_(spec.num_digits),
      radix_(spec.radix()) {
  TAP_CHECK(spec.valid(), "invalid IdSpec");
  TAP_CHECK(self.valid() && self.spec() == spec, "self id must match spec");
  TAP_CHECK(redundancy >= 1, "redundancy (R) must be at least 1");
  slots_.reserve(static_cast<std::size_t>(levels_) * radix_);
  for (std::size_t i = 0; i < static_cast<std::size_t>(levels_) * radix_; ++i)
    slots_.emplace_back(redundancy);
  occupancy_.assign(levels_, 0);
  backptrs_.resize(levels_);
  // The owner is a (β, own-digit) node at distance zero for every prefix β
  // of its own ID; seed those self-entries.
  for (unsigned l = 0; l < levels_; ++l) {
    const unsigned d = self.digit(l);
    slots_[index(l, d)].consider(self, 0.0);
    sync_bit(l, d);
  }
}

NeighborSet::ConsiderResult RoutingTable::consider(unsigned level,
                                                   unsigned digit, NodeId id,
                                                   double dist) {
  auto res = slots_[index(level, digit)].consider(id, dist);
  if (res.inserted) sync_bit(level, digit);
  return res;
}

bool RoutingTable::remove(unsigned level, unsigned digit, const NodeId& id) {
  const bool removed = slots_[index(level, digit)].remove(id);
  if (removed) sync_bit(level, digit);
  return removed;
}

void RoutingTable::pin(unsigned level, unsigned digit, NodeId id,
                       double dist) {
  slots_[index(level, digit)].pin(id, dist);
  sync_bit(level, digit);
}

void RoutingTable::unpin(unsigned level, unsigned digit, const NodeId& id,
                         std::vector<NodeId>& evicted) {
  slots_[index(level, digit)].unpin(id, evicted);
  sync_bit(level, digit);
}

bool RoutingTable::row_has_other(unsigned level) const {
  const std::uint64_t row = row_mask(level);
  for (unsigned j = occ::next(row, 0); j != occ::kNone;
       j = occ::next(row, j + 1)) {
    for (const auto& e : at(level, j).entries())
      if (!(e.id == self_)) return true;
  }
  return false;
}

std::vector<NodeId> RoutingTable::row_members(unsigned level) const {
  std::vector<NodeId> out;
  const std::uint64_t row = row_mask(level);
  for (unsigned j = occ::next(row, 0); j != occ::kNone;
       j = occ::next(row, j + 1))
    for (const auto& e : at(level, j).entries()) out.push_back(e.id);
  // A node appears in at most one slot per row, so no dedupe needed.
  return out;
}

namespace {
/// Sorts ascending by id and drops repeats.
void sort_unique(std::vector<NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

std::vector<NodeId> RoutingTable::all_neighbors() const {
  std::vector<NodeId> out;
  for (unsigned l = 0; l < levels_; ++l)
    for (unsigned j = 0; j < radix_; ++j)
      for (const auto& e : at(l, j).entries())
        if (!(e.id == self_)) out.push_back(e.id);
  sort_unique(out);
  return out;
}

std::size_t RoutingTable::total_entries() const {
  std::size_t n = 0;
  for (unsigned l = 0; l < levels_; ++l)
    for (unsigned j = 0; j < radix_; ++j)
      for (const auto& e : at(l, j).entries())
        if (!(e.id == self_)) ++n;
  return n;
}

void RoutingTable::add_backpointer(unsigned level, NodeId who) {
  TAP_ASSERT(level < levels_);
  TAP_ASSERT_MSG(!(who == self_), "node cannot backpoint to itself");
  auto& v = backptrs_[level];
  const auto it = std::lower_bound(v.begin(), v.end(), who);
  if (it == v.end() || who < *it) v.insert(it, who);
}

void RoutingTable::remove_backpointer(unsigned level, const NodeId& who) {
  TAP_ASSERT(level < levels_);
  auto& v = backptrs_[level];
  const auto it = std::lower_bound(v.begin(), v.end(), who);
  if (it != v.end() && !(who < *it)) v.erase(it);
}

bool RoutingTable::has_backpointer(unsigned level, const NodeId& who) const {
  TAP_ASSERT(level < levels_);
  return std::binary_search(backptrs_[level].begin(), backptrs_[level].end(),
                            who);
}

const std::vector<NodeId>& RoutingTable::backpointers(unsigned level) const {
  TAP_ASSERT(level < levels_);
  return backptrs_[level];
}

std::vector<NodeId> RoutingTable::all_backpointers() const {
  std::vector<NodeId> out;
  for (const auto& level : backptrs_)
    out.insert(out.end(), level.begin(), level.end());
  sort_unique(out);
  return out;
}

}  // namespace tap
