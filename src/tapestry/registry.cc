#include "src/tapestry/registry.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"

namespace tap {

NodeRegistry::NodeRegistry(const MetricSpace& space,
                           const TapestryParams& params, Rng& rng)
    : space_(space), params_(params), rng_(rng) {}

NodeRegistry::~NodeRegistry() = default;

// ---------------------------------------------------------------------
// Id index
// ---------------------------------------------------------------------

TapestryNode* NodeRegistry::lookup(std::uint64_t key) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  // An empty slot ends the probe chain: entries are never removed.
  for (std::size_t i = splitmix64(key) & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.node == nullptr) return nullptr;
    if (slot.key == key) return slot.node;
  }
}

void NodeRegistry::reserve_index(std::size_t entries) {
  std::size_t cap = index_.empty() ? 16 : index_.size();
  while (entries * 10 >= cap * 7) cap *= 2;
  if (cap == index_.size()) return;
  std::vector<IndexSlot> old =
      std::exchange(index_, std::vector<IndexSlot>(cap));
  for (const IndexSlot& slot : old)
    if (slot.node != nullptr) index_put(slot.key, slot.node);
}

void NodeRegistry::index_put(std::uint64_t key, TapestryNode* node) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = splitmix64(key) & mask;
  while (index_[i].node != nullptr) i = (i + 1) & mask;
  index_[i] = IndexSlot{key, node};
}

// ---------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------

TapestryNode* NodeRegistry::find(const NodeId& id) {
  return lookup(id.value());
}

const TapestryNode* NodeRegistry::find(const NodeId& id) const {
  return lookup(id.value());
}

TapestryNode& NodeRegistry::checked(const NodeId& id) {
  TapestryNode* n = find(id);
  TAP_CHECK(n != nullptr, "unknown node " + id.to_string());
  return *n;
}

const TapestryNode& NodeRegistry::checked(const NodeId& id) const {
  const TapestryNode* n = find(id);
  TAP_CHECK(n != nullptr, "unknown node " + id.to_string());
  return *n;
}

TapestryNode& NodeRegistry::live(const NodeId& id) {
  TapestryNode& n = checked(id);
  TAP_CHECK(n.alive, "node " + id.to_string() + " is not alive");
  return n;
}

bool NodeRegistry::is_live(const NodeId& id) const {
  const TapestryNode* n = find(id);
  return n != nullptr && n->alive;
}

// ---------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------

void NodeRegistry::validate_registration(const NodeId& id,
                                         Location loc) const {
  TAP_CHECK(id.valid() && id.spec() == params_.id,
            "node id does not match the network's IdSpec");
  TAP_CHECK(find(id) == nullptr, "duplicate node id " + id.to_string());
  TAP_CHECK(loc < space_.size(), "location outside the metric space");
}

TapestryNode& NodeRegistry::register_node(NodeId id, Location loc,
                                          bool inserting) {
  validate_registration(id, loc);
  reserve_index(nodes_.size() + 1);
  nodes_.push_back(std::make_unique<TapestryNode>(id, loc, params_));
  TapestryNode& node = *nodes_.back();
  node.inserting = inserting;
  index_put(id.value(), &node);
  live_ids_.push_back(id);
  live_sorted_.insert(
      std::lower_bound(live_sorted_.begin(), live_sorted_.end(), id.value()),
      id.value());
  if (!inserting) live_count_.fetch_add(1, std::memory_order_relaxed);
  return node;
}

void NodeRegistry::count_insertion(const TapestryNode& node) {
  TAP_ASSERT_MSG(node.inserting, "only an inserting node is counted late");
  live_count_.fetch_add(1, std::memory_order_relaxed);
}

void NodeRegistry::register_bulk(
    const std::vector<std::pair<NodeId, Location>>& batch,
    std::size_t workers) {
  if (batch.empty()) return;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(batch.size());
  for (const auto& [id, loc] : batch) {
    validate_registration(id, loc);
    TAP_CHECK(seen.insert(id.value()).second,
              "duplicate node id within the batch");
  }

  // Construction fans out into reserved slots, so the insertion order is
  // the batch order for every worker count; the index and live lists
  // follow serially.
  const std::size_t base = nodes_.size();
  nodes_.resize(base + batch.size());
  parallel_for(
      batch.size(),
      [&](std::size_t i) {
        nodes_[base + i] = std::make_unique<TapestryNode>(
            batch[i].first, batch[i].second, params_);
      },
      workers);
  reserve_index(nodes_.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    index_put(batch[i].first.value(), nodes_[base + i].get());
    live_ids_.push_back(batch[i].first);
    live_sorted_.push_back(batch[i].first.value());
  }
  std::sort(live_sorted_.begin(), live_sorted_.end());
  live_count_.fetch_add(batch.size(), std::memory_order_relaxed);
}

void NodeRegistry::mark_dead(TapestryNode& node) {
  TAP_CHECK(node.alive, "node " + node.id().to_string() + " is already dead");
  node.alive = false;
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  live_ids_.erase(std::find(live_ids_.begin(), live_ids_.end(), node.id()));
  live_sorted_.erase(std::lower_bound(live_sorted_.begin(), live_sorted_.end(),
                                      node.id().value()));
}

std::vector<NodeId> NodeRegistry::node_ids() const { return live_ids_; }

std::pair<const std::uint64_t*, const std::uint64_t*>
NodeRegistry::live_in_slot(const NodeId& at, unsigned level,
                           unsigned digit) const {
  const unsigned shift =
      (params_.id.num_digits - level - 1) * params_.id.digit_bits;
  const std::uint64_t lo =
      ((at.prefix_value(level) << params_.id.digit_bits) | digit) << shift;
  const std::uint64_t span = std::uint64_t{1} << shift;
  const std::uint64_t* end = live_sorted_.data() + live_sorted_.size();
  const std::uint64_t* first = std::lower_bound(live_sorted_.data(), end, lo);
  return {first, std::partition_point(first, end, [&](std::uint64_t v) {
            return v - lo < span;
          })};
}

// ---------------------------------------------------------------------
// Distances, identifiers, aggregates
// ---------------------------------------------------------------------

double NodeRegistry::distance(const NodeId& a, const NodeId& b) const {
  return space_.distance(checked(a).location(), checked(b).location());
}

double NodeRegistry::dist(const TapestryNode& a, const TapestryNode& b) const {
  return space_.distance(a.location(), b.location());
}

void NodeRegistry::acct(Trace* trace, const TapestryNode& a,
                        const TapestryNode& b, std::size_t msgs) const {
  metrics::messages_total().inc(msgs);
  if (trace == nullptr) return;
  const double d = dist(a, b);
  for (std::size_t i = 0; i < msgs; ++i) trace->hop(d);
}

void NodeRegistry::set_partition(const std::vector<NodeId>& side_b) {
  partition_side_b_.clear();
  for (const NodeId& id : side_b) partition_side_b_.insert(id.value());
  partition_active_ = true;
  metrics::partition_transitions_total().inc();
}

void NodeRegistry::clear_partition() {
  partition_active_ = false;
  metrics::partition_transitions_total().inc();
}

NodeId NodeRegistry::fresh_node_id() {
  for (int attempt = 0; attempt < 1024; ++attempt) {
    NodeId id = Id::random(params_.id, rng_);
    if (find(id) == nullptr) return id;
  }
  TAP_CHECK(false, "identifier namespace exhausted");
}

std::size_t NodeRegistry::total_table_entries() const {
  std::size_t n = 0;
  for (const auto& node : nodes_)
    if (node->alive) n += node->table().total_entries();
  return n;
}

std::size_t NodeRegistry::total_object_pointers() const {
  std::size_t n = 0;
  for (const auto& node : nodes_)
    if (node->alive) n += node->store().size();
  return n;
}

}  // namespace tap
