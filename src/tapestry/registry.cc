#include "src/tapestry/registry.h"

#include <algorithm>
#include <unordered_set>

#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"

namespace tap {

NodeRegistry::NodeRegistry(const MetricSpace& space,
                           const TapestryParams& params, Rng& rng)
    : space_(space), params_(params), rng_(rng) {
  const unsigned total = params_.id.valid() ? params_.id.total_bits() : 64;
  shard_shift_ = total > kShardBits ? total - kShardBits : 0;
}

NodeRegistry::~NodeRegistry() = default;

// ---------------------------------------------------------------------
// Sharded index: lock-free reads, per-shard writer mutex
// ---------------------------------------------------------------------

TapestryNode* NodeRegistry::lookup(std::uint64_t key) const {
  const Shard& sh =
      shards_[static_cast<unsigned>(key >> shard_shift_) & (kShardCount - 1)];
  const IndexTable* t = sh.table.load(std::memory_order_acquire);
  if (t == nullptr) return nullptr;
  std::size_t i = splitmix64(key) & t->mask;
  for (;;) {
    // The release store of `node` (after `key`) is the publish gate: a
    // non-null pointer implies the matching key is visible.  A null slot
    // ends the probe chain — occupied slots never empty (no deletions).
    TapestryNode* n = t->slots[i].node.load(std::memory_order_acquire);
    if (n == nullptr) return nullptr;
    if (t->slots[i].key.load(std::memory_order_relaxed) == key) return n;
    i = (i + 1) & t->mask;
  }
}

void NodeRegistry::shard_insert(Shard& shard, std::uint64_t key,
                                TapestryNode* node) {
  std::lock_guard<std::mutex> lock(shard.mu);
  IndexTable* t = shard.table.load(std::memory_order_relaxed);
  if (t == nullptr || (t->used + 1) * 10 >= (t->mask + 1) * 7) {
    // Grow (or create) and republish: readers keep probing the old
    // snapshot until the release store below makes the new one visible.
    const std::size_t cap = t == nullptr ? 16 : 2 * (t->mask + 1);
    auto grown = std::make_unique<IndexTable>(cap);
    if (t != nullptr) {
      grown->used = t->used;
      for (const IndexSlot& s : t->slots) {
        TapestryNode* n = s.node.load(std::memory_order_relaxed);
        if (n == nullptr) continue;
        const std::uint64_t k = s.key.load(std::memory_order_relaxed);
        std::size_t i = splitmix64(k) & grown->mask;
        while (grown->slots[i].node.load(std::memory_order_relaxed) !=
               nullptr)
          i = (i + 1) & grown->mask;
        grown->slots[i].key.store(k, std::memory_order_relaxed);
        grown->slots[i].node.store(n, std::memory_order_relaxed);
      }
    }
    t = grown.get();
    shard.tables.push_back(std::move(grown));
    shard.table.store(t, std::memory_order_release);
  }
  std::size_t i = splitmix64(key) & t->mask;
  while (t->slots[i].node.load(std::memory_order_relaxed) != nullptr) {
    TAP_ASSERT_MSG(t->slots[i].key.load(std::memory_order_relaxed) != key,
                   "duplicate key in shard index");
    i = (i + 1) & t->mask;
  }
  t->slots[i].key.store(key, std::memory_order_relaxed);
  t->slots[i].node.store(node, std::memory_order_release);
  ++t->used;
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
                                          bool inserting,
                                          std::optional<NodeId> psurrogate) {
  validate_registration(id, loc);
  auto owned = std::make_unique<TapestryNode>(id, loc, params_);
  TapestryNode* node = owned.get();
  // Insertion flags land before the index publish: a reader that finds the
  // node sees it already marked inserting (release/acquire on the index
  // slot orders these plain writes before any concurrent read).
  node->inserting = inserting;
  node->psurrogate = psurrogate;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes_.push_back(std::move(owned));
    live_ids_.push_back(id);
    live_sorted_.insert(std::lower_bound(live_sorted_.begin(),
                                         live_sorted_.end(), id.value()),
                        id.value());
  }
  shard_insert(shards_[shard_of(id)], id.value(), node);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  return *node;
}

std::vector<TapestryNode*> NodeRegistry::nodes_snapshot() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  std::vector<TapestryNode*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
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

  // Reserve the insertion-order slots up front so construction can fan out
  // while the order stays exactly the batch order for every worker count.
  // nodes_mu_ stays held across the fill: the workers write disjoint
  // elements of a buffer whose stability the lock guarantees — a racing
  // register_node/register_bulk must not reallocate it mid-construction.
  // The raw pointers are captured under the lock too, so the index phase
  // below never touches nodes_ itself.
  std::vector<TapestryNode*> built(batch.size());
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    const std::size_t base = nodes_.size();
    nodes_.resize(base + batch.size());
    parallel_for(
        batch.size(),
        [&](std::size_t i) {
          nodes_[base + i] = std::make_unique<TapestryNode>(
              batch[i].first, batch[i].second, params_);
          built[i] = nodes_[base + i].get();
        },
        workers);
    for (const auto& entry : batch) {
      live_ids_.push_back(entry.first);
      live_sorted_.push_back(entry.first.value());
    }
    std::sort(live_sorted_.begin(), live_sorted_.end());
  }

  // Index inserts grouped per shard — one writer per shard, no contention.
  std::array<std::vector<std::size_t>, kShardCount> by_shard;
  for (std::size_t i = 0; i < batch.size(); ++i)
    by_shard[shard_of(batch[i].first)].push_back(i);
  parallel_for(
      kShardCount,
      [&](std::size_t s) {
        for (const std::size_t i : by_shard[s])
          shard_insert(shards_[s], batch[i].first.value(), built[i]);
      },
      workers);
  live_count_.fetch_add(batch.size(), std::memory_order_relaxed);
}

void NodeRegistry::mark_dead(TapestryNode& node) {
  TAP_CHECK(node.alive, "node " + node.id().to_string() + " is already dead");
  node.alive = false;
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(nodes_mu_);
  live_ids_.erase(std::find(live_ids_.begin(), live_ids_.end(), node.id()));
  live_sorted_.erase(std::lower_bound(live_sorted_.begin(), live_sorted_.end(),
                                      node.id().value()));
}

std::vector<NodeId> NodeRegistry::node_ids() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  return live_ids_;
}

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
  partition_active_.store(true, std::memory_order_release);
  metrics::partition_transitions_total().inc();
}

void NodeRegistry::clear_partition() {
  partition_active_.store(false, std::memory_order_release);
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
