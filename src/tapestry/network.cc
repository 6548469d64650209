// Facade wiring plus the global invariant checks (Properties 1 and 2,
// backpointer symmetry) that read every table at once — oracle views no
// single subsystem owns.
#include "src/tapestry/network.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace tap {

Network::Network(const MetricSpace& space, TapestryParams params,
                 std::uint64_t seed)
    : space_(space),
      params_(params),
      rng_(seed),
      transport_(make_transport(params_)),
      registry_(space_, params_, rng_),
      router_(registry_, params_),
      directory_(registry_, router_, params_, events_, rng_),
      maintenance_(registry_, router_, directory_, params_, events_, rng_) {
  TAP_CHECK(params_.id.valid(), "invalid IdSpec");
  TAP_CHECK(params_.redundancy >= 1, "redundancy must be >= 1");
  TAP_CHECK(params_.root_multiplicity >= 1, "need at least one root");
  router_.bind_repair(&maintenance_);
  router_.bind_transport(transport_.get());
  directory_.bind_transport(transport_.get());
  maintenance_.bind_transport(transport_.get());
}

NodeId Network::insert_static(Location loc, std::optional<NodeId> id) {
  NodeId nid = id.has_value() ? *id : registry_.fresh_node_id();
  registry_.register_node(nid, loc);
  return nid;
}

std::vector<NodeId> Network::insert_static_bulk(
    const std::vector<Location>& locs, std::size_t workers) {
  // Draw ids serially so the sequence equals n calls to insert_static with
  // the same rng state; uniqueness within the batch is enforced here (the
  // registry only sees already-registered ids via fresh_node_id).
  std::vector<std::pair<NodeId, Location>> batch;
  batch.reserve(locs.size());
  std::unordered_set<std::uint64_t> drawn;
  drawn.reserve(locs.size());
  for (const Location loc : locs) {
    NodeId id = registry_.fresh_node_id();
    while (!drawn.insert(id.value()).second) id = registry_.fresh_node_id();
    batch.emplace_back(id, loc);
  }
  registry_.register_bulk(batch, workers);
  std::vector<NodeId> ids;
  ids.reserve(batch.size());
  for (const auto& [id, loc] : batch) ids.push_back(id);
  return ids;
}

// ---------------------------------------------------------------------
// Invariant checks
// ---------------------------------------------------------------------

void Network::check_property1() const {
  // Existing (prefix, digit) combinations among live nodes, keyed by
  // (len, prefix value).
  const unsigned digits = params_.id.num_digits;
  std::vector<std::unordered_set<std::uint64_t>> exists(digits + 1);
  for (const auto& n : registry_.nodes()) {
    if (!n->alive) continue;
    for (unsigned len = 1; len <= digits; ++len)
      exists[len].insert(n->id().prefix_value(len));
  }
  for (const auto& n : registry_.nodes()) {
    if (!n->alive) continue;
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < params_.id.radix(); ++j) {
        const auto& set = n->table().at(l, j);
        bool has_live = false;
        for (const auto& e : set.entries())
          if (registry_.is_live(e.id)) has_live = true;
        if (has_live) continue;
        const std::uint64_t want =
            (n->id().prefix_value(l) << params_.id.digit_bits) | j;
        TAP_CHECK(exists[l + 1].find(want) == exists[l + 1].end(),
                  "Property 1 violated: node " + n->id().to_string() +
                      " has a hole at level " + std::to_string(l) +
                      " digit " + std::to_string(j) +
                      " although a matching live node exists");
      }
    }
  }
}

double Network::property2_quality() const {
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();
  // Bucket live nodes by (len, prefix value) for candidate enumeration.
  std::unordered_map<std::uint64_t, std::vector<const TapestryNode*>> buckets;
  auto key = [&](unsigned len, std::uint64_t prefix) {
    return (static_cast<std::uint64_t>(len) << 56) | prefix;
  };
  for (const auto& n : registry_.nodes()) {
    if (!n->alive) continue;
    for (unsigned len = 1; len <= digits; ++len)
      buckets[key(len, n->id().prefix_value(len))].push_back(n.get());
  }
  std::size_t slots = 0, optimal = 0;
  for (const auto& n : registry_.nodes()) {
    if (!n->alive) continue;
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < radix; ++j) {
        if (j == n->id().digit(l)) continue;  // self slot: trivially optimal
        auto it = buckets.find(
            key(l + 1, (n->id().prefix_value(l) << params_.id.digit_bits) | j));
        if (it == buckets.end()) continue;  // no candidates exist
        const auto& cands = it->second;
        double best = std::numeric_limits<double>::infinity();
        for (const TapestryNode* c : cands)
          best = std::min(best, registry_.dist(*n, *c));
        ++slots;
        const auto prim = n->table().primary(l, j);
        if (prim.has_value() && registry_.is_live(*prim) &&
            registry_.dist(*n, registry_.checked(*prim)) <= best + 1e-12)
          ++optimal;
      }
    }
  }
  return slots == 0 ? 1.0 : static_cast<double>(optimal) /
                                static_cast<double>(slots);
}

void Network::check_backpointer_symmetry() const {
  const unsigned digits = params_.id.num_digits;
  for (const auto& n : registry_.nodes()) {
    if (!n->alive) continue;
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < params_.id.radix(); ++j) {
        for (const auto& e : n->table().at(l, j).entries()) {
          if (e.id == n->id()) continue;
          const TapestryNode* other = registry_.find(e.id);
          TAP_CHECK(other != nullptr, "table entry references unknown node");
          TAP_CHECK(other->table().has_backpointer(l, n->id()),
                    "missing backpointer: " + e.id.to_string() +
                        " lacks backpointer to " + n->id().to_string() +
                        " at level " + std::to_string(l));
        }
      }
      // Converse: every backpointer corresponds to a forward link.
      for (const NodeId& holder : n->table().backpointers(l)) {
        const TapestryNode* h = registry_.find(holder);
        TAP_CHECK(h != nullptr, "backpointer references unknown node");
        TAP_CHECK(h->table().at(l, n->id().digit(l)).contains(n->id()),
                  "stale backpointer: " + holder.to_string() +
                      " does not actually point to " + n->id().to_string() +
                      " at level " + std::to_string(l));
      }
    }
  }
}

}  // namespace tap
