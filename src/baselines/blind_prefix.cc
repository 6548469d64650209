#include "src/baselines/blind_prefix.h"

#include <algorithm>

namespace tap {

BlindPrefixOverlay::BlindPrefixOverlay(const MetricSpace& space, IdSpec spec,
                                       std::uint64_t seed)
    : space_(space), spec_(spec), rng_(seed) {
  TAP_CHECK(spec.valid(), "invalid IdSpec");
}

Guid BlindPrefixOverlay::key_to_guid(std::uint64_t key) const {
  return Guid(spec_, splitmix64(key ^ 0xb11d) & spec_.mask());
}

std::size_t BlindPrefixOverlay::add_node(Location loc, Trace* /*trace*/) {
  TAP_CHECK(!finalized_, "static scheme: no joins after finalize()");
  TAP_CHECK(loc < space_.size(), "location outside the metric space");
  BNode n;
  n.loc = loc;
  // Fresh random id, retrying collisions.
  for (;;) {
    n.id = Id::random(spec_, rng_);
    bool clash = false;
    for (const auto& other : nodes_)
      if (other.id == n.id) clash = true;
    if (!clash) break;
  }
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

void BlindPrefixOverlay::finalize() {
  TAP_CHECK(!nodes_.empty(), "no nodes");
  // Bucket nodes by (level+1)-digit prefix value.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  auto key = [&](unsigned len, std::uint64_t prefix) {
    return (static_cast<std::uint64_t>(len) << 56) | prefix;
  };
  for (std::size_t h = 0; h < nodes_.size(); ++h)
    for (unsigned len = 1; len <= spec_.num_digits; ++len)
      buckets[key(len, nodes_[h].id.prefix_value(len))].push_back(h);

  for (std::size_t h = 0; h < nodes_.size(); ++h) {
    BNode& n = nodes_[h];
    n.table.assign(static_cast<std::size_t>(spec_.num_digits) * spec_.radix(),
                   std::nullopt);
    for (unsigned l = 0; l < spec_.num_digits; ++l) {
      const std::uint64_t base = n.id.prefix_value(l) << spec_.digit_bits;
      for (unsigned j = 0; j < spec_.radix(); ++j) {
        if (j == n.id.digit(l)) {
          n.table[slot(l, j)] = h;  // self-entry, as in Tapestry
          continue;
        }
        auto it = buckets.find(key(l + 1, base | j));
        if (it == buckets.end()) continue;
        // Property 2 ablation: a UNIFORMLY RANDOM qualifying node.
        n.table[slot(l, j)] = it->second[rng_.next_u64(it->second.size())];
      }
    }
  }
  finalized_ = true;
}

std::optional<std::size_t> BlindPrefixOverlay::step(std::size_t cur,
                                                    const Guid& target,
                                                    unsigned& level) const {
  const unsigned radix = spec_.radix();
  while (level < spec_.num_digits) {
    const unsigned desired = target.digit(level);
    std::optional<std::size_t> pick;
    for (unsigned off = 0; off < radix && !pick; ++off) {
      const unsigned j = (desired + off) % radix;
      if (nodes_[cur].table[slot(level, j)].has_value())
        pick = *nodes_[cur].table[slot(level, j)];
    }
    TAP_ASSERT_MSG(pick.has_value(), "row with no filled slot");
    ++level;
    if (*pick != cur) return pick;
  }
  return std::nullopt;
}

std::size_t BlindPrefixOverlay::root_of(std::uint64_t key) const {
  TAP_CHECK(finalized_, "finalize() first");
  const Guid g = key_to_guid(key);
  std::size_t cur = 0;
  unsigned level = 0;
  for (;;) {
    auto next = step(cur, g, level);
    if (!next.has_value()) return cur;
    cur = *next;
  }
}

void BlindPrefixOverlay::publish(std::size_t server, std::uint64_t key,
                                 Trace* trace) {
  TAP_CHECK(finalized_, "finalize() first");
  TAP_CHECK(server < nodes_.size(), "bad server handle");
  const Guid g = key_to_guid(key);
  std::size_t cur = server;
  unsigned level = 0;
  for (;;) {
    auto& replicas = nodes_[cur].pointers[key];
    if (std::find(replicas.begin(), replicas.end(), server) == replicas.end())
      replicas.push_back(server);
    auto next = step(cur, g, level);
    if (!next.has_value()) break;
    if (trace != nullptr)
      trace->hop(space_.distance(nodes_[cur].loc, nodes_[*next].loc));
    cur = *next;
  }
}

SchemeLocate BlindPrefixOverlay::locate(std::size_t client, std::uint64_t key,
                                        Trace* trace) {
  TAP_CHECK(finalized_, "finalize() first");
  TAP_CHECK(client < nodes_.size(), "bad client handle");
  SchemeLocate res;
  const Guid g = key_to_guid(key);
  std::size_t cur = client;
  unsigned level = 0;
  for (;;) {
    auto it = nodes_[cur].pointers.find(key);
    if (it != nodes_[cur].pointers.end() && !it->second.empty()) {
      // Closest replica to the pointer node, then hop to it.
      std::size_t best = it->second.front();
      for (const std::size_t s : it->second)
        if (space_.distance(nodes_[cur].loc, nodes_[s].loc) <
            space_.distance(nodes_[cur].loc, nodes_[best].loc))
          best = s;
      if (best != cur) {
        const double d = space_.distance(nodes_[cur].loc, nodes_[best].loc);
        if (trace != nullptr) trace->hop(d);
        ++res.hops;
        res.latency += d;
      }
      res.found = true;
      res.server = best;
      return res;
    }
    auto next = step(cur, g, level);
    if (!next.has_value()) return res;  // root miss
    const double d = space_.distance(nodes_[cur].loc, nodes_[*next].loc);
    if (trace != nullptr) trace->hop(d);
    ++res.hops;
    res.latency += d;
    cur = *next;
  }
}

std::size_t BlindPrefixOverlay::total_state() const {
  std::size_t n = 0;
  for (std::size_t h = 0; h < nodes_.size(); ++h) {
    for (const auto& e : nodes_[h].table)
      if (e.has_value() && *e != h) ++n;
    for (const auto& [key, replicas] : nodes_[h].pointers)
      n += replicas.size();
  }
  return n;
}

}  // namespace tap
