// Acknowledged multicast (paper §4.1, Figure 8): contacts every node whose
// ID carries a given prefix, exactly once, by recursively extending the
// prefix one digit at a time along routing-table entries.  Property 1
// guarantees coverage (Theorem 5) at every redundancy R: if an (α, j) node
// exists anywhere, every α-node's table has one.
//
// Messages a node sends to itself (its own-digit extension) cross no
// network link and cost nothing; collapsing them turns the message graph
// into a spanning tree of the prefix set, so a multicast reaching k nodes
// costs 2(k-1) messages (forward + acknowledgment per edge).  Each node
// follows its self-messages down to the last row and is visited there.
// No row tells a node it is alone: its own-digit slot may list only
// itself (always at R = 1, and at any R once the slot drains) while nodes
// sharing one more digit exist.  The synchronous recursion here computes
// acknowledgments implicitly; the completion time — the longest
// forward+ack chain — is accumulated separately since fan-out proceeds in
// parallel in a real network.
//
// Callers: MaintenanceEngine::rebuild_neighbor_table and
// Network::multicast.  Joins run the variant with pinned pointers and
// watch lists of §4.4 (Figure 11) instead, written once in join.cc
// (MaintenanceEngine::reach and acknowledge) for join_via, join_bulk and
// join_events, which books its forwards and acks in one place.  Repair
// never multicasts: a multicast from a node whose (level, digit) slot is
// empty enters that digit's subtree only through the same empty slot, so
// it cannot find a replacement; find_replacement probes the registry's
// live-id index instead.
#include "src/tapestry/router.h"

#include <algorithm>

namespace tap {

MulticastStats Router::multicast(NodeId start, const Id& pattern,
                                 unsigned prefix_len,
                                 const std::function<void(NodeId)>& visit,
                                 Trace* trace,
                                 const std::vector<NodeId>& exclude) {
  TapestryNode& s = reg_.live(start);
  TAP_CHECK(pattern.valid() && pattern.spec() == params_.id,
            "pattern does not match the network's IdSpec");
  TAP_CHECK(prefix_len <= params_.id.num_digits, "prefix too long");
  TAP_CHECK(s.id().matches_prefix(pattern, prefix_len),
            "multicast must start at a node carrying the prefix");

  MulticastStats stats;

  auto excluded = [&](const NodeId& id) {
    return std::find(exclude.begin(), exclude.end(), id) != exclude.end();
  };

  // Recursive lambda: handles the multicast message (prefix length l) at
  // node `cur`; returns the completion time of the subtree (forward + ack).
  std::function<double(TapestryNode&, unsigned)> mc =
      [&](TapestryNode& cur, unsigned l) -> double {
    if (l == params_.id.num_digits) {
      visit(cur.id());
      ++stats.reached;
      return 0.0;
    }

    double completion = 0.0;
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      // One recipient per extension digit: the closest live member.
      const NeighborSet set = cur.table().at(l, j);
      TapestryNode* child = nullptr;
      for (const auto& e : set.entries()) {
        if (excluded(e.id)) continue;
        if (e.id == cur.id()) {
          child = &cur;
          break;
        }
        if (reg_.is_live(e.id)) {
          child = &reg_.live(e.id);
          break;
        }
      }
      if (child == nullptr) continue;
      if (child == &cur) {
        // Self-message: no network cost, continue at the next level.
        completion = std::max(completion, mc(cur, l + 1));
      } else {
        const double d = reg_.dist(cur, *child);
        // Forward travels the wire before the subtree runs; the ack
        // travels back once the subtree has completed (Figure 8).
        Message fwd = make_message(MessageKind::kMulticastForward, cur.id(),
                                   child->id(), pattern);
        fwd.level = l + 1;
        fwd = transport_->send(fwd, d, trace);
        completion = std::max(completion, d + mc(*child, fwd.level) + d);
        Message ack = make_message(MessageKind::kMulticastAck, child->id(),
                                   cur.id(), pattern);
        ack.level = l + 1;
        transport_->send(ack, d, trace);
      }
    }
    return completion;
  };

  stats.completion = mc(s, prefix_len);
  return stats;
}

}  // namespace tap
