// Surrogate routing (paper §2.3): localized routing decisions that resolve
// a destination GUID one digit per level, adapting deterministically when
// the exact next-digit entry is a hole.  Both published variants are
// implemented:
//
//   Tapestry Native  — on a hole, take the next filled entry in the same
//                      level, wrapping around the digit alphabet;
//   Distributed PRR  — route exactly until the first hole; at the first
//                      hole prefer the filled digit sharing the most
//                      significant bits with the desired digit (ties to the
//                      numerically higher digit); after the first hole
//                      always take the numerically highest filled digit.
//
// Self-entries make the termination rule implicit: when the current node is
// the only node left at and above the current level, every remaining
// selection is a self-advance and the walk ends with the node as root.
// Theorem 2 (root uniqueness) is exercised by tests/test_routing.cc.
#include "src/tapestry/router.h"

namespace tap {

namespace {

/// Number of matching leading bits between two digit values of `bits` width.
unsigned leading_bit_match(unsigned a, unsigned b, unsigned bits) {
  unsigned n = 0;
  for (unsigned i = 0; i < bits; ++i) {
    const unsigned mask = 1u << (bits - 1 - i);
    if ((a & mask) != (b & mask)) break;
    ++n;
  }
  return n;
}

}  // namespace

Router::Router(NodeRegistry& registry, const TapestryParams& params)
    : reg_(registry), params_(params) {}

NodeId Router::usable_member(const TapestryNode& at, unsigned level,
                             unsigned j, const ExcludeSet* exclude,
                             bool live_only) const {
  // A partitioned-away member is unreachable but alive: route around it
  // without purging (the table must survive the cut intact).
  for (const NeighborEntry& e : at.table().at(level, j).entries()) {
    if (exclude != nullptr && exclude->count(e.id.value()) != 0) continue;
    if (!reg_.reachable(at.id(), e.id)) continue;
    if (live_only && !reg_.is_live(e.id)) continue;
    return e.id;
  }
  return NodeId{};
}

std::optional<unsigned> Router::select_slot(const TapestryNode& at,
                                            unsigned level, unsigned desired,
                                            bool& past_hole,
                                            const ExcludeSet* exclude,
                                            bool live_only,
                                            NodeId* member) const {
  const std::uint64_t row = at.table().row_mask(level);
  // Occupancy answers "slot non-empty" exactly; a filter, an active
  // partition or a wanted member forces a look at the members themselves
  // (and then only for occupied slots).
  const bool bits_only = member == nullptr && exclude == nullptr &&
                         !live_only && !reg_.partition_active();
  NodeId found;
  auto filled = [&](unsigned j) {
    if (bits_only) return true;  // callers only offer occupied j
    found = usable_member(at, level, j, exclude, live_only);
    return found.valid();
  };
  auto chose = [&](unsigned j, const NodeId& m) {
    if (member != nullptr) *member = m;
    return std::optional<unsigned>(j);
  };

  if (params_.routing == RoutingMode::kTapestryNative) {
    // First filled slot at or after `desired`, wrapping (§2.3).  Without
    // a filter this is a pure bit scan.
    const unsigned first = occ::next_wrap(row, desired);
    if (first == occ::kNone) return std::nullopt;
    unsigned j = first;
    do {
      if (filled(j)) {
        if (j != desired) past_hole = true;
        return chose(j, found);
      }
      j = occ::next_wrap(row, j + 1);
    } while (j != first);
    return std::nullopt;
  }

  // RoutingMode::kPrrLike.
  if (!past_hole) {
    if (occ::test(row, desired) && filled(desired))
      return chose(desired, found);
    past_hole = true;
    // First hole: best leading-bit match, ties to the higher digit.
    std::optional<unsigned> best;
    NodeId best_found;
    unsigned best_score = 0;
    for (unsigned j = occ::next(row, 0); j != occ::kNone;
         j = occ::next(row, j + 1)) {
      if (!filled(j)) continue;
      const unsigned score =
          leading_bit_match(j, desired, params_.id.digit_bits);
      if (!best.has_value() || score > best_score ||
          (score == best_score && j > *best)) {
        best = j;
        best_found = found;
        best_score = score;
      }
    }
    if (!best.has_value()) return std::nullopt;
    return chose(*best, best_found);
  }
  // After the first hole: numerically highest filled digit.
  for (unsigned j = occ::prev(row, 63); j != occ::kNone;
       j = (j == 0 ? occ::kNone : occ::prev(row, j - 1)))
    if (filled(j)) return chose(j, found);
  return std::nullopt;
}

std::optional<NodeId> Router::live_primary_repair(TapestryNode& at,
                                                  unsigned level,
                                                  unsigned digit, NodeId prim,
                                                  Trace* trace,
                                                  const ExcludeSet* exclude) {
  // The primary for this step is the closest member not being routed
  // around (Figure 10's "as if the new node had not yet entered").  After
  // a purge the same slot is re-read: re-selecting would see past_hole
  // already set and, under PRR, skip the first-hole best match.
  for (; prim.valid();
       prim = usable_member(at, level, digit, exclude, /*live_only=*/false)) {
    if (prim == at.id()) return prim;
    TapestryNode* p = reg_.find(prim);
    TAP_ASSERT(p != nullptr);
    if (p->alive) return prim;
    // Dead primary: the probe that discovered it cost one (unanswered)
    // message; then repair.
    transport_->send(
        make_message(MessageKind::kHeartbeatProbe, at.id(), prim, prim),
        reg_.hop_dist(trace, at, *p), trace);
    TAP_ASSERT_MSG(repair_ != nullptr, "router has no repair handler bound");
    repair_->purge_dead_neighbor(at, prim, trace);
  }
  return std::nullopt;
}

std::optional<NodeId> Router::route_step(TapestryNode& at, const Id& target,
                                         RouteState& state, Trace* trace,
                                         const ExcludeSet* exclude) {
  TAP_ASSERT(target.valid() && target.spec() == params_.id);
  const unsigned digits = params_.id.num_digits;
  while (state.level < digits) {
    NodeId member;
    auto j = select_slot(at, state.level, target.digit(state.level),
                         state.past_hole, exclude, /*live_only=*/false,
                         &member);
    // Self-entries guarantee at least one filled slot per row.
    TAP_ASSERT_MSG(j.has_value(), "routing row with no filled slot");
    auto p = live_primary_repair(at, state.level, *j, member, trace, exclude);
    if (!p.has_value()) continue;  // slot died under us; re-select
    ++state.level;
    if (!(*p == at.id())) return p;  // else self-advance: resolved locally
  }
  return std::nullopt;  // `at` is the root
}

std::optional<NodeId> Router::route_step_peek(
    const TapestryNode& at, const Id& target, RouteState& state,
    const NodeLockTable* locks) const {
  // One stripe per routing decision when guarded: the step reads only
  // `at`'s table.  Its member liveness probes read the registry, which
  // takes no lock because nothing changes it while a wave runs.
  NodeLockTable::Guard g(locks, at.id());
  const unsigned digits = params_.id.num_digits;
  while (state.level < digits) {
    // Peek treats a slot as filled only if it has a live member; this is
    // the steady state the repairing walk converges to.
    NodeId prim;
    const auto j = select_slot(at, state.level, target.digit(state.level),
                               state.past_hole, /*exclude=*/nullptr,
                               /*live_only=*/true, &prim);
    // Reachable under failures before repair: every member of every slot
    // in this row is dead.  A real router would block on repair here; the
    // peek reports it as a checkable condition.
    TAP_CHECK(j.has_value(), "peek: routing row with no live slot");
    ++state.level;
    if (!(prim == at.id())) return prim;
  }
  return std::nullopt;
}

void Router::forward(MessageKind kind, const TapestryNode& from,
                     const TapestryNode& to, const Id& target,
                     RouteState& state, Trace* trace) const {
  // The hop itself is a wire message; continue from the delivered copy
  // (identical for the direct transport, decoded bytes for loopback).
  Message hop = make_message(kind, from.id(), to.id(), target);
  hop.level = state.level;
  hop.flag = state.past_hole;
  hop = transport_->send(hop, reg_.hop_dist(trace, from, to), trace);
  state.level = hop.level;
  state.past_hole = hop.flag;
}

template <typename NextHop>
RouteResult Router::walk_to_root(NodeId from, const Id& target, Trace* trace,
                                 NextHop&& next_hop) const {
  TapestryNode* cur = &reg_.checked(from);
  TAP_CHECK(cur->alive, "route_to_root: start node must be alive");
  RouteResult res;
  res.path.push_back(from);
  RouteState state;
  for (;;) {
    const auto next = next_hop(*cur, state);
    if (!next.has_value()) {
      res.root = cur->id();
      return res;
    }
    TapestryNode& nxt = reg_.checked(*next);
    forward(MessageKind::kRouteHop, *cur, nxt, target, state, trace);
    res.latency += reg_.dist(*cur, nxt);
    ++res.hops;
    if (state.past_hole) ++res.surrogate_hops;
    res.path.push_back(nxt.id());
    cur = &nxt;
  }
}

RouteResult Router::route_to_root(NodeId from, const Id& target,
                                  Trace* trace) {
  return walk_to_root(from, target, trace,
                      [&](TapestryNode& at, RouteState& state) {
                        return route_step(at, target, state, trace);
                      });
}

RouteResult Router::route_to_root_peek(NodeId from, const Id& target,
                                       Trace* trace,
                                       const NodeLockTable* locks) const {
  return walk_to_root(from, target, trace,
                      [&](TapestryNode& at, RouteState& state) {
                        return route_step_peek(at, target, state, locks);
                      });
}

NodeId Router::surrogate_root(const Id& target) const {
  TAP_CHECK(reg_.live_count() > 0, "surrogate_root on empty network");
  const TapestryNode* cur = nullptr;
  for (const auto& n : reg_.nodes()) {
    if (n->alive) {
      cur = n.get();
      break;
    }
  }
  RouteState state;
  for (;;) {
    const auto next = route_step_peek(*cur, target, state);
    if (!next.has_value()) return cur->id();
    cur = &reg_.checked(*next);
  }
}

}  // namespace tap
