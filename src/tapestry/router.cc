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

std::optional<unsigned> Router::select_slot(const TapestryNode& at,
                                            unsigned level, unsigned desired,
                                            bool& past_hole,
                                            const ExcludeSet* exclude) const {
  const unsigned radix = params_.id.radix();
  const std::uint64_t* row = at.table().row_occupancy(level);
  // Occupancy answers "slot non-empty" exactly; an exclude set or an
  // active partition forces a look at the members themselves (and then
  // only for occupied slots).  Partitioned-away members are skipped but
  // never purged — the cut is not a death.
  const bool cut = reg_.partition_active();
  auto filled = [&](unsigned j) {
    if (exclude == nullptr && !cut) return true;  // callers only offer occupied j
    for (const auto& e : at.table().at(level, j).entries()) {
      if (exclude != nullptr && exclude->count(e.id.value()) != 0) continue;
      if (cut && !reg_.reachable(at.id(), e.id)) continue;
      return true;
    }
    return false;
  };

  if (params_.routing == RoutingMode::kTapestryNative) {
    // First occupied slot at or after `desired`, wrapping (§2.3).  Without
    // an exclude set this is a pure bit scan.
    const unsigned first = occ::next_wrap(row, radix, desired);
    if (first == occ::kNone) return std::nullopt;
    unsigned j = first;
    do {
      if (filled(j)) {
        if (j != desired) past_hole = true;
        return j;
      }
      j = occ::next_wrap(row, radix, (j + 1) % radix);
    } while (j != first);
    return std::nullopt;
  }

  // RoutingMode::kPrrLike.
  if (!past_hole) {
    if (occ::test(row, desired) && filled(desired)) return desired;
    past_hole = true;
    // First hole: best leading-bit match, ties to the higher digit.
    std::optional<unsigned> best;
    unsigned best_score = 0;
    for (unsigned j = occ::next(row, radix, 0); j != occ::kNone;
         j = occ::next(row, radix, j + 1)) {
      if (!filled(j)) continue;
      const unsigned score =
          leading_bit_match(j, desired, params_.id.digit_bits);
      if (!best.has_value() || score > best_score ||
          (score == best_score && j > *best)) {
        best = j;
        best_score = score;
      }
    }
    return best;
  }
  // After the first hole: numerically highest filled digit.
  for (unsigned j = occ::prev(row, radix, radix - 1); j != occ::kNone;
       j = (j == 0 ? occ::kNone : occ::prev(row, radix, j - 1)))
    if (filled(j)) return j;
  return std::nullopt;
}

std::optional<unsigned> Router::select_slot_reference(
    const TapestryNode& at, unsigned level, unsigned desired, bool& past_hole,
    const ExcludeSet* exclude) const {
  const unsigned radix = params_.id.radix();
  const bool cut = reg_.partition_active();
  auto filled = [&](unsigned j) {
    for (const auto& e : at.table().at(level, j).entries()) {
      if (exclude != nullptr && exclude->count(e.id.value()) != 0) continue;
      if (cut && !reg_.reachable(at.id(), e.id)) continue;
      return true;
    }
    return false;
  };

  if (params_.routing == RoutingMode::kTapestryNative) {
    for (unsigned off = 0; off < radix; ++off) {
      const unsigned j = (desired + off) % radix;
      if (filled(j)) {
        if (j != desired) past_hole = true;
        return j;
      }
    }
    return std::nullopt;
  }

  // RoutingMode::kPrrLike.
  if (!past_hole) {
    if (filled(desired)) return desired;
    past_hole = true;
    // First hole: best leading-bit match, ties to the higher digit.
    std::optional<unsigned> best;
    unsigned best_score = 0;
    for (unsigned j = 0; j < radix; ++j) {
      if (!filled(j)) continue;
      const unsigned score =
          leading_bit_match(j, desired, params_.id.digit_bits);
      if (!best.has_value() || score > best_score ||
          (score == best_score && j > *best)) {
        best = j;
        best_score = score;
      }
    }
    return best;
  }
  // After the first hole: numerically highest filled digit.
  for (unsigned j = radix; j-- > 0;)
    if (filled(j)) return j;
  return std::nullopt;
}

std::optional<NodeId> Router::live_primary_repair(TapestryNode& at,
                                                  unsigned level,
                                                  unsigned digit, Trace* trace,
                                                  const ExcludeSet* exclude) {
  for (;;) {
    // The primary for this step is the closest member not being routed
    // around (Figure 10's "as if the new node had not yet entered").
    std::optional<NodeId> prim;
    for (const auto& e : at.table().at(level, digit).entries()) {
      if (exclude != nullptr && exclude->count(e.id.value()) != 0) continue;
      // A partitioned-away member is unreachable but alive: route around
      // it without purging (the table must survive the cut intact).
      if (!reg_.reachable(at.id(), e.id)) continue;
      prim = e.id;
      break;
    }
    if (!prim.has_value()) return std::nullopt;
    if (*prim == at.id()) return prim;
    TapestryNode* p = reg_.find(*prim);
    TAP_ASSERT(p != nullptr);
    if (p->alive) return prim;
    // Dead primary: the probe that discovered it cost one (unanswered)
    // message; then repair.
    (void)transport_->deliver(
        make_message(MessageKind::kHeartbeatProbe, at.id(), *prim, *prim));
    reg_.acct(trace, at, *p, 1);
    TAP_ASSERT_MSG(repair_ != nullptr, "router has no repair handler bound");
    repair_->purge_dead_neighbor(at, *prim, trace);
  }
}

std::optional<NodeId> Router::route_step(TapestryNode& at, const Id& target,
                                         RouteState& state, Trace* trace,
                                         const ExcludeSet* exclude) {
  TAP_ASSERT(target.valid() && target.spec() == params_.id);
  const unsigned digits = params_.id.num_digits;
  while (state.level < digits) {
    for (;;) {
      const unsigned desired = target.digit(state.level);
      auto j = select_slot(at, state.level, desired, state.past_hole, exclude);
      // Self-entries guarantee at least one filled slot per row.
      TAP_ASSERT_MSG(j.has_value(), "routing row with no filled slot");
      auto p = live_primary_repair(at, state.level, *j, trace, exclude);
      if (!p.has_value()) continue;  // slot died under us; re-select
      if (*p == at.id()) {
        ++state.level;  // self-advance: resolve the digit locally
        break;
      }
      ++state.level;
      return p;
    }
  }
  return std::nullopt;  // `at` is the root
}

std::optional<NodeId> Router::route_step_peek(
    const NodeId& at, const Id& target, RouteState& state,
    const NodeLockTable* locks) const {
  // One stripe per routing decision when guarded: the step reads only
  // `at`'s table (member liveness probes go through the lock-free registry
  // index).
  NodeLockTable::Guard g(locks, at);
  const TapestryNode& n = reg_.checked(at);
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();
  unsigned level = state.level;
  while (level < digits) {
    // Peek treats a slot as filled only if it has a live member; this is
    // the steady-state the repairing walk converges to.  The occupancy
    // mask prunes the scan to non-empty slots, and liveness is probed
    // per candidate slot — allocation-free, mutation-free, lock-free.
    const std::uint64_t* row = n.table().row_occupancy(level);
    auto live_primary = [&](unsigned j) -> const NodeId* {
      for (const auto& e : n.table().at(level, j).entries())
        if (reg_.is_live(e.id) && reg_.reachable(n.id(), e.id)) return &e.id;
      return nullptr;  // entries are distance-sorted; first live is primary
    };
    const unsigned desired = target.digit(level);
    std::optional<unsigned> pick;
    const NodeId* prim = nullptr;
    if (params_.routing == RoutingMode::kTapestryNative) {
      const unsigned first = occ::next_wrap(row, radix, desired);
      if (first != occ::kNone) {
        unsigned j = first;
        do {
          if ((prim = live_primary(j)) != nullptr) {
            if (j != desired) state.past_hole = true;
            pick = j;
            break;
          }
          j = occ::next_wrap(row, radix, (j + 1) % radix);
        } while (j != first);
      }
    } else {
      if (!state.past_hole && occ::test(row, desired) &&
          (prim = live_primary(desired)) != nullptr) {
        pick = desired;
      } else if (!state.past_hole) {
        state.past_hole = true;
        unsigned best_score = 0;
        for (unsigned j = occ::next(row, radix, 0); j != occ::kNone;
             j = occ::next(row, radix, j + 1)) {
          const NodeId* p = live_primary(j);
          if (p == nullptr) continue;
          const unsigned score =
              leading_bit_match(j, desired, params_.id.digit_bits);
          if (!pick.has_value() || score > best_score ||
              (score == best_score && j > *pick)) {
            pick = j;
            prim = p;
            best_score = score;
          }
        }
      } else {
        for (unsigned j = occ::prev(row, radix, radix - 1); j != occ::kNone;
             j = (j == 0 ? occ::kNone : occ::prev(row, radix, j - 1))) {
          if ((prim = live_primary(j)) != nullptr) {
            pick = j;
            break;
          }
        }
      }
    }
    // Reachable under failures before repair: every member of every slot
    // in this row is dead.  A real router would block on repair here; the
    // peek reports it as a checkable condition.
    TAP_CHECK(pick.has_value(), "peek: routing row with no live slot");
    const NodeId p = *prim;
    ++level;
    state.level = level;
    if (!(p == n.id())) return p;
  }
  state.level = level;
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
  hop = transport_->deliver(hop);
  state.level = hop.level;
  state.past_hole = hop.flag;
  reg_.acct(trace, from, to);
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
                                       Trace* trace) const {
  return walk_to_root(from, target, trace,
                      [&](TapestryNode& at, RouteState& state) {
                        return route_step_peek(at.id(), target, state);
                      });
}

RouteResult Router::route_to_root_guarded(NodeId from, const Id& target,
                                          Trace* trace) const {
  return walk_to_root(from, target, trace,
                      [&](TapestryNode& at, RouteState& state) {
                        return route_step_peek(at.id(), target, state,
                                               &reg_.node_locks());
                      });
}

NodeId Router::surrogate_root(const Id& target) const {
  TAP_CHECK(reg_.live_count() > 0, "surrogate_root on empty network");
  const TapestryNode* start = nullptr;
  for (const auto& n : reg_.nodes()) {
    if (n->alive) {
      start = n.get();
      break;
    }
  }
  RouteState state;
  NodeId cur = start->id();
  for (;;) {
    auto next = route_step_peek(cur, target, state);
    if (!next.has_value()) return cur;
    cur = *next;
  }
}

}  // namespace tap
