// Thread-parallel §4.4 insertion (see threaded_join.h for the model and
// the locking discipline).  The protocol steps mirror join.cc /
// parallel_join.cc; what differs is only *where* synchronisation comes
// from: per-node stripe locks instead of a single thread of control.
// Table links go through the shared link / add_to_table_if_closer /
// sync_backpointer (maintenance.h) given the stripe locks, so joins and
// repairs run one copy of the lock discipline.
#include "src/tapestry/threaded_join.h"

#include <algorithm>

#include "src/sim/thread_pool.h"
#include "src/tapestry/parallel_join.h"

namespace tap {

ThreadedJoinDriver::ThreadedJoinDriver(NodeRegistry& registry, Router& router,
                                       const TapestryParams& params, Rng& rng)
    : reg_(registry), router_(router), params_(params), rng_(rng),
      locks_(&registry.node_locks()) {}

std::vector<ThreadedJoinDriver::Outcome> ThreadedJoinDriver::run(
    const std::vector<JoinRequest>& requests, std::size_t workers) {
  TAP_CHECK(!requests.empty(), "no join requests");
  TAP_CHECK(reg_.live_count() > 0,
            "join_bulk requires a non-empty network; bootstrap first");
  TAP_CHECK(params_.id.radix() <= 64,
            "threaded join watch lists require radix <= 64");

  // Serial preamble: draw ids and gateways in request order so the drawn
  // sequence — and with it the final membership — is a function of the
  // seed alone, never of the worker count or thread scheduling.
  sessions_.assign(requests.size(), Session{});
  outcomes_.assign(requests.size(), Outcome{});
  const std::vector<NodeId> live = reg_.node_ids();
  std::unordered_set<std::uint64_t> batch_ids;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const JoinRequest& req = requests[i];
    Session& s = sessions_[i];
    s.nn = req.id.has_value() ? *req.id : reg_.fresh_node_id();
    TAP_CHECK(reg_.find(s.nn) == nullptr, "node id already in use");
    TAP_CHECK(batch_ids.insert(s.nn.value()).second,
              "duplicate node id within the join batch");
    s.gateway = req.gateway.has_value()
                    ? *req.gateway
                    : live[rng_.next_u64(live.size())];
    TAP_CHECK(reg_.is_live(s.gateway), "gateway must be a live node");
    s.loc = req.loc;
  }

  parallel_for(
      requests.size(), [this](std::size_t i) { do_join(i); }, workers);

  std::vector<Outcome> out;
  out.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    TAP_CHECK(sessions_[i].done, "a threaded join never completed");
    TAP_CHECK(sessions_[i].pinned_at.empty(),
              "a threaded join left pinned pointers behind");
    out.push_back(outcomes_[i]);
  }
  return out;
}

void ThreadedJoinDriver::do_join(std::size_t index) {
  Session& s = sessions_[index];

  // 1. ACQUIREPRIMARYSURROGATE: route from the gateway toward the new id
  //    under per-hop stripes.  If the root reached is itself mid-insertion
  //    the request bounces to *its* surrogate — multicasts must start at a
  //    core node (§4.4, Figure 10).  A bounce target always was core when
  //    recorded and core status is permanent, so the chain terminates.
  const RouteResult rr =
      router_.route_to_root_guarded(s.gateway, s.nn, &s.trace);
  NodeId sur = rr.root;
  for (unsigned guard = 0;; ++guard) {
    TAP_CHECK(guard < 64, "surrogate bounce chain too long");
    std::optional<NodeId> bounce;
    {
      NodeLockTable::Guard g(locks_, sur);
      const TapestryNode& n = reg_.checked(sur);
      if (n.inserting) {
        TAP_CHECK(n.psurrogate.has_value(),
                  "inserting node without a surrogate");
        bounce = n.psurrogate;
      }
    }
    if (!bounce.has_value()) break;
    s.trace.hop(reg_.distance(sur, *bounce));
    sur = *bounce;
  }

  // 2. Register pre-marked as inserting: any thread that finds the node
  //    in the index already sees the §4.3 transient state.
  TapestryNode& nn = reg_.register_node(s.nn, s.loc, /*inserting=*/true, sur);
  TapestryNode& surrogate = reg_.checked(sur);
  const unsigned alpha = s.nn.common_prefix_len(sur);
  s.surrogate = sur;
  s.alpha = alpha;
  s.hole_digit = s.nn.digit(alpha);
  outcomes_[index].id = s.nn;
  outcomes_[index].surrogate = sur;
  outcomes_[index].alpha = alpha;

  // 3. GETPRELIMNEIGHBORTABLE: one bulk RPC for the surrogate's table.
  copy_preliminary(s, nn, surrogate, alpha);

  // 4. Watch list: every slot the new node still knows no one for — the
  //    complement of its table's row occupancy masks.
  const unsigned radix = params_.id.radix();
  const std::uint64_t full_row =
      radix == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << radix) - 1;
  WatchList watch;
  watch.missing.assign(params_.id.num_digits, 0);
  {
    NodeLockTable::Guard g(locks_, s.nn);
    for (unsigned l = 0; l < params_.id.num_digits; ++l)
      watch.missing[l] = ~nn.table().row_mask64(l) & full_row;
  }

  // 5. Acknowledged multicast (Figure 11) as a synchronous depth-first
  //    walk: the recursion returning from a subtree IS that subtree's
  //    acknowledgement, and the pin release on return is Lemma 4's
  //    unlock-on-full-ack.
  s.trace.hop(reg_.distance(s.nn, sur));
  multicast_visit(s, sur, alpha, std::move(watch));
  // Defensive parity with the event coordinator: nothing should be left.
  const std::vector<std::uint64_t> leftovers(s.pinned_at.begin(),
                                             s.pinned_at.end());
  for (const std::uint64_t v : leftovers)
    release_pin(s, NodeId(params_.id, v));

  // 6. ACQUIRENEIGHBORTABLE over the α-list (§3, Figure 4).
  acquire_neighbor_table(s, nn, alpha, s.visited);

  // 7. Insertion complete (§4.3 transient state cleared under our stripe).
  {
    NodeLockTable::Guard g(locks_, s.nn);
    nn.inserting = false;
    nn.psurrogate.reset();
  }
  outcomes_[index].messages = s.trace.messages();
  s.done = true;
}

// ---------------------------------------------------------------------
// Protocol steps
// ---------------------------------------------------------------------

void ThreadedJoinDriver::copy_preliminary(Session& s, TapestryNode& nn,
                                          TapestryNode& surrogate,
                                          unsigned max_level) {
  reg_.acct(&s.trace, nn, surrogate, 2);  // request + bulk reply
  // Snapshot the surrogate's rows 0..max_level under its stripe (the bulk
  // RPC reply), then link the candidates into our table pair by pair.
  std::vector<std::pair<unsigned, NodeId>> cands;
  {
    NodeLockTable::Guard g(locks_, surrogate.id());
    const unsigned digits = params_.id.num_digits;
    for (unsigned l = 0; l <= max_level && l < digits; ++l)
      for (unsigned j = 0; j < params_.id.radix(); ++j)
        for (const auto& e : surrogate.table().at(l, j).entries())
          if (!(e.id == nn.id())) cands.emplace_back(l, e.id);
  }
  for (const auto& [l, id] : cands)
    if (TapestryNode* cand = reg_.find(id); cand != nullptr && cand->alive)
      link(reg_, nn, l, *cand, locks_);
  add_to_table_if_closer(reg_, nn, surrogate, locks_);
}

void ThreadedJoinDriver::check_watch_list(Session& s, TapestryNode& at,
                                          WatchList& watch) {
  TapestryNode& nn = reg_.checked(s.nn);
  const unsigned gcp = at.id().common_prefix_len(nn.id());
  // Find fillers under this node's stripe, then report them to the
  // inserting node (one message each) outside it.
  std::vector<std::pair<unsigned, NodeId>> fillers;
  {
    NodeLockTable::Guard g(locks_, at.id());
    for (unsigned l = 0; l < watch.missing.size() && l <= gcp; ++l) {
      if (watch.missing[l] == 0) continue;
      for (unsigned j = 0; j < params_.id.radix(); ++j) {
        if ((watch.missing[l] & (std::uint64_t{1} << j)) == 0) continue;
        for (const auto& e : at.table().at(l, j).entries()) {
          if (e.id == nn.id()) continue;
          const TapestryNode* filler = reg_.find(e.id);
          if (filler == nullptr || !filler->alive) continue;
          fillers.emplace_back(l, e.id);
          watch.missing[l] &= ~(std::uint64_t{1} << j);
          break;
        }
      }
    }
  }
  for (const auto& [l, id] : fillers) {
    s.trace.hop(reg_.distance(at.id(), nn.id()));  // the report message
    if (TapestryNode* filler = reg_.find(id); filler != nullptr &&
                                              filler->alive)
      link(reg_, nn, l, *filler, locks_);
  }
}

void ThreadedJoinDriver::multicast_visit(Session& s, NodeId at_id,
                                         unsigned prefix_len,
                                         WatchList watch) {
  // Duplicate suppression: a node that already ran FUNCTION for this
  // session acknowledges immediately (the caller's return IS the ack).
  if (!s.processed.insert(at_id.value()).second) return;

  TapestryNode& at = reg_.checked(at_id);
  TapestryNode& nn = reg_.checked(s.nn);

  // Watch-list service (Figure 11 line 1, Lemma 6).
  check_watch_list(s, at, watch);

  // Pin the inserting node into the slot it fills (§4.4, Lemma 4)...
  if (s.pinned_at.insert(at_id.value()).second) {
    NodeLockTable::Guard g(locks_, at_id, s.nn);
    at.table().pin(s.alpha, s.hole_digit, s.nn, reg_.dist(at, nn));
    nn.table().add_backpointer(s.alpha, at_id);
  }
  // ...and adopt it wherever it improves this node's table (Theorem 4).
  add_to_table_if_closer(reg_, at, nn, locks_);

  // Forwarding targets: the Lemma 4/5 rule shared with the event
  // coordinator (multicast_children in parallel_join.cc), computed from
  // this node's table under its stripe.
  std::vector<MulticastChild> children;
  {
    NodeLockTable::Guard g(locks_, at_id);
    children = multicast_children(reg_, at, s.nn, prefix_len, s.alpha,
                                  s.hole_digit, s.processed);
  }

  // FUNCTION applied: record this node on the α-list exactly once.
  s.visited.push_back(at_id);

  for (const MulticastChild& c : children) {
    s.trace.hop(reg_.distance(at_id, c.id));  // forward
    multicast_visit(s, c.id, c.prefix_len, watch);
    s.trace.hop(reg_.distance(c.id, at_id));  // ack
  }

  // Subtree fully acknowledged: unlock the pinned pointer (Lemma 4).
  release_pin(s, at_id);
}

void ThreadedJoinDriver::release_pin(Session& s, const NodeId& at_id) {
  if (s.pinned_at.erase(at_id.value()) == 0) return;
  std::vector<NodeId> evicted;
  {
    NodeLockTable::Guard g(locks_, at_id);
    reg_.checked(at_id).table().unpin(s.alpha, s.hole_digit, s.nn, evicted);
  }
  for (const NodeId& ev : evicted)
    sync_backpointer(reg_, at_id, ev, s.alpha, locks_);
}

// ---------------------------------------------------------------------
// Nearest-neighbor table construction (§3) under the stripe discipline
// ---------------------------------------------------------------------

void ThreadedJoinDriver::build_row_from_list(TapestryNode& nn,
                                             const std::vector<NodeId>& list,
                                             unsigned level) {
  for (const NodeId& x : list) {
    if (x == nn.id()) continue;
    TapestryNode* cand = reg_.find(x);
    if (cand == nullptr || !cand->alive) continue;
    TAP_ASSERT_MSG(nn.id().common_prefix_len(x) >= level,
                   "candidate does not share the row prefix");
    link(reg_, nn, level, *cand, locks_);
  }
}

std::vector<NodeId> ThreadedJoinDriver::get_next_list(
    Session& s, TapestryNode& nn, const std::vector<NodeId>& list,
    unsigned level, std::unordered_set<std::uint64_t>& met) {
  std::vector<NodeId> candidates;
  for (const NodeId& m : list) {
    TapestryNode* member = reg_.find(m);
    if (member == nullptr || !member->alive) continue;
    reg_.acct(&s.trace, nn, *member, 2);  // GETFORWARDANDBACKPOINTERS
    {
      NodeLockTable::Guard g(locks_, m);
      for (const NodeId& x : member->table().row_members(level))
        candidates.push_back(x);
      for (const NodeId& x : member->table().backpointers(level))
        candidates.push_back(x);
    }
    candidates.push_back(m);  // the member itself matches >= level digits
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](const NodeId& x) {
                                    return x == nn.id() || !reg_.is_live(x);
                                  }),
                   candidates.end());

  // Every first-met candidate is distance-probed, and the contacted node
  // simultaneously checks whether the new node improves its own table
  // (ADDTOTABLEIFCLOSER, Theorem 4).  Pointer redistribution is deferred
  // to the soft-state republish backstop (see threaded_join.h).
  for (const NodeId& x : candidates) {
    if (met.insert(x.value()).second) {
      TapestryNode* cand = reg_.find(x);
      if (cand == nullptr || !cand->alive) continue;
      reg_.acct(&s.trace, nn, *cand, 2);  // distance probe round trip
      add_to_table_if_closer(reg_, *cand, nn, locks_);
    }
  }
  return candidates;
}

void ThreadedJoinDriver::acquire_neighbor_table(
    Session& s, TapestryNode& nn, unsigned max_level,
    std::vector<NodeId> initial_list) {
  const std::size_t k = params_.effective_k(reg_.live_count());
  std::unordered_set<std::uint64_t> met;
  for (const NodeId& x : initial_list) met.insert(x.value());

  build_row_from_list(nn, initial_list, max_level);
  std::vector<NodeId> list = trim_closest_candidates(reg_, nn, std::move(initial_list), k);

  for (unsigned level = max_level; level-- > 0;) {
    std::vector<NodeId> candidates = get_next_list(s, nn, list, level, met);
    build_row_from_list(nn, candidates, level);
    list = trim_closest_candidates(reg_, nn, std::move(candidates), k);
  }
}

// ---------------------------------------------------------------------
// MaintenanceEngine facade
// ---------------------------------------------------------------------

std::vector<NodeId> MaintenanceEngine::join_bulk(
    const std::vector<JoinRequest>& requests, std::size_t workers) {
  ThreadedJoinDriver driver(reg_, router_, params_, rng_);
  const auto outcomes = driver.run(requests, workers);
  std::vector<NodeId> ids;
  ids.reserve(outcomes.size());
  for (const auto& o : outcomes) ids.push_back(o.id);
  return ids;
}

}  // namespace tap
