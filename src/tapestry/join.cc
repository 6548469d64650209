// Node insertion (paper §4, Figure 7) built on the incremental
// nearest-neighbor algorithm (paper §3, Figure 4), with step 3 run as the
// simultaneous-insertion multicast of §4.4 (Figure 11).  Every step is one
// implementation taking a `const NodeLockTable* locks` (null = serial),
// driven three ways: join_via runs one insertion serially and join_bulk
// runs a wave of them on real threads under the stripe locks, both through
// the one body `insert` (maintenance.h has the wave's contract), and
// ParallelJoinCoordinator (parallel_join.h) interleaves the same steps as
// events in simulated time.  The §4.2 pointer re-routes below happen
// around each table change serially; a wave's threads change tables only,
// and the wave re-routes every live node's pointers after they join.
//
// INSERT:
//   1. acquire the primary surrogate by routing toward the new node-ID;
//   2. copy the surrogate's neighbor table as a preliminary table;
//   3. acknowledged-multicast LINKANDXFERROOT to every node sharing the
//      longest existing prefix α with the new node — these are exactly the
//      nodes whose tables have a hole the new node fills (Property 1), and
//      the holders of object pointers whose root moves to the new node;
//   4. ACQUIRENEIGHBORTABLE: starting from the α-node list, walk prefix
//      lengths downward, each time asking the current list's members for
//      their forward and backward pointers at the next level, measuring the
//      distance to every newly met candidate, and keeping the k closest
//      (Lemma 1 / Theorem 3).  Every contacted node also checks whether the
//      new node improves its own table (Theorem 4) and re-routes object
//      pointers whose next hop changed (§4.2).
//
// Digit-completeness note: row i of the new table is filled from the *full*
// candidate set gathered at level i (the union of the level-(i+1) list
// members' row-i entries), not from the trimmed k-list.  Because every
// queried table satisfies Property 1, the union contains a representative
// of every (prefix, j) that exists, so the new node's table satisfies
// Property 1 deterministically — the k-list only bounds who is *measured*
// for the recursion, mirroring the role k plays in the paper's analysis.
//
// Step 3 is Figure 7's multicast with the §4.4 additions, for every driver,
// so that nodes inserting at overlapping times discover each other and
// Property 1 holds when the dust settles (Theorem 6):
//   * pinned pointers — a multicast recipient inserts the inserting node
//     into the slot it fills as a *pinned* table entry; pinned entries are
//     never evicted, and multicast forwarding for that slot goes to one
//     unpinned member plus ALL pinned members (Lemma 4); the pin is
//     released when the recipient's subtree is fully acknowledged;
//   * filled-hole forwarding — a leaf that notices the hole an inserter
//     fills is *already* filled forwards the multicast to the other
//     fillers, so conflicting same-hole inserters learn about each other
//     before either multicast completes (Lemma 5);
//   * watch lists — the multicast carries the set of table slots the
//     inserter knows no node for; any recipient able to fill a watched
//     slot reports the filler directly to the inserter and marks the slot
//     found before forwarding (Lemma 6).  This also fills the rows past α
//     of a node whose surrogate was reached during a partition: nodes
//     across the cut may share more digits with it than the surrogate;
//   * core-start rule — multicasts start at a core node: if the surrogate
//     reached by routing is itself still inserting, the request bounces to
//     that node's own surrogate (cf. Figure 10).
#include "src/tapestry/maintenance.h"

#include <algorithm>

#include "src/sim/thread_pool.h"

namespace tap {

namespace {

/// The §3 k-list trim: dedupe, drop dead nodes and the node itself, order
/// by (distance, id), keep the k closest.  Pure reads of distances and
/// liveness, which need no stripe.
std::vector<NodeId> trim_closest(const NodeRegistry& reg,
                                 const TapestryNode& nn,
                                 std::vector<NodeId> list, std::size_t k) {
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const NodeId& x) {
                              return x == nn.id() || !reg.is_live(x);
                            }),
             list.end());
  std::stable_sort(list.begin(), list.end(),
                   [&](const NodeId& a, const NodeId& b) {
                     const double da = reg.dist(nn, reg.checked(a));
                     const double db = reg.dist(nn, reg.checked(b));
                     if (da != db) return da < db;
                     return a < b;
                   });
  if (list.size() > k) list.resize(k);
  return list;
}

/// The §4.4 forwarding targets at `at` (the caller holds at's stripe):
/// walking `at`'s prefix chain from `prefix_len` to the last row, per slot
/// one unpinned member plus all pinned members (Lemma 4); plus the members
/// already filling the session's (alpha, hole_digit) slot so conflicting
/// same-hole inserters learn of each other (MULTICASTTOFILLEDHOLE, Lemma 5).
std::vector<MulticastChild> multicast_children(const NodeRegistry& reg,
                                               const TapestryNode& at,
                                               const InsertionSession& s,
                                               unsigned prefix_len) {
  const NodeId& at_id = at.id();
  const unsigned digits = reg.params().id.num_digits;
  const unsigned radix = reg.params().id.radix();
  std::vector<MulticastChild> children;

  // Self-messages are free and immediate, so the levels where we are the
  // chosen recipient collapse into the caller's single visit.  No row
  // tells us we are alone (our own-digit slot may list only us while
  // deeper nodes exist), so every row is walked.  The inserter itself is
  // never forwarded to.
  for (unsigned l = prefix_len; l < digits; ++l) {
    for (unsigned j = 0; j < radix; ++j) {
      bool unpinned_taken = false;
      const NeighborSet slot = at.table().at(l, j);
      for (const auto& e : slot.entries()) {
        if (e.id == s.nn) continue;
        if (e.id == at_id) {
          unpinned_taken = true;  // the self-message collapses into here
          continue;
        }
        const TapestryNode* m = reg.find(e.id);
        if (m == nullptr || !m->alive) continue;
        if (slot.pinned(e.id)) {
          children.push_back({e.id, l + 1});
        } else if (!unpinned_taken) {
          unpinned_taken = true;
          children.push_back({e.id, l + 1});
        }
      }
    }
  }

  // MULTICASTTOFILLEDHOLE (Figure 11 line 9).
  for (const auto& e : at.table().at(s.alpha, s.hole_digit).entries()) {
    if (e.id == s.nn || e.id == at_id) continue;
    if (s.processed.count(e.id.value()) != 0) continue;
    const TapestryNode* m = reg.find(e.id);
    if (m == nullptr || !m->alive) continue;
    children.push_back({e.id, s.alpha + 1});
  }
  return children;
}

}  // namespace

NodeId MaintenanceEngine::bootstrap(Location loc, std::optional<NodeId> id) {
  TAP_CHECK(reg_.live_count() == 0, "bootstrap requires an empty network");
  NodeId nid = id.has_value() ? *id : Id::random(params_.id, rng_);
  reg_.register_node(nid, loc);
  return nid;
}

NodeId MaintenanceEngine::join(Location loc, std::optional<NodeId> id,
                               Trace* trace) {
  TAP_CHECK(reg_.live_count() > 0,
            "join requires a non-empty network; bootstrap first");
  // Uniformly random live gateway.
  const std::vector<NodeId>& ids = reg_.live_ids();
  const NodeId gateway = ids[rng_.next_u64(ids.size())];
  return join_via(gateway, loc, id, trace);
}

NodeId MaintenanceEngine::join_via(NodeId gateway, Location loc,
                                   std::optional<NodeId> id, Trace* trace) {
  TAP_CHECK(reg_.is_live(gateway), "gateway must be a live node");
  const NodeId nn = id.has_value() ? *id : reg_.fresh_node_id();
  TAP_CHECK(reg_.find(nn) == nullptr, "node id already in use");
  insert(nn, gateway, loc, trace, nullptr);
  return nn;
}

std::vector<NodeId> MaintenanceEngine::join_bulk(
    const std::vector<JoinRequest>& requests, std::size_t workers,
    Trace* trace) {
  std::unordered_set<std::uint64_t> taken = check_join_batch(reg_, requests);

  // Serial preamble: draw ids and gateways in request order so the drawn
  // sequence — and with it the final membership — is a function of the
  // seed alone, never of the worker count or thread scheduling.
  const std::vector<NodeId> live = reg_.node_ids();
  std::vector<NodeId> ids(requests.size());
  std::vector<NodeId> gateways(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const JoinRequest& req = requests[i];
    ids[i] = req.id.has_value() ? *req.id : fresh_join_id(taken);
    gateways[i] = req.gateway.has_value() ? *req.gateway
                                          : live[rng_.next_u64(live.size())];
  }

  // Any live node may adopt a joiner, so every one is snapshotted.
  run_wave(reg_.nodes_snapshot(), trace, [&] {
    std::vector<Trace> traces(requests.size());
    const NodeLockTable* locks = &reg_.node_locks();
    parallel_for(
        requests.size(),
        [&](std::size_t i) {
          insert(ids[i], gateways[i], requests[i].loc, &traces[i], locks);
        },
        workers);
    if (trace != nullptr)
      for (const Trace& t : traces) trace->absorb(t);
  });
  return ids;
}

void MaintenanceEngine::insert(const NodeId& nn, NodeId gateway, Location loc,
                               Trace* trace, const NodeLockTable* locks) {
  InsertionSession s;
  s.nn = nn;
  s.trace = trace;
  // 1. ACQUIREPRIMARYSURROGATE: the root reached from the gateway is the
  //    node whose ID shares the longest existing prefix with ours, bounced
  //    on to a core node if it is itself inserting.
  s.surrogate = acquire_surrogate(gateway, nn, trace, locks);
  // 2. Register as inserting; GETPRELIMNEIGHBORTABLE: one bulk RPC for the
  //    surrogate's table.
  begin_insertion(s, loc, locks);
  // 3. The §4.4 acknowledged multicast of LINKANDXFERROOT from the
  //    surrogate, asked for in one message, reaches every α-node.
  reg_.acct(trace, reg_.checked(nn), reg_.checked(s.surrogate));
  multicast_wave(s, s.surrogate, s.alpha, watch_list(s, locks), locks);
  // 4. Build the neighbor table level by level from the α-list.
  finish_insertion(s, locks);
}

std::unordered_set<std::uint64_t> check_join_batch(
    const NodeRegistry& reg, const std::vector<JoinRequest>& requests) {
  TAP_CHECK(!requests.empty(), "no join requests");
  TAP_CHECK(reg.live_count() > 0,
            "a join batch requires a non-empty network; bootstrap first");
  std::unordered_set<std::uint64_t> ids;
  for (const JoinRequest& req : requests) {
    TAP_CHECK(req.loc < reg.space().size(),
              "location outside the metric space");
    if (req.id.has_value()) {
      TAP_CHECK(req.id->valid() && req.id->spec() == reg.params().id,
                "node id does not match the network's IdSpec");
      TAP_CHECK(reg.find(*req.id) == nullptr, "node id already in use");
      TAP_CHECK(ids.insert(req.id->value()).second,
                "duplicate node id within the join batch");
    }
    if (req.gateway.has_value())
      TAP_CHECK(reg.is_live(*req.gateway), "gateway must be a live node");
  }
  return ids;
}

NodeId MaintenanceEngine::fresh_join_id(
    std::unordered_set<std::uint64_t>& taken) {
  NodeId id = reg_.fresh_node_id();
  while (!taken.insert(id.value()).second) id = reg_.fresh_node_id();
  return id;
}

// ---------------------------------------------------------------------
// §4.4 steps
// ---------------------------------------------------------------------

NodeId MaintenanceEngine::acquire_surrogate(NodeId gateway, const NodeId& nn,
                                            Trace* trace,
                                            const NodeLockTable* locks) {
  // Inside a wave the walk takes each hop's stripe.
  NodeId sur = locks == nullptr
                   ? router_.route_to_root(gateway, nn, trace).root
                   : router_.route_to_root_peek(gateway, nn, trace, locks).root;
  // Multicasts must start at a core node (§4.4, Figure 10).  A bounce
  // target always was core when recorded and core status is permanent, so
  // the chain terminates.
  for (unsigned bounces = 0;; ++bounces) {
    std::optional<NodeId> next;
    {
      NodeLockTable::Guard g(locks, sur);
      const TapestryNode& n = reg_.checked(sur);
      if (n.inserting) {
        TAP_CHECK(n.psurrogate.has_value(),
                  "inserting node without a surrogate");
        next = n.psurrogate;
      }
    }
    if (!next.has_value()) return sur;
    TAP_CHECK(bounces < 64, "surrogate bounce chain too long");
    reg_.acct(trace, reg_.checked(sur), reg_.checked(*next));
    sur = *next;
  }
}

void MaintenanceEngine::begin_insertion(InsertionSession& s, Location loc,
                                        const NodeLockTable* locks) {
  // Registered pre-marked as inserting: any thread that finds the node in
  // the index already sees the §4.3 transient state.
  TapestryNode& nn =
      reg_.register_node(s.nn, loc, /*inserting=*/true, s.surrogate);
  s.alpha = s.nn.common_prefix_len(s.surrogate);
  s.hole_digit = s.nn.digit(s.alpha);
  copy_preliminary_table(nn, reg_.live(s.surrogate), s.alpha, s.trace, locks);
}

WatchList MaintenanceEngine::watch_list(const InsertionSession& s,
                                        const NodeLockTable* locks) const {
  // The complement of the new node's row occupancy masks.
  const unsigned radix = params_.id.radix();
  const std::uint64_t full_row =
      radix == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << radix) - 1;
  const TapestryNode& nn = reg_.checked(s.nn);
  WatchList watch(params_.id.num_digits);
  NodeLockTable::Guard g(locks, s.nn);
  for (unsigned l = 0; l < watch.size(); ++l)
    watch[l] = ~nn.table().row_mask(l) & full_row;
  return watch;
}

std::optional<std::vector<MulticastChild>> MaintenanceEngine::visit(
    InsertionSession& s, const NodeId& at_id, unsigned prefix_len,
    WatchList& watch, const NodeLockTable* locks) {
  if (!s.processed.insert(at_id.value()).second) return std::nullopt;
  TapestryNode& at = reg_.checked(at_id);
  TapestryNode& nn = reg_.checked(s.nn);

  // Watch-list service (Figure 11 line 1); reports change the inserter's
  // table.
  rerouting(nn, s.trace, locks,
            [&] { serve_watch_list(s, at, nn, watch, locks); });

  // Pin the inserting node into the slot it fills (§4.4, Lemma 4) and
  // adopt it wherever it improves this node's table (Theorem 4); both
  // change this node's forward routes.  The forwarding targets are read
  // between the two: an adoption can evict a slot's last other live
  // member, and the multicast never forwards to the joiner in its place.
  std::vector<MulticastChild> children;
  rerouting(at, s.trace, locks, [&] {
    if (s.pinned_at.insert(at_id.value()).second) {
      NodeLockTable::Guard g(locks, at_id, s.nn);
      at.table().pin(s.alpha, s.hole_digit, s.nn, reg_.dist(at, nn));
      nn.table().add_backpointer(s.alpha, at_id);
    }
    {
      NodeLockTable::Guard g(locks, at_id);
      children = multicast_children(reg_, at, s, prefix_len);
    }
    add_to_table_if_closer(reg_, at, nn, locks);
  });
  // On threads, another inserter may serve here between our service and
  // our pin, and pin after both: each would miss the other.  Serving again
  // after the pin means whichever of two inserters serves last reports the
  // other (Lemma 6).  Serially nothing runs in between.
  if (locks != nullptr) serve_watch_list(s, at, nn, watch, locks);

  // FUNCTION (LINKANDXFERROOT) applied: record this node on the α-list
  // exactly once.
  s.alpha_list.push_back(at_id);
  return children;
}

void MaintenanceEngine::serve_watch_list(InsertionSession& s,
                                         TapestryNode& at, TapestryNode& nn,
                                         WatchList& watch,
                                         const NodeLockTable* locks) {
  // At a level l <= gcp, `at`'s own (l, j) entries share nn[0..l)·j, so
  // any live one fills watched slot (l, j).  Fillers are found under at's
  // stripe and reported (one message each) outside it; linking them never
  // touches at's forward slots.
  const unsigned gcp = at.id().common_prefix_len(nn.id());
  std::vector<std::pair<unsigned, NodeId>> fillers;
  {
    NodeLockTable::Guard g(locks, at.id());
    for (unsigned l = 0; l < watch.size() && l <= gcp; ++l) {
      if (watch[l] == 0) continue;
      for (unsigned j = 0; j < params_.id.radix(); ++j) {
        if ((watch[l] & (std::uint64_t{1} << j)) == 0) continue;
        for (const auto& e : at.table().at(l, j).entries()) {
          if (e.id == nn.id()) continue;
          const TapestryNode* filler = reg_.find(e.id);
          if (filler == nullptr || !filler->alive) continue;
          fillers.emplace_back(l, e.id);
          watch[l] &= ~(std::uint64_t{1} << j);
          break;
        }
      }
    }
  }
  for (const auto& [l, id] : fillers) {
    reg_.acct(s.trace, at, nn);  // the report
    if (TapestryNode* filler = reg_.find(id);
        filler != nullptr && filler->alive)
      link(reg_, nn, l, *filler, locks);
  }
}

void MaintenanceEngine::release_pin(InsertionSession& s, const NodeId& at,
                                    const NodeLockTable* locks) {
  if (s.pinned_at.erase(at.value()) == 0) return;
  std::vector<NodeId> evicted;
  {
    NodeLockTable::Guard g(locks, at);
    reg_.checked(at).table().unpin(s.alpha, s.hole_digit, s.nn, evicted);
  }
  for (const NodeId& ev : evicted)
    sync_backpointer(reg_, at, ev, s.alpha, locks);
}

void MaintenanceEngine::finish_insertion(InsertionSession& s,
                                         const NodeLockTable* locks) {
  // Defensive: every pin is released as its subtree acknowledges.
  const std::vector<std::uint64_t> leftovers(s.pinned_at.begin(),
                                             s.pinned_at.end());
  for (const std::uint64_t v : leftovers)
    release_pin(s, NodeId(params_.id, v), locks);

  // ACQUIRENEIGHBORTABLE over the α-list (§3, Figure 4).  The descent
  // rewrites the new node's table, so pointers already transferred to it
  // are re-checked afterwards.
  TapestryNode& nn = reg_.checked(s.nn);
  rerouting(nn, s.trace, locks, [&] {
    acquire_neighbor_table(nn, s.alpha, std::move(s.alpha_list), s.trace,
                           locks);
  });

  // Insertion complete: the §4.3 transient state is cleared.
  NodeLockTable::Guard g(locks, s.nn);
  nn.inserting = false;
  nn.psurrogate.reset();
  s.done = true;
}

void MaintenanceEngine::multicast_wave(InsertionSession& s, const NodeId& at,
                                       unsigned prefix_len, WatchList watch,
                                       const NodeLockTable* locks) {
  // A duplicate acknowledges at once: the caller's return is the ack.
  const auto children = visit(s, at, prefix_len, watch, locks);
  if (!children.has_value()) return;
  const TapestryNode& from = reg_.checked(at);
  for (const MulticastChild& c : *children) {
    const TapestryNode& to = reg_.checked(c.id);
    reg_.acct(s.trace, from, to);  // forward
    multicast_wave(s, c.id, c.prefix_len, watch, locks);
    reg_.acct(s.trace, to, from);  // ack
  }
  // Subtree fully acknowledged: unlock the pinned pointer (Lemma 4).
  release_pin(s, at, locks);
}

// ---------------------------------------------------------------------
// §3 nearest-neighbor table construction
// ---------------------------------------------------------------------

void MaintenanceEngine::copy_preliminary_table(TapestryNode& nn,
                                               TapestryNode& surrogate,
                                               unsigned max_level,
                                               Trace* trace,
                                               const NodeLockTable* locks) {
  reg_.acct(trace, nn, surrogate, 2);  // request + bulk reply
  // Rows 0..max_level of the surrogate hold nodes sharing the corresponding
  // prefix of the surrogate's ID, which equals ours up to max_level — all
  // valid candidates for the same rows of our table.  The rows are read
  // under the surrogate's stripe (the bulk reply) and linked afterwards;
  // link never touches the surrogate's forward slots, so serially this is
  // the same as linking while reading.
  std::vector<std::pair<unsigned, NodeId>> cands;
  {
    NodeLockTable::Guard g(locks, surrogate.id());
    const unsigned digits = params_.id.num_digits;
    for (unsigned l = 0; l <= max_level && l < digits; ++l)
      for (unsigned j = 0; j < params_.id.radix(); ++j)
        for (const auto& e : surrogate.table().at(l, j).entries())
          if (!(e.id == nn.id())) cands.emplace_back(l, e.id);
  }
  for (const auto& [l, id] : cands)
    if (TapestryNode* cand = reg_.find(id); cand != nullptr && cand->alive)
      link(reg_, nn, l, *cand, locks);
  add_to_table_if_closer(reg_, nn, surrogate, locks);
}

void MaintenanceEngine::link_and_xfer_root(TapestryNode& host,
                                           TapestryNode& nn, Trace* trace,
                                           const NodeLockTable* locks) {
  if (host.id() == nn.id()) return;
  // Update the table; serially, then re-route any pointer whose path
  // changed (this transfers to the new node the pointers it is now root
  // of, and deposits them along the new paths — §4.2).
  rerouting(host, trace, locks,
            [&] { add_to_table_if_closer(reg_, host, nn, locks); });
}

void MaintenanceEngine::build_row_from_list(TapestryNode& nn,
                                            const std::vector<NodeId>& list,
                                            unsigned level,
                                            const NodeLockTable* locks) {
  for (const NodeId& x : list) {
    if (x == nn.id()) continue;
    TapestryNode* cand = reg_.find(x);
    if (cand == nullptr || !cand->alive) continue;
    TAP_ASSERT_MSG(nn.id().common_prefix_len(x) >= level,
                   "candidate does not share the row prefix");
    link(reg_, nn, level, *cand, locks);
  }
}

std::vector<NodeId> MaintenanceEngine::get_next_list(
    TapestryNode& nn, const std::vector<NodeId>& list, unsigned level,
    std::unordered_set<std::uint64_t>& contacted, Trace* trace,
    const NodeLockTable* locks) {
  std::vector<NodeId> candidates;
  for (const NodeId& m : list) {
    TapestryNode* member = reg_.find(m);
    if (member == nullptr || !member->alive) continue;
    reg_.acct(trace, nn, *member, 2);  // GETFORWARDANDBACKPOINTERS round trip
    {
      NodeLockTable::Guard g(locks, m);
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

  // Measure the distance to every candidate met for the first time; the
  // contacted node simultaneously checks whether the new node belongs in
  // its own table (ADDTOTABLEIFCLOSER, Theorem 4) and fixes pointer paths.
  for (const NodeId& x : candidates) {
    if (!contacted.insert(x.value()).second) continue;
    TapestryNode* cand = reg_.find(x);
    if (cand == nullptr || !cand->alive) continue;
    reg_.acct(trace, nn, *cand, 2);  // distance probe round trip
    link_and_xfer_root(*cand, nn, trace, locks);
  }
  return candidates;
}

void MaintenanceEngine::acquire_neighbor_table(TapestryNode& nn,
                                               unsigned max_level,
                                               std::vector<NodeId> initial_list,
                                               Trace* trace,
                                               const NodeLockTable* locks) {
  const std::size_t k = params_.effective_k(reg_.live_count());
  std::unordered_set<std::uint64_t> contacted;
  for (const NodeId& x : initial_list) contacted.insert(x.value());

  // Level max_level: the multicast already visited every α-node, so the
  // initial candidate set is complete by construction.
  build_row_from_list(nn, initial_list, max_level, locks);
  std::vector<NodeId> list = trim_closest(reg_, nn, std::move(initial_list), k);

  for (unsigned level = max_level; level-- > 0;) {
    std::vector<NodeId> candidates =
        get_next_list(nn, list, level, contacted, trace, locks);
    build_row_from_list(nn, candidates, level, locks);
    list = trim_closest(reg_, nn, std::move(candidates), k);
  }
}

}  // namespace tap
