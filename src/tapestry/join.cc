// Node insertion (paper §4, Figure 7) built on the incremental
// nearest-neighbor algorithm (paper §3, Figure 4), with step 3 run as the
// simultaneous-insertion multicast of §4.4 (Figure 11).  Every step is one
// implementation taking a `const NodeLockTable* locks` (null = serial),
// and one body, `insert`, runs them for three drivers: join_via runs one
// insertion serially, join_bulk runs a wave of them on real threads under
// the stripe locks (maintenance.h has the wave's contract), and
// join_events interleaves them as events in simulated time.  The drivers
// differ only in how a multicast message travels.  The §4.2 pointer
// re-routes below happen around each table change serially; a wave's
// threads change tables only, and the wave re-routes every live node's
// pointers after they join.
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
#include <unordered_map>

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

/// Rejects a malformed join batch before any of it runs (join_bulk,
/// join_events).  The batch must be non-empty and the network not;
/// locations must lie in the metric space, explicit ids must match the
/// IdSpec and be unused and unique within the batch, and explicit gateways
/// live.  Returns the explicit ids, which the ids drawn for the batch's
/// other joins must avoid (fresh_join_id).
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

/// A fresh random id outside `taken`, which it joins.
NodeId fresh_join_id(NodeRegistry& reg,
                     std::unordered_set<std::uint64_t>& taken) {
  NodeId id = reg.fresh_node_id();
  while (!taken.insert(id.value()).second) id = reg.fresh_node_id();
  return id;
}

}  // namespace

/// Per-join state of one insertion in flight (§4.4).
struct MaintenanceEngine::InsertionSession {
  NodeId nn{};              ///< the inserting node
  NodeId surrogate{};       ///< core node the multicast starts from
  unsigned alpha = 0;       ///< prefix length of the filled hole
  unsigned hole_digit = 0;  ///< nn's digit at alpha: the slot nn fills
  /// A node the multicast reached: it ran FUNCTION and pinned nn, and
  /// once the `awaiting` children it forwarded to have acknowledged, it
  /// unpins nn and acknowledges `parent` (none at the start node).
  struct Visit {
    std::size_t awaiting = 0;
    std::optional<NodeId> parent{};
  };
  std::unordered_map<std::uint64_t, Visit> visits;  ///< by node id value
  std::vector<NodeId> alpha_list;  ///< the α-list, in visit order
  /// Where this join's messages are booked: the caller's Trace for a
  /// serial join (may be null), a per-join Trace in a wave or in
  /// join_events.
  Trace* trace = nullptr;
  std::optional<double> done_time{};  ///< event time finish_insertion ran
};

struct MaintenanceEngine::MulticastChild {
  NodeId id{};
  unsigned prefix_len = 0;
};

// ---------------------------------------------------------------------
// The insertion and its §4.4 acknowledged multicast, for every driver
// ---------------------------------------------------------------------

template <typename Send>
void MaintenanceEngine::insert(InsertionSession& s, NodeId gateway,
                               Location loc, const NodeLockTable* locks,
                               Send& send) {
  // 1. ACQUIREPRIMARYSURROGATE: the root reached from the gateway is the
  //    node whose ID shares the longest existing prefix with ours, bounced
  //    on to a core node if it is itself inserting.
  s.surrogate = acquire_surrogate(gateway, s.nn, s.trace, locks);
  // 2. Register as inserting; GETPRELIMNEIGHBORTABLE: one bulk RPC for the
  //    surrogate's table.
  begin_insertion(s, loc, locks);
  // 3. The §4.4 acknowledged multicast of LINKANDXFERROOT from the
  //    surrogate, asked for in one message, reaches every α-node.  Its
  //    completion runs 4.: the neighbor table is built level by level
  //    from the α-list (finish_insertion).
  reg_.acct(s.trace, reg_.checked(s.nn), reg_.checked(s.surrogate));
  send(s.nn, s.surrogate,
       [this, &s, watch = watch_list(s, locks), locks, &send]() mutable {
         reach(s, s.surrogate, std::nullopt, s.alpha, watch, locks, send);
       });
}

template <typename Send>
void MaintenanceEngine::reach(InsertionSession& s, const NodeId& at,
                              std::optional<NodeId> parent,
                              unsigned prefix_len, WatchList& watch,
                              const NodeLockTable* locks, Send& send) {
  const auto children = visit(s, at, parent, prefix_len, watch, locks);
  if (!children.has_value()) {  // reached before: acknowledge at once
    acknowledge(s, at, parent, locks, send);
    return;
  }
  if (children->empty()) {  // a leaf: its subtree is acknowledged already
    release_pin(s, at, locks);
    acknowledge(s, at, parent, locks, send);
    return;
  }
  for (const MulticastChild& c : *children) {
    reg_.acct(s.trace, reg_.checked(at), reg_.checked(c.id));  // forward
    send(at, c.id, [this, &s, c, from = at, watch, locks, &send]() mutable {
      reach(s, c.id, from, c.prefix_len, watch, locks, send);
    });
  }
}

template <typename Send>
void MaintenanceEngine::acknowledge(InsertionSession& s, const NodeId& at,
                                    std::optional<NodeId> parent,
                                    const NodeLockTable* locks, Send& send) {
  if (!parent.has_value()) {  // the start node: the multicast is complete
    finish_insertion(s, locks);
    return;
  }
  reg_.acct(s.trace, reg_.checked(at), reg_.checked(*parent));
  send(at, *parent, [this, &s, to = *parent, locks, &send] {
    InsertionSession::Visit& v = s.visits.at(to.value());
    if (--v.awaiting > 0) return;
    // Subtree fully acknowledged: unlock the pinned pointer (Lemma 4).
    release_pin(s, to, locks);
    acknowledge(s, to, v.parent, locks, send);
  });
}

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
  insert_now(nn, gateway, loc, trace, nullptr);
  return nn;
}

std::vector<NodeId> MaintenanceEngine::join_bulk(
    const std::vector<JoinRequest>& requests, std::size_t workers,
    Trace* trace) {
  std::unordered_set<std::uint64_t> taken = check_join_batch(reg_, requests);

  // Serial preamble: draw ids and gateways in request order so the drawn
  // sequence — and with it the final membership — is a function of the
  // seed alone, never of the worker count or thread scheduling.
  const std::vector<NodeId>& live = reg_.live_ids();
  std::vector<NodeId> ids(requests.size());
  std::vector<NodeId> gateways(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const JoinRequest& req = requests[i];
    ids[i] = req.id.has_value() ? *req.id : fresh_join_id(reg_, taken);
    gateways[i] = req.gateway.has_value() ? *req.gateway
                                          : live[rng_.next_u64(live.size())];
  }

  // Any live node may adopt a joiner, so every one is snapshotted.
  std::vector<TapestryNode*> relinked;
  for (const auto& n : reg_.nodes()) relinked.push_back(n.get());
  // The joiners are registered here, in request order and marked
  // inserting, so the registry changes only before the threads start.
  // Each counts in live_count() only once its insertion begins, and no
  // table names it before then.
  for (std::size_t i = 0; i < requests.size(); ++i)
    reg_.register_node(ids[i], requests[i].loc, /*inserting=*/true);

  run_wave(relinked, trace, [&] {
    std::vector<Trace> traces(requests.size());
    const NodeLockTable* locks = &reg_.node_locks();
    parallel_for(
        requests.size(),
        [&](std::size_t i) {
          insert_now(ids[i], gateways[i], requests[i].loc, &traces[i], locks);
        },
        workers);
    if (trace != nullptr)
      for (const Trace& t : traces) trace->absorb(t);
  });
  return ids;
}

std::vector<JoinOutcome> MaintenanceEngine::join_events(
    const std::vector<EventJoin>& requests, double jitter) {
  TAP_CHECK(jitter >= 0.0, "jitter must be non-negative");
  // A throw from inside the event loop would leave scheduled events behind
  // that capture this frame, so the batch is checked up front.  Ids left
  // to draw are drawn at event time, in start order.
  std::vector<JoinRequest> batch;
  batch.reserve(requests.size());
  for (const EventJoin& r : requests) batch.push_back({r.loc, r.id, r.gateway});
  std::unordered_set<std::uint64_t> taken = check_join_batch(reg_, batch);

  // A message arrives after the hop's distance plus its jitter draw; a
  // zero-delay one still takes a scheduling step, so ordering stays
  // observable.
  auto send = [&](const NodeId& from, const NodeId& to, auto&& handle) {
    double d = reg_.distance(from, to);
    if (jitter > 0.0) d += rng_.uniform(0.0, jitter);
    events_.schedule_in(d > 0.0 ? d : 1e-9,
                        std::forward<decltype(handle)>(handle));
  };
  std::vector<InsertionSession> sessions(requests.size());
  std::vector<Trace> traces(requests.size());
  std::vector<JoinOutcome> out(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sessions[i].trace = &traces[i];
    events_.schedule_at(
        std::max(requests[i].start_time, events_.now()), [&, i] {
          const EventJoin& r = requests[i];
          InsertionSession& s = sessions[i];
          s.nn = r.id.has_value() ? *r.id : fresh_join_id(reg_, taken);
          out[i].start_time = events_.now();
          insert(s, r.gateway, r.loc, nullptr, send);
        });
  }
  events_.run();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const InsertionSession& s = sessions[i];
    TAP_CHECK(s.done_time.has_value(), "a join's multicast never completed");
    out[i].id = s.nn;
    out[i].surrogate = s.surrogate;
    out[i].alpha = s.alpha;
    out[i].core_time = out[i].done_time = *s.done_time;
    out[i].messages = traces[i].messages();
  }
  return out;
}

void MaintenanceEngine::insert_now(const NodeId& nn, NodeId gateway,
                                   Location loc, Trace* trace,
                                   const NodeLockTable* locks) {
  InsertionSession s;
  s.nn = nn;
  s.trace = trace;
  auto at_once = [](const NodeId&, const NodeId&, auto&& handle) {
    handle();
  };
  insert(s, gateway, loc, locks, at_once);
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
  // A wave registered its joiners in its preamble; join_via and
  // join_events register theirs here, after the surrogate walk, whose
  // repairs may read the live-id lists.  Either way the node is marked
  // inserting before any table names it, and counts as live from here.
  TapestryNode* found = reg_.find(s.nn);
  TapestryNode& nn = found != nullptr
                         ? *found
                         : reg_.register_node(s.nn, loc, /*inserting=*/true);
  {
    NodeLockTable::Guard g(locks, s.nn);
    nn.psurrogate = s.surrogate;
  }
  reg_.count_insertion(nn);
  s.alpha = s.nn.common_prefix_len(s.surrogate);
  s.hole_digit = s.nn.digit(s.alpha);
  copy_preliminary_table(nn, reg_.live(s.surrogate), s.alpha, s.trace, locks);
}

MaintenanceEngine::WatchList MaintenanceEngine::watch_list(
    const InsertionSession& s, const NodeLockTable* locks) const {
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

std::optional<std::vector<MaintenanceEngine::MulticastChild>>
MaintenanceEngine::visit(InsertionSession& s, const NodeId& at_id,
                         std::optional<NodeId> parent, unsigned prefix_len,
                         WatchList& watch, const NodeLockTable* locks) {
  const auto [reached, first] =
      s.visits.try_emplace(at_id.value(), InsertionSession::Visit{0, parent});
  if (!first) return std::nullopt;
  InsertionSession::Visit& v = reached->second;
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
    {
      NodeLockTable::Guard g(locks, at_id, s.nn);
      at.table().pin(s.alpha, s.hole_digit, s.nn, reg_.dist(at, nn));
      nn.table().add_backpointer(s.alpha, at_id);
    }
    {
      NodeLockTable::Guard g(locks, at_id);
      children = multicast_children(at, s, prefix_len);
    }
    add_to_table_if_closer(reg_, at, nn, locks);
  });
  // On threads, another inserter may serve here between our service and
  // our pin, and pin after both: each would miss the other.  Serving again
  // after the pin means whichever of two inserters serves last reports the
  // other (Lemma 6).  Serially nothing runs in between.
  if (locks != nullptr) serve_watch_list(s, at, nn, watch, locks);

  // FUNCTION (LINKANDXFERROOT) applied: record this node on the α-list
  // exactly once; it awaits one acknowledgement per forward.
  s.alpha_list.push_back(at_id);
  v.awaiting = children.size();
  return children;
}

std::vector<MaintenanceEngine::MulticastChild>
MaintenanceEngine::multicast_children(const TapestryNode& at,
                                      const InsertionSession& s,
                                      unsigned prefix_len) const {
  // Walking `at`'s prefix chain from `prefix_len` to the last row, per
  // slot one unpinned member plus all pinned members (Lemma 4); plus the
  // members already filling the session's (alpha, hole_digit) slot so
  // conflicting same-hole inserters learn of each other
  // (MULTICASTTOFILLEDHOLE, Lemma 5).
  const NodeId& at_id = at.id();
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();
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
        const TapestryNode* m = reg_.find(e.id);
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
    if (s.visits.count(e.id.value()) != 0) continue;
    const TapestryNode* m = reg_.find(e.id);
    if (m == nullptr || !m->alive) continue;
    children.push_back({e.id, s.alpha + 1});
  }
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
  // Each pin went as its subtree acknowledged, and the start node
  // acknowledges last.
  for (const auto& [node, v] : s.visits)
    TAP_ASSERT_MSG(v.awaiting == 0, "a reached node is still awaiting acks");

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
  s.done_time = events_.now();
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
