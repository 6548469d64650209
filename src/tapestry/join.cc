// Node insertion (paper §4, Figure 7) built on the incremental
// nearest-neighbor algorithm (paper §3, Figure 4).
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
#include "src/tapestry/maintenance.h"

#include <algorithm>

namespace tap {

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
  std::vector<NodeId> ids = reg_.node_ids();
  const NodeId gateway = ids[rng_.next_u64(ids.size())];
  return join_via(gateway, loc, id, trace);
}

NodeId MaintenanceEngine::join_via(NodeId gateway, Location loc,
                                   std::optional<NodeId> id, Trace* trace) {
  TAP_CHECK(reg_.is_live(gateway), "gateway must be a live node");
  NodeId nid = id.has_value() ? *id : reg_.fresh_node_id();
  TAP_CHECK(reg_.find(nid) == nullptr, "node id already in use");

  // 1. ACQUIREPRIMARYSURROGATE: route from the gateway toward the new ID;
  //    the root reached is the surrogate (the node whose ID shares the
  //    longest existing prefix with ours).
  const RouteResult rr = router_.route_to_root(gateway, nid, trace);
  const NodeId surrogate_id = rr.root;

  TapestryNode& nn = reg_.register_node(nid, loc);
  nn.inserting = true;
  nn.psurrogate = surrogate_id;
  TapestryNode& sur = reg_.live(surrogate_id);
  const unsigned alpha = nid.common_prefix_len(sur.id());

  // 2. GETPRELIMNEIGHBORTABLE: one bulk RPC for the surrogate's table.
  copy_preliminary_table(nn, sur, alpha, trace);

  // 3. ACKNOWLEDGEDMULTICAST(α, LINKANDXFERROOT): reach every α-node.  The
  //    new node is excluded from forwarding — it may already appear in
  //    tables updated earlier in the walk.
  std::vector<NodeId> alpha_nodes;
  router_.multicast(
      surrogate_id, nid, alpha,
      [&](NodeId y) {
        alpha_nodes.push_back(y);
        link_and_xfer_root(reg_.live(y), nn, trace);
      },
      trace, {nid});

  // 4. Build the neighbor table level by level, reusing the multicast
  //    result as the first (level-α) list.  Pointers transferred to the
  //    new node during step 3 are re-checked after its table settles.
  const auto before = dir_.snapshot_pointer_hops(nn);
  acquire_neighbor_table(nn, alpha, std::move(alpha_nodes), trace);
  dir_.reroute_changed_pointers(nn, before, trace);

  nn.inserting = false;
  nn.psurrogate.reset();
  return nid;
}

void MaintenanceEngine::copy_preliminary_table(TapestryNode& nn,
                                               TapestryNode& surrogate,
                                               unsigned max_level,
                                               Trace* trace) {
  reg_.acct(trace, nn, surrogate, 2);  // request + bulk reply
  // Rows 0..max_level of the surrogate hold nodes sharing the corresponding
  // prefix of the surrogate's ID, which equals ours up to max_level — all
  // valid candidates for the same rows of our table.
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l <= max_level && l < digits; ++l) {
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      for (const auto& e : surrogate.table().at(l, j).entries()) {
        if (e.id == nn.id()) continue;
        if (TapestryNode* cand = reg_.find(e.id);
            cand != nullptr && cand->alive)
          link(reg_, nn, l, *cand);
      }
    }
  }
  add_to_table_if_closer(reg_, nn, surrogate);
}

void MaintenanceEngine::link_and_xfer_root(TapestryNode& host,
                                           TapestryNode& nn, Trace* trace) {
  if (host.id() == nn.id()) return;
  // Snapshot next hops, update the table, then re-route any pointer whose
  // path changed (this transfers to the new node the pointers it is now
  // root of, and deposits them along the new paths — §4.2).
  const auto before = dir_.snapshot_pointer_hops(host);
  add_to_table_if_closer(reg_, host, nn);
  dir_.reroute_changed_pointers(host, before, trace);
}

std::vector<NodeId> trim_closest_candidates(const NodeRegistry& reg,
                                            const TapestryNode& nn,
                                            std::vector<NodeId> list,
                                            std::size_t k) {
  // Dedupe, drop dead nodes and the node itself, order by distance.
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

std::vector<NodeId> MaintenanceEngine::trim_closest(const TapestryNode& nn,
                                                    std::vector<NodeId> list,
                                                    std::size_t k) const {
  return trim_closest_candidates(reg_, nn, std::move(list), k);
}

void MaintenanceEngine::build_row_from_list(TapestryNode& nn,
                                            const std::vector<NodeId>& list,
                                            unsigned level) {
  for (const NodeId& x : list) {
    if (x == nn.id() || !reg_.is_live(x)) continue;
    TapestryNode& cand = reg_.live(x);
    TAP_ASSERT_MSG(nn.id().common_prefix_len(x) >= level,
                   "candidate does not share the row prefix");
    link(reg_, nn, level, cand);
  }
}

std::vector<NodeId> MaintenanceEngine::get_next_list(
    TapestryNode& nn, const std::vector<NodeId>& list, unsigned level,
    std::unordered_set<std::uint64_t>& contacted, Trace* trace) {
  std::vector<NodeId> candidates;
  for (const NodeId& m : list) {
    if (!reg_.is_live(m)) continue;
    TapestryNode& member = reg_.live(m);
    reg_.acct(trace, nn, member, 2);  // GETFORWARDANDBACKPOINTERS round trip
    for (const NodeId& x : member.table().row_members(level))
      candidates.push_back(x);
    for (const NodeId& x : member.table().backpointers(level))
      candidates.push_back(x);
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
    if (contacted.insert(x.value()).second) {
      TapestryNode& cand = reg_.live(x);
      reg_.acct(trace, nn, cand, 2);  // distance probe round trip
      link_and_xfer_root(cand, nn, trace);
    }
  }
  return candidates;
}

void MaintenanceEngine::acquire_neighbor_table(TapestryNode& nn,
                                               unsigned max_level,
                                               std::vector<NodeId> initial_list,
                                               Trace* trace) {
  const std::size_t k = params_.effective_k(reg_.live_count());
  std::unordered_set<std::uint64_t> contacted;
  for (const NodeId& x : initial_list) contacted.insert(x.value());

  // Level max_level: the multicast already visited every α-node, so the
  // initial candidate set is complete by construction.
  build_row_from_list(nn, initial_list, max_level);
  std::vector<NodeId> list = trim_closest(nn, std::move(initial_list), k);

  for (unsigned level = max_level; level-- > 0;) {
    std::vector<NodeId> candidates =
        get_next_list(nn, list, level, contacted, trace);
    build_row_from_list(nn, candidates, level);
    list = trim_closest(nn, std::move(candidates), k);
  }
}

}  // namespace tap
