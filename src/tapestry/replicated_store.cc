#include "src/tapestry/replicated_store.h"

#include <algorithm>

#include "src/common/assert.h"
#include "src/sim/metrics.h"
#include "src/tapestry/registry.h"
#include "src/tapestry/routing_table.h"

namespace tap {

namespace {

// A holder candidate.  Both holder searches rank by (distance, id): ties
// break toward the smaller id, so a result is a pure function of the
// membership whatever the visit order.
struct Candidate {
  double d;
  NodeId id;
};

bool closer(const Candidate& a, const Candidate& b) {
  if (a.d != b.d) return a.d < b.d;
  return a.id < b.id;
}

/// Offers `c` to `best`, the sorted (up to) k closest candidates so far.
void keep_nearest(std::vector<Candidate>& best, std::size_t k,
                  const Candidate& c) {
  if (best.size() == k && !closer(c, best.back())) return;
  best.insert(std::upper_bound(best.begin(), best.end(), c, closer), c);
  if (best.size() > k) best.pop_back();
}

std::vector<NodeId> ids_of(const std::vector<Candidate>& best) {
  std::vector<NodeId> out;
  out.reserve(best.size());
  for (const Candidate& c : best) out.push_back(c.id);
  return out;
}

}  // namespace

QuorumReplicator::QuorumReplicator(NodeRegistry& registry,
                                   const TapestryParams& params)
    : reg_(registry), params_(params) {
  const ReplicationParams& rp = params.replication;
  TAP_CHECK(rp.k >= 1 && rp.w >= 1 && rp.r >= 1,
            "replication k/w/r must all be at least 1");
  TAP_CHECK(rp.w <= rp.k && rp.r <= rp.k,
            "replication quorums w and r cannot exceed k");
  TAP_CHECK(rp.w + rp.r > rp.k,
            "replication needs w + r > k so reads intersect writes");
}

std::vector<NodeId> QuorumReplicator::nearest_live(
    const TapestryNode& anchor, std::size_t k,
    const std::vector<NodeId>& taken) const {
  // One pass over the registry keeping a sorted top-k.
  std::vector<Candidate> best;
  best.reserve(k + 1);
  const MetricSpace& space = reg_.space();
  for (const auto& n : reg_.nodes()) {
    if (!n->alive || n->id() == anchor.id()) continue;
    if (std::find(taken.begin(), taken.end(), n->id()) != taken.end())
      continue;
    keep_nearest(best, k,
                 Candidate{space.distance(anchor.location(), n->location()),
                           n->id()});
  }
  return ids_of(best);
}

std::optional<std::vector<NodeId>> QuorumReplicator::nearest_in_table(
    const TapestryNode& root, std::size_t k) const {
  // Property 2: a full slot holds the R closest members of its class, a
  // non-full one the whole class (Property 1).  Each of the k <= R nearest
  // nodes is among the R closest of its class (l, j) — the root shares
  // exactly l digits with it — so it fills slot (l, j) of the root's table.
  if (k > params_.redundancy) return std::nullopt;
  const RoutingTable& table = root.table();
  const MetricSpace& space = reg_.space();
  thread_local std::vector<Candidate> best;
  best.clear();
  // The nearest of the farthest members of full slots holding a corpse:
  // those classes may keep live members beyond the slot, so the walk is
  // exact only if its k-th candidate is strictly closer than this.
  std::optional<Candidate> bound;
  for (unsigned l = 0; l < table.levels(); ++l) {
    const std::uint64_t row = table.row_mask(l);
    const unsigned own = root.id().digit(l);
    for (unsigned j = occ::next(row, 0); j != occ::kNone;
         j = occ::next(row, j + 1)) {
      // Own-digit members share another digit with the root, so they also
      // sit in a deeper row.
      if (j == own) continue;
      const NeighborSet slot = table.at(l, j);
      const bool full = slot.size() >= slot.capacity();
      bool corpse = false;
      Candidate farthest{-1.0, NodeId{}};
      for (const NeighborEntry& e : slot.entries()) {
        // A pin sits outside the capacity, so the slot bounds nothing.
        if (slot.pinned(e.id)) return std::nullopt;
        const TapestryNode* n = reg_.find(e.id);
        TAP_ASSERT(n != nullptr);
        corpse = corpse || !n->alive;
        if (!n->alive && !full) continue;  // a non-full slot hides nothing
        const Candidate c{space.distance(root.location(), n->location()),
                          e.id};
        if (closer(farthest, c)) farthest = c;
        if (n->alive) keep_nearest(best, k, c);
      }
      if (full && corpse && (!bound.has_value() || closer(farthest, *bound)))
        bound = farthest;
    }
    // Nodes linking to the root where they first differ from it.  Dynamic
    // joins keep Property 2 only approximately: a close newcomer can list
    // the root without the root's slot ever taking it in.
    for (const NodeId& b : table.backpointers(l)) {
      if (b.digit(l) == own || table.at(l, b.digit(l)).contains(b)) continue;
      const TapestryNode* n = reg_.find(b);
      if (n != nullptr && n->alive)
        keep_nearest(best, k,
                     Candidate{space.distance(root.location(), n->location()),
                               b});
    }
  }
  if (best.size() < k) return std::nullopt;
  if (bound.has_value() && !closer(best.back(), *bound)) return std::nullopt;
  return ids_of(best);
}

std::vector<NodeId>& QuorumReplicator::holder_set(const TapestryNode& root,
                                                  const Guid& target) {
  const auto it = holder_sets_.find(target);
  if (it != holder_sets_.end()) return it->second;
  // First mirror for this (salted) guid: the k live nodes nearest to the
  // root, excluding the root itself — read off the root's own table unless
  // the walk cannot prove it found them.
  const std::size_t k = params_.replication.k;
  std::optional<std::vector<NodeId>> holders = nearest_in_table(root, k);
  if (!holders.has_value()) {
    holders = nearest_live(root, k, {});
    ++stats_.holder_scans;
  }
  return holder_sets_.emplace(target, std::move(*holders)).first->second;
}

std::size_t QuorumReplicator::mirror_publish(const TapestryNode& root,
                                             const Guid& target,
                                             const PointerRecord& rec,
                                             Trace* trace) {
  std::size_t acks = 0;
  for (const NodeId& h : holder_set(root, target)) {
    TapestryNode* node = reg_.find(h);
    if (node == nullptr || !node->alive) continue;
    if (!reg_.reachable(root.id(), h)) continue;
    const double d = reg_.hop_dist(trace, root, *node);
    Message w = make_message(MessageKind::kReplicaWrite, root.id(), h, target);
    w.set_record(rec);
    w = transport_->send(w, d, trace);
    replicas_at(h).upsert(target, w.record());
    Message ack =
        make_message(MessageKind::kReplicaWriteAck, h, root.id(), target);
    ack.flag = true;
    transport_->send(ack, d, trace);
    metrics::replica_writes_total().inc();
    ++stats_.replica_writes;
    ++acks;
  }
  return acks;
}

void QuorumReplicator::mirror_remove(const TapestryNode& root,
                                     const Guid& target, const NodeId& server,
                                     Trace* trace) {
  const auto it = holder_sets_.find(target);
  if (it == holder_sets_.end()) return;
  for (const NodeId& h : it->second) {
    TapestryNode* node = reg_.find(h);
    if (node == nullptr || !node->alive) continue;
    if (!reg_.reachable(root.id(), h)) continue;
    Message m =
        make_message(MessageKind::kReplicaRemove, root.id(), h, target);
    m.server = server;  // nobody acks the removal
    m = transport_->send(m, reg_.hop_dist(trace, root, *node), trace);
    replicas_at(h).remove(target, m.server);
  }
  if (!held(target, it->second)) drop_set(it);
}

std::vector<PointerRecord> QuorumReplicator::quorum_read(
    const TapestryNode& root, const Guid& target, double now, Trace* trace) {
  const auto it = holder_sets_.find(target);
  if (it == holder_sets_.end()) return {};
  metrics::replica_quorum_reads_total().inc();
  ++stats_.quorum_reads;

  // Probe holders in set order until R respond.  A live reachable holder
  // with no record is still a response — "I have nothing" is an answer,
  // and with w + r > k a fresh copy is guaranteed among any r answers
  // when the write quorum was met.
  struct Responder {
    TapestryNode* node;
    MemoryStore* area;
    std::vector<PointerRecord> records;
  };
  std::vector<Responder> responders;
  for (const NodeId& h : it->second) {
    if (responders.size() >= params_.replication.r) break;
    TapestryNode* node = reg_.find(h);
    if (node == nullptr || !node->alive) continue;
    if (!reg_.reachable(root.id(), h)) continue;
    MemoryStore& area = replicas_at(h);
    const double d = reg_.hop_dist(trace, root, *node);
    transport_->send(
        make_message(MessageKind::kReplicaRead, root.id(), h, target), d,
        trace);
    Message reply =
        make_message(MessageKind::kReplicaReadReply, h, root.id(), target);
    reply.records = area.find_all(target);
    reply = transport_->send(reply, d, trace);
    responders.push_back(Responder{node, &area, std::move(reply.records)});
  }

  // Merge: freshest live record per server wins — consuming the copies
  // that travelled back through the wire, not the holder's area directly.
  std::map<NodeId, PointerRecord> merged;
  for (const Responder& r : responders) {
    for (const PointerRecord& rec : r.records) {
      if (rec.expires_at < now) continue;
      auto [mit, inserted] = merged.emplace(rec.server, rec);
      if (!inserted && rec.expires_at > mit->second.expires_at) {
        mit->second = rec;
      }
    }
  }
  if (merged.empty()) return {};

  // Read-repair: every responder whose copy of a merged record is stale
  // or missing gets the fresh one pushed back.
  for (const Responder& r : responders) {
    for (const auto& [server, rec] : merged) {
      const auto have = r.area->find(target, server);
      if (have.has_value() && have->expires_at >= rec.expires_at) continue;
      Message w = make_message(MessageKind::kReplicaWrite, root.id(),
                               r.node->id(), target);
      w.set_record(rec);
      w = transport_->send(w, reg_.hop_dist(trace, root, *r.node), trace);
      r.area->upsert(target, w.record());
      metrics::replica_read_repairs_total().inc();
      ++stats_.read_repairs;
    }
  }

  std::vector<PointerRecord> out;
  out.reserve(merged.size());
  for (const auto& [server, rec] : merged) out.push_back(rec);
  return out;
}

void QuorumReplicator::on_node_death(const NodeId& dead) {
  areas_.erase(dead);
  for (auto it = holder_sets_.begin(); it != holder_sets_.end();) {
    auto& [target, holders] = *it;
    const auto pos = std::find(holders.begin(), holders.end(), dead);
    if (pos == holders.end()) {
      ++it;
      continue;
    }
    // Nothing left worth keeping: no surviving mirror names a live server.
    if (!held(target, holders)) {
      it = drop_set(it);
      continue;
    }

    // Replacement: the live node nearest to the dead holder (its tombstone
    // keeps the location) that is not already in the set.
    const std::vector<NodeId> next =
        nearest_live(reg_.checked(dead), 1, holders);
    if (next.empty()) {  // overlay too small to keep k holders; shrink the set
      holders.erase(pos);
      ++it;
      continue;
    }
    const NodeId best = next.front();
    *pos = best;

    // Copy the merged surviving records of live servers onto the
    // replacement so the set is back to full strength before the next
    // failure.
    std::map<NodeId, PointerRecord> merged;
    for (const NodeId& h : holders) {
      if (h == best) continue;
      TapestryNode* node = reg_.find(h);
      if (node == nullptr || !node->alive) continue;
      for (const PointerRecord& rec : replicas_at(h).find_all(target)) {
        if (!reg_.is_live(rec.server)) continue;
        auto [mit, inserted] = merged.emplace(rec.server, rec);
        if (!inserted && rec.expires_at > mit->second.expires_at) {
          mit->second = rec;
        }
      }
    }
    MemoryStore& dst = replicas_at(best);
    for (const auto& [server, rec] : merged) dst.upsert(target, rec);
    metrics::replica_rereplications_total().inc();
    ++stats_.rereplications;
    ++it;
  }
}

void QuorumReplicator::remove_expired(double now) {
  for (auto& [holder, area] : areas_)
    if (reg_.is_live(holder)) area.remove_expired(now);
  for (auto it = holder_sets_.begin(); it != holder_sets_.end();)
    it = held(it->first, it->second) ? std::next(it) : drop_set(it);
}

bool QuorumReplicator::held(const Guid& target,
                            const std::vector<NodeId>& holders) const {
  bool any = false;
  for (const NodeId& h : holders)
    if (const auto a = areas_.find(h); a != areas_.end())
      a->second.for_each_of(target,
                            [&](const Guid&, const PointerRecord& rec) {
                              any = any || reg_.is_live(rec.server);
                            });
  return any;
}

QuorumReplicator::HolderSets::iterator QuorumReplicator::drop_set(
    HolderSets::iterator it) {
  for (const NodeId& h : it->second)
    if (const auto a = areas_.find(h); a != areas_.end())
      for (const PointerRecord& rec : a->second.find_all(it->first))
        a->second.remove(it->first, rec.server);
  return holder_sets_.erase(it);
}

const std::vector<NodeId>* QuorumReplicator::holders(
    const Guid& target) const {
  const auto it = holder_sets_.find(target);
  return it == holder_sets_.end() ? nullptr : &it->second;
}

}  // namespace tap
