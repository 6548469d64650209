// Object publication / location (§2.2), soft state (§6.5), and the
// object-pointer redistribution of §4.2 (Figure 9).
//
// Redistribution: when the routing mesh changes the expected path from some
// object to its root (a closer primary was adopted, a node vanished, a new
// node filled a hole), the node whose forward route changed pushes the
// object pointer up the *new* path.  Where the new path meets the old one —
// detected by finding an existing record whose last-hop differs — a delete
// message walks the old path backward via the stored last-hop links,
// removing the outdated pointers (DELETEPOINTERSBACKWARD).  This keeps
// Property 4 without republish-from-scratch traffic; plain soft-state
// republish remains as the backstop (§6.5).
#include "src/tapestry/object_directory.h"

#include <algorithm>
#include <limits>

#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/replicated_store.h"
#include "src/tapestry/sharded_store.h"

namespace tap {

ObjectDirectory::ObjectDirectory(NodeRegistry& registry, Router& router,
                                 const TapestryParams& params,
                                 EventQueue& events, Rng& rng)
    : reg_(registry), router_(router), params_(params), events_(events),
      rng_(rng),
      cache_(params.locate_cache_size,
             [&registry](const NodeId& id) { return registry.is_live(id); }) {
  if (params.store_backend == StoreBackend::kReplicated ||
      params.store_backend == StoreBackend::kReplicatedPersistent) {
    replicator_ = std::make_unique<QuorumReplicator>(registry, params);
  }
}

ObjectDirectory::~ObjectDirectory() = default;

void ObjectDirectory::bind_transport(Transport* transport) noexcept {
  transport_ = transport;
  if (replicator_) replicator_->bind_transport(transport);
}

void ObjectDirectory::on_node_death(const NodeId& id) {
  cache_.drop_node(id);
  if (replicator_) replicator_->on_node_death(id);
}

// ---------------------------------------------------------------------
// Operation records
// ---------------------------------------------------------------------
//
// A publish or a locate is a record plus a step function.  Each step is
// what one node does when the operation's message arrives — act, then
// forward — and returns the delay until the next step (the message's
// flight time, or 0 for a hand-off between phases).  The synchronous
// engine loops the steps inline; the event engine runs one step per
// EventQueue event, so anything may happen in between — hence steps keep
// no node pointers across calls: the carrier may have died meanwhile.

struct ObjectDirectory::PublishOp {
  NodeId server{};
  Guid base{};
  unsigned salt = 0;  // root-name paths started so far (§2.2)
  bool finished = false;
  // Per-path cursor (reset by next_publish_path).  The record a node
  // deposits is exactly the payload of the publish message that arrived
  // there (the server starts the chain locally).
  Guid target{};
  NodeId cur{};
  RouteState state{};
  PointerRecord arriving{};
  // Costs land in *trace: the caller's (sync) or `own` (event, absorbed
  // into `external` at completion).
  Trace own;
  Trace* trace = nullptr;
  Trace* external = nullptr;
  PublishCallback done;
};

struct ObjectDirectory::LocateOp {
  // walk: surrogate-route toward the root name, checking each node's
  //   store and locate cache (§2.2, §2.3);
  // cache-verify: a cache hit jumped to the remembered holder, whose real
  //   store is re-read on arrival (hotspot.h);
  // replica-leg: a pointer was found; route to the replica it names;
  // done: `res` is final.
  enum class Phase { kWalk, kCacheVerify, kReplicaLeg, kDone };
  Phase phase = Phase::kWalk;
  Guid base{};
  NodeId client{};
  unsigned first_salt = 0;
  unsigned attempts = 1;
  unsigned attempt = 0;  // attempts started so far
  // Per-attempt cursor (reset by next_locate_attempt).
  Guid target{};
  NodeId cur{};
  RouteState state{};
  Router::ExcludeSet excluded{};  // inserting nodes bounced off (Figure 10)
  // Nodes this attempt's walk has passed through; on success each one gets
  // a locate-cache hint pointing at the resolving holder.
  std::vector<NodeId> path{};
  // Loop guard (§4.3): path[walk_start..] is the walk since the attempt
  // began or last bounced off an inserting node (Figure 10), and a node
  // already in it is a revisit.
  std::size_t walk_start = 0;
  // cache-verify: the query jumped from cache_from toward cache_holder;
  // the hint's salted name rides along (it may differ from `target`).
  Guid cache_target{};
  NodeId cache_holder{};
  NodeId cache_from{};
  // replica-leg (§2.2, Figure 3): exact-id route toward the replica.
  NodeId replica{};
  RouteState leg_state{};
  // `sent` books the messages the query itself sends (walk hops, cache
  // jumps and bounce-backs, §2.4 probes and replies, surrogate bounces,
  // the quorum read with its read-repair, the replica leg): the result's
  // hops and latency, absorbed into *trace at completion.  The lazy
  // repair a routing step triggers books on *trace directly, outside the
  // hops, as RouteResult counts only a walk's forwards.
  Trace sent;
  Trace own;
  Trace* trace = nullptr;
  Trace* external = nullptr;  // event engine: absorbs `own` at completion
  LocateCallback done;
  LocateResult res{};
};

double ObjectDirectory::hop_delay(const TapestryNode& a,
                                  const TapestryNode& b) const {
  return reg_.dist(a, b) * params_.hop_delay_scale;
}

PointerRecord ObjectDirectory::carry_pointer(MessageKind kind,
                                             const TapestryNode& from,
                                             const TapestryNode& to,
                                             const Guid& target,
                                             const PointerRecord& rec,
                                             Trace* trace) const {
  Message m = make_message(kind, from.id(), to.id(), target);
  m.set_record(rec);
  return transport_->send(m, reg_.hop_dist(trace, from, to), trace).record();
}

TapestryNode* ObjectDirectory::live_secondary(const TapestryNode& at,
                                              const NodeId& member,
                                              const NodeId& primary) const {
  if (member == primary || member == at.id()) return nullptr;
  TapestryNode* m = reg_.find(member);
  if (m == nullptr || !m->alive || !reg_.reachable(at.id(), member))
    return nullptr;
  return m;
}

void ObjectDirectory::register_replica(const Guid& guid, const NodeId& server) {
  auto& servers = replicas_[guid];
  if (std::find(servers.begin(), servers.end(), server) == servers.end())
    servers.push_back(server);
}

// ---------------------------------------------------------------------
// Publish / unpublish
// ---------------------------------------------------------------------

double ObjectDirectory::next_publish_path(PublishOp& op) {
  if (op.salt == params_.root_multiplicity || !reg_.is_live(op.server)) {
    op.finished = true;
    return 0.0;
  }
  op.target = salted_guid(op.base, op.salt++);
  op.cur = op.server;
  op.state = RouteState{};
  op.arriving = PointerRecord{op.server, std::nullopt, 0, false,
                              events_.now() + params_.pointer_ttl};
  return 0.0;
}

double ObjectDirectory::publish_step(PublishOp& op) {
  TapestryNode* cur = reg_.find(op.cur);
  if (cur == nullptr || !cur->alive) {
    // The carrier died under the message: this path is lost; soft-state
    // republish restores it (§6.5).  Continue with the next root name.
    return next_publish_path(op);
  }
  cur->store().upsert(op.target, op.arriving);
  auto next = router_.route_step(*cur, op.target, op.state, op.trace);
  if (!next.has_value()) {  // cur is the root
    if (replicator_)
      replicator_->mirror_publish(*cur, op.target, op.arriving, op.trace);
    return next_publish_path(op);
  }
  // §2.4 PRR variant: also deposit on the secondaries of the slot being
  // routed through ("equivalent to publishing on all the secondary
  // neighbors"); queries under the same flag probe those secondaries.
  const PointerRecord sent{op.server, cur->id(), op.state.level,
                           op.state.past_hole, op.arriving.expires_at};
  if (params_.prr_secondary_search && op.state.level >= 1) {
    const unsigned slot_level = op.state.level - 1;
    const unsigned digit = next->digit(slot_level);
    for (const auto& member : cur->table().at(slot_level, digit).entries())
      if (TapestryNode* m = live_secondary(*cur, member.id, *next))
        m->store().upsert(op.target,
                          carry_pointer(MessageKind::kPublishDeposit, *cur, *m,
                                        op.target, sent, op.trace));
  }
  TapestryNode& nxt = reg_.live(*next);
  op.arriving = carry_pointer(MessageKind::kPublishDeposit, *cur, nxt,
                              op.target, sent, op.trace);
  op.state.level = op.arriving.level;
  op.state.past_hole = op.arriving.past_hole;
  op.cur = nxt.id();
  return hop_delay(*cur, nxt);
}

void ObjectDirectory::publish_paths(NodeId server, const Guid& guid,
                                    Trace* trace) {
  PublishOp op;
  op.server = server;
  op.base = guid;
  op.trace = trace;
  next_publish_path(op);
  while (!op.finished) publish_step(op);
}

void ObjectDirectory::publish(NodeId server, const Guid& guid, Trace* trace) {
  (void)reg_.live(server);
  TAP_CHECK(guid.valid() && guid.spec() == params_.id,
            "guid does not match the network's IdSpec");
  metrics::publish_total().inc();
  publish_paths(server, guid, trace);
  register_replica(guid, server);
}

void ObjectDirectory::publish_batch(const std::vector<PublishRequest>& batch,
                                    std::size_t workers, Trace* trace) {
  if (batch.empty()) return;
  if (params_.prr_secondary_search) {
    // Secondary deposits mutate neighbor stores mid-walk; keep the serial
    // semantics rather than complicating the concurrent drain.
    for (const PublishRequest& r : batch) publish(r.server, r.guid, trace);
    return;
  }

  // Phase 0 (serial): validate and register every replica in batch order.
  for (const PublishRequest& r : batch) {
    TAP_CHECK(r.guid.valid() && r.guid.spec() == params_.id,
              "guid does not match the network's IdSpec");
    TAP_CHECK(reg_.is_live(r.server), "publish_batch: server must be alive");
    register_replica(r.guid, r.server);
  }
  const double expires = events_.now() + params_.pointer_ttl;

  // One task per (request, salt), grouped by the salted guid's leading
  // digit: every path in a group converges into the same root region.
  struct Task {
    NodeId server{};
    Guid target{};
  };
  struct Deposit {
    TapestryNode* at = nullptr;
    PointerRecord rec{};
  };
  const unsigned radix = params_.id.radix();
  // Tasks stay in request order — every later phase applies effects in
  // task order, which makes the result match the serial publish loop
  // (down to store iteration order; trace latency up to floating-point
  // summation order).  The per-root groups
  // only schedule phase 1: group g holds the indices of the tasks whose
  // salted guid leads with digit g, the root region their paths share.
  std::vector<Task> tasks;
  std::vector<std::vector<std::size_t>> groups(radix);
  for (const PublishRequest& r : batch) {
    for (unsigned salt = 0; salt < params_.root_multiplicity; ++salt) {
      const Guid target = salted_guid(r.guid, salt);
      groups[target.digit(0)].push_back(tasks.size());
      tasks.push_back(Task{r.server, target});
    }
  }
  const std::size_t n_tasks = tasks.size();

  // Phase 1: walk every publish path with the mutation-free peek router —
  // any number of threads may read the quiescent mesh — collecting the
  // deposits and per-task cost accounting.  Drained group by group.
  std::vector<std::vector<Deposit>> deposits(n_tasks);
  std::vector<Trace> task_traces(n_tasks);
  parallel_for(
      radix,
      [&](std::size_t d) {
        for (const std::size_t t : groups[d]) {
          const Task& task = tasks[t];
          TapestryNode* cur = &reg_.live(task.server);
          RouteState state;
          // As in publish_step: each deposit is the payload of the publish
          // message that arrived at the depositing node.
          PointerRecord arriving{task.server, std::nullopt, 0, false,
                                 expires};
          for (;;) {
            deposits[t].push_back(Deposit{cur, arriving});
            const auto next =
                router_.route_step_peek(*cur, task.target, state);
            if (!next.has_value()) break;  // cur is the root
            TapestryNode* nxt = reg_.find(*next);
            TAP_ASSERT(nxt != nullptr);
            arriving = carry_pointer(
                MessageKind::kPublishDeposit, *cur, *nxt, task.target,
                PointerRecord{task.server, cur->id(), state.level,
                              state.past_hole, expires},
                &task_traces[t]);
            cur = nxt;
          }
        }
      },
      workers);

  // Phase 2: drain the deposits concurrently.  The safety partition
  // depends on the backend: a plain store may only be touched by one
  // worker at a time, so deposits group by a hash of the receiving node
  // into kNodeGroups groups.  A striped backend (ShardedStore)
  // additionally splits each node group's work by the target guid's lock
  // stripe — workers hitting the same node's store then always hold
  // different stripes, so up to kNodeGroups * kStripeCount groups drain
  // at once instead of serializing whole node groups.  Either way a given
  // (node, guid) pair always lands in exactly one group and each group
  // applies its deposits in task order, so the store contents match the
  // serial publish loop record for record, whatever the worker count.
  constexpr std::size_t kNodeGroups = 16;
  const std::size_t stripes =
      params_.store_backend == StoreBackend::kSharded
          ? ShardedStore::kStripeCount
          : 1;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_group(
      kNodeGroups * stripes);  // (task, deposit) indices
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const std::size_t stripe =
        stripes == 1 ? 0 : ShardedStore::stripe_of(tasks[t].target);
    for (std::size_t k = 0; k < deposits[t].size(); ++k) {
      const std::size_t node_group =
          splitmix64(deposits[t][k].at->id().value()) & (kNodeGroups - 1);
      by_group[node_group * stripes + stripe].emplace_back(t, k);
    }
  }
  parallel_for(
      by_group.size(),
      [&](std::size_t g) {
        for (const auto& [t, k] : by_group[g]) {
          const Deposit& dep = deposits[t][k];
          dep.at->store().upsert(tasks[t].target, dep.rec);
        }
      },
      workers);

  // Phase 3 (serial): mirror each root deposit to the root's quorum
  // holders in task order, as publish_step does at the end of each path.
  if (replicator_)
    for (std::size_t t = 0; t < n_tasks; ++t) {
      const Deposit& at_root = deposits[t].back();
      replicator_->mirror_publish(*at_root.at, tasks[t].target, at_root.rec,
                                  &task_traces[t]);
    }

  // Accounting lands in task order, independent of phase scheduling.
  if (trace != nullptr)
    for (const Trace& t : task_traces) trace->absorb(t);
}

void ObjectDirectory::unpublish_one(TapestryNode& server, const Guid& salted,
                                    Trace* trace) {
  RouteState state;
  TapestryNode* cur = &server;
  // The server named by the withdrawal rides the wire from hop to hop.
  NodeId victim = server.id();
  for (;;) {
    cur->store().remove(salted, victim);
    auto next = router_.route_step(*cur, salted, state, trace);
    if (!next.has_value()) {  // cur is the root
      if (replicator_) {
        replicator_->mirror_remove(*cur, salted, victim, trace);
      }
      break;
    }
    if (params_.prr_secondary_search && state.level >= 1) {
      // Withdraw the secondary-deposited copies symmetrically.
      const unsigned slot_level = state.level - 1;
      const unsigned digit = next->digit(slot_level);
      for (const auto& member : cur->table().at(slot_level, digit).entries())
        if (TapestryNode* m = live_secondary(*cur, member.id, *next))
          m->store().remove(salted,
                            carry_pointer(MessageKind::kUnpublish, *cur, *m,
                                          salted, PointerRecord{victim}, trace)
                                .server);
    }
    TapestryNode& nxt = reg_.live(*next);
    victim = carry_pointer(MessageKind::kUnpublish, *cur, nxt, salted,
                           PointerRecord{victim}, trace)
                 .server;
    cur = &nxt;
  }
}

void ObjectDirectory::unpublish(NodeId server, const Guid& guid,
                                Trace* trace) {
  TapestryNode& s = reg_.checked(server);
  metrics::unpublish_total().inc();
  for (unsigned salt = 0; salt < params_.root_multiplicity; ++salt)
    unpublish_one(s, salted_guid(guid, salt), trace);
  auto it = replicas_.find(guid);
  if (it != replicas_.end()) {
    auto& servers = it->second;
    servers.erase(std::remove(servers.begin(), servers.end(), server),
                  servers.end());
    if (servers.empty()) replicas_.erase(it);
  }
  // A cached hint naming the withdrawn replica stays where it is: the next
  // query that reads it jumps to the holder, finds no live record there,
  // drops it and resumes the walk (cache-verify), booking the detour on
  // that query as a deployment would.
}

// ---------------------------------------------------------------------
// Locate
// ---------------------------------------------------------------------

std::optional<PointerRecord> ObjectDirectory::pick_live_replica(
    TapestryNode& holder, const Guid& target,
    const TapestryNode& relative_to) {
  // Prefer the replica closest to the reference node (§2.2); prune
  // pointers to dead servers that would have been examined on the way to
  // it (lazy soft-state decay).  One visitor pass over the backend instead
  // of copy-and-sort: the winner is the live record minimizing
  // (distance, server), and a dead record is pruned iff its key sorts
  // ahead of the winner's — exactly the records the old sorted loop
  // stepped over.  Each record's distance is computed once.
  const double now = events_.now();
  std::optional<PointerRecord> best;
  double best_d = 0.0;
  struct DeadRecord {
    double d;
    NodeId server;
  };
  std::vector<DeadRecord> dead;  // removal deferred: the visitor must not
                                 // mutate the store it is iterating
  holder.store().for_each_of(
      target, [&](const Guid&, const PointerRecord& r) {
        if (r.expires_at < now) return;  // expired records are invisible
        // A replica on the far side of an active partition is unavailable
        // but *alive*: skip it without pruning — its record must survive
        // the cut so healing restores it for free.
        if (!reg_.reachable(holder.id(), r.server)) return;
        const double d = reg_.distance(relative_to.id(), r.server);
        if (reg_.is_live(r.server)) {
          if (!best.has_value() || d < best_d ||
              (d == best_d && r.server < best->server)) {
            best = r;
            best_d = d;
          }
        } else {
          dead.push_back(DeadRecord{d, r.server});
        }
      });
  for (const auto& dr : dead) {
    if (best.has_value() &&
        !(dr.d < best_d || (dr.d == best_d && dr.server < best->server)))
      continue;  // sorts after the winner: the old loop never reached it
    holder.store().remove(target, dr.server);
  }
  return best;
}

double ObjectDirectory::next_locate_attempt(LocateOp& op) {
  if (op.attempt == op.attempts) {
    // Every root name missed.  A failed final leg may have left
    // pointer_node/server populated; a miss must not leak a stale "last
    // known location".
    op.res = LocateResult{};
    finish_locate(op);
    return 0.0;
  }
  const unsigned salt =
      (op.first_salt + op.attempt++) % params_.root_multiplicity;
  op.target = salted_guid(op.base, salt);
  op.cur = op.client;
  op.state = RouteState{};
  op.excluded.clear();
  op.path.clear();
  op.walk_start = 0;
  op.res = LocateResult{};
  op.phase = LocateOp::Phase::kWalk;
  return 0.0;
}

double ObjectDirectory::start_locate(LocateOp& op, NodeId client,
                                     const Guid& guid, Trace* sink) {
  op.base = guid;
  op.client = client;
  // "At the beginning of the query, we select a root randomly from R_psi."
  op.first_salt = params_.root_multiplicity == 1
                      ? 0
                      : static_cast<unsigned>(
                            rng_.next_u64(params_.root_multiplicity));
  // Observation 1: when enabled, a miss retries the remaining independent
  // root names, accumulating cost; the first hit wins.
  op.attempts = params_.retry_all_roots ? params_.root_multiplicity : 1;
  op.trace = sink != nullptr ? sink : &op.own;
  return next_locate_attempt(op);
}

void ObjectDirectory::finish_locate(LocateOp& op) {
  op.res.hops = op.sent.messages();
  op.res.latency = op.sent.latency();
  op.trace->absorb(op.sent);
  metrics::locate_total().inc();
  if (op.res.found) metrics::locate_found_total().inc();
  metrics::locate_hops().observe(static_cast<double>(op.res.hops));
  op.phase = LocateOp::Phase::kDone;
}

double ObjectDirectory::resolve_locate(LocateOp& op, TapestryNode& holder,
                                       const PointerRecord& rec,
                                       const Guid& via) {
  // The holder forwards the query toward the replica its record names: the
  // replica leg's route hops carry the server id, so no separate message
  // announces the hit.
  op.res.pointer_node = holder.id();
  op.res.server = rec.server;
  // Every node the walk passed through learns a hint pointing at the
  // holder (paths toward a root converge, so hot objects get cached
  // exactly where future queries will pass); the holder has the record.
  if (cache_.enabled()) {
    const double now = events_.now();
    for (const NodeId& at : op.path)
      if (!(at == holder.id()))
        cache_.insert(at, op.base,
                      LocateCache::Entry{via, holder.id(), rec.server,
                                         rec.expires_at},
                      now);
  }
  if (rec.server == holder.id()) {  // the pointer holder is the replica
    op.res.found = true;
    finish_locate(op);
    return 0.0;
  }
  op.replica = rec.server;
  op.leg_state = RouteState{};
  op.cur = holder.id();
  op.phase = LocateOp::Phase::kReplicaLeg;
  return 0.0;
}

double ObjectDirectory::locate_step(LocateOp& op) {
  Trace* t = &op.sent;  // route_step's lazy repair books on op.trace
  switch (op.phase) {
    case LocateOp::Phase::kWalk: {
      TapestryNode* curp = reg_.find(op.cur);
      // The node carrying the query died while the message was in
      // flight: this root attempt is lost.
      if (curp == nullptr || !curp->alive) return next_locate_attempt(op);
      TapestryNode& cur = *curp;

      // Check the current node for a pointer before routing further.
      if (auto rec = pick_live_replica(cur, op.target, cur); rec.has_value()) {
        op.path.push_back(cur.id());
        return resolve_locate(op, cur, *rec, op.target);
      }

      // A remembered resolution short-circuits the walk: jump one message
      // to the cached holder and verify its real store when the message
      // lands (cache-verify) — the holder's state *then* decides.  Checked
      // after the authoritative store and before the loop guard: a failed
      // verification resumes the walk here, and that resumption must not
      // count as a revisit.
      if (cache_.enabled()) {
        if (auto ce = cache_.lookup(cur.id(), op.base, events_.now());
            ce.has_value()) {
          // lookup hands back live holders only.
          TapestryNode& h = reg_.live(ce->holder);
          if (!(h.id() == cur.id()) && reg_.reachable(cur.id(), h.id())) {
            wire(MessageKind::kLocateStep, cur, h, op.target, t);
            op.cache_target = ce->target;
            op.cache_holder = ce->holder;
            op.cache_from = cur.id();
            op.phase = LocateOp::Phase::kCacheVerify;
            return hop_delay(cur, h);
          }
          cache_.erase(cur.id(), op.base);
        }
      }

      if (std::find(op.path.begin() + op.walk_start, op.path.end(),
                    cur.id()) != op.path.end())  // loop -> miss
        return next_locate_attempt(op);
      op.path.push_back(cur.id());

      auto next = router_.route_step(
          cur, op.target, op.state, op.trace,
          op.excluded.empty() ? nullptr : &op.excluded);
      if (next.has_value()) {
        // §2.4 PRR variant: before taking the hop, probe the *secondary*
        // members of the slot being routed through for pointers (the
        // primary is about to be visited anyway).
        if (params_.prr_secondary_search) {
          TAP_ASSERT(op.state.level >= 1);
          const unsigned slot_level = op.state.level - 1;
          const unsigned digit = next->digit(slot_level);
          for (const auto& member :
               cur.table().at(slot_level, digit).entries()) {
            TapestryNode* m = live_secondary(cur, member.id, *next);
            if (m == nullptr) continue;
            wire(MessageKind::kLocateStep, cur, *m, op.target, t);  // probe
            wire(MessageKind::kLocateStep, *m, cur, op.target, t);  // reply
            if (auto rec = pick_live_replica(*m, op.target, cur);
                rec.has_value())
              return resolve_locate(op, *m, *rec, op.target);
          }
        }
        TapestryNode& nxt = reg_.live(*next);
        router_.forward(MessageKind::kLocateStep, cur, nxt, op.target,
                        op.state, t);
        op.cur = nxt.id();
        return hop_delay(cur, nxt);
      }

      // cur is the root and has no pointer.  If cur is still inserting,
      // the pointer may not have been transferred yet: send the request
      // back out at the hole level to the surrogate, which routes it as if
      // the new node had not yet entered the network (Figure 10).  The
      // re-route may legally revisit earlier nodes; termination is
      // guaranteed because each bounce permanently excludes one more
      // inserting node.
      if (cur.inserting && cur.psurrogate.has_value() &&
          reg_.is_live(*cur.psurrogate)) {
        op.excluded.insert(cur.id().value());
        TapestryNode& sur = reg_.live(*cur.psurrogate);
        wire(MessageKind::kLocateStep, cur, sur, op.target, t);
        op.state.level = cur.id().common_prefix_len(sur.id());
        op.walk_start = op.path.size();
        op.cur = sur.id();
        return hop_delay(cur, sur);
      }

      // Quorum fallback: the root lost its records (typically it is a
      // fresh surrogate after the old root died).  Read R-of-N from the
      // holder set, install the merged records here so future queries hit
      // the fast path, and resolve as if the root had held them all along.
      if (replicator_ != nullptr) {
        const auto merged =
            replicator_->quorum_read(cur, op.target, events_.now(), t);
        if (!merged.empty()) {
          for (const PointerRecord& r : merged)
            cur.store().upsert(op.target, r);
          if (auto rec = pick_live_replica(cur, op.target, cur);
              rec.has_value())
            return resolve_locate(op, cur, *rec, op.target);
        }
      }
      return next_locate_attempt(op);  // definitive miss for this root
    }

    case LocateOp::Phase::kCacheVerify: {
      // The jump message has landed (or tried to): verify the remembered
      // holder's real store against the hint.  Everything may have changed
      // while the message flew — holder crashed, record unpublished,
      // expired or rerouted away, named replica dead — and each of those
      // must behave exactly as the uncached walk would have: resume
      // routing, don't fail.
      TapestryNode* h = reg_.find(op.cache_holder);
      if (h != nullptr && h->alive) {
        if (auto rec = pick_live_replica(*h, op.cache_target, *h);
            rec.has_value()) {
          // Same resolution an uncached arrival at this holder would
          // produce; the jumping node joins the path only now.
          op.path.push_back(op.cache_from);
          return resolve_locate(op, *h, *rec, op.cache_target);
        }
      }
      // Verification failed: drop the hint and bounce back to where the
      // walk left off, which resumes there as a fresh arrival.  If that
      // node died meanwhile, the attempt is lost like any other carrier
      // death.
      cache_.erase(op.cache_from, op.base);
      cache_.note_fallback();
      TapestryNode* from = reg_.find(op.cache_from);
      if (from == nullptr || !from->alive) return next_locate_attempt(op);
      op.cur = op.cache_from;
      op.phase = LocateOp::Phase::kWalk;
      if (h == nullptr) return 0.0;
      wire(MessageKind::kLocateStep, *h, *from, op.target, t);  // bounce back
      return hop_delay(*h, *from);
    }

    case LocateOp::Phase::kReplicaLeg: {
      // Final leg to the replica: one routing decision per step, exactly
      // like the walk to the pointer, so a replica (or carrier) crash can
      // strike while the query is already heading for it (§6.5).
      TapestryNode* curp = reg_.find(op.cur);
      if (curp == nullptr || !curp->alive) return next_locate_attempt(op);
      TapestryNode& cur = *curp;
      if (cur.id() == op.replica) {  // arrived at the replica
        op.res.found = true;
        finish_locate(op);
        return 0.0;
      }
      // route_step hands back live nodes only.  If the replica crashed
      // after the pointer was read, lazy repair purges it and the walk
      // terminates at its surrogate instead; a partition can likewise
      // leave the side-local digit path without the entries needed to land
      // on it exactly.  Either way the query dead-ends: a lost attempt,
      // retried on the remaining roots like any other casualty.
      auto next = router_.route_step(cur, op.replica, op.leg_state, op.trace);
      if (!next.has_value()) return next_locate_attempt(op);
      TapestryNode& nxt = reg_.live(*next);
      router_.forward(MessageKind::kRouteHop, cur, nxt, op.replica,
                      op.leg_state, t);
      op.cur = nxt.id();
      return hop_delay(cur, nxt);
    }

    case LocateOp::Phase::kDone:
      break;
  }
  return 0.0;
}

LocateResult ObjectDirectory::locate(NodeId client, const Guid& guid,
                                     Trace* trace) {
  (void)reg_.live(client);
  TAP_CHECK(guid.valid() && guid.spec() == params_.id,
            "guid does not match the network's IdSpec");
  LocateOp op;
  start_locate(op, client, guid, trace);
  while (op.phase != LocateOp::Phase::kDone) locate_step(op);
  return op.res;
}

// ---------------------------------------------------------------------
// Event-driven publish / locate: the same records, one event per step
// ---------------------------------------------------------------------

void ObjectDirectory::publish_async(NodeId server, const Guid& guid,
                                    Trace* trace, PublishCallback done) {
  TAP_CHECK(guid.valid() && guid.spec() == params_.id,
            "guid does not match the network's IdSpec");
  TAP_CHECK(reg_.is_live(server), "publish_async: server must be alive");
  metrics::publish_total().inc();
  // The replica exists from this instant; the directory catches up hop by
  // hop (queries racing the deposit may legitimately miss meanwhile).
  register_replica(guid, server);
  auto op = std::make_shared<PublishOp>();
  op->server = server;
  op->base = guid;
  op->trace = &op->own;
  op->external = trace;
  op->done = std::move(done);
  ++in_flight_;
  drive_publish(op, next_publish_path(*op));
}

void ObjectDirectory::drive_publish(const std::shared_ptr<PublishOp>& op,
                                    double delay) {
  if (op->finished) {
    if (op->external != nullptr) op->external->absorb(op->own);
    --in_flight_;
    if (op->done) op->done();
    return;
  }
  events_.schedule_in(delay,
                      [this, op] { drive_publish(op, publish_step(*op)); });
}

void ObjectDirectory::locate_async(NodeId client, const Guid& guid,
                                   LocateCallback done, Trace* trace) {
  TAP_CHECK(static_cast<bool>(done), "locate_async requires a callback");
  TAP_CHECK(guid.valid() && guid.spec() == params_.id,
            "guid does not match the network's IdSpec");
  TAP_CHECK(reg_.is_live(client), "locate_async: client must be alive");
  auto op = std::make_shared<LocateOp>();
  op->external = trace;
  op->done = std::move(done);
  ++in_flight_;
  drive_locate(op, start_locate(*op, client, guid, nullptr));
}

void ObjectDirectory::drive_locate(const std::shared_ptr<LocateOp>& op,
                                   double delay) {
  if (op->phase == LocateOp::Phase::kDone) {
    if (op->external != nullptr) op->external->absorb(op->own);
    --in_flight_;
    op->done(op->res);
    return;
  }
  events_.schedule_in(delay,
                      [this, op] { drive_locate(op, locate_step(*op)); });
}

// ---------------------------------------------------------------------
// Soft state (§6.5)
// ---------------------------------------------------------------------

void ObjectDirectory::republish_all(Trace* trace) {
  for (const auto& [guid, servers] : replicas_)
    for (const NodeId& server : servers)
      if (reg_.is_live(server)) publish_paths(server, guid, trace);
}

void ObjectDirectory::expire_pointers() {
  const double now = events_.now();
  if (replicator_) replicator_->remove_expired(now);  // the mirrors
  for (const auto& n : reg_.nodes())
    if (n->alive) n->store().remove_expired(now);
}

void ObjectDirectory::start_soft_state(double republish_every,
                                       double expiry_every, Trace* trace) {
  stop_soft_state();
  if (republish_every > 0.0) {
    republish_timer_.every(events_, republish_every, [this, trace] {
      // Each live replica refreshes event-driven, so the refresh walks
      // interleave with everything else on the queue — unlike the atomic
      // republish_all the synchronous experiments use.  Snapshot first:
      // publish_async touches the registry we are iterating.
      const auto pairs = published();
      for (const auto& [guid, server] : pairs)
        if (reg_.is_live(server)) publish_async(server, guid, trace);
    });
  }
  if (expiry_every > 0.0)
    expiry_timer_.every(events_, expiry_every, [this] { expire_pointers(); });
}

void ObjectDirectory::stop_soft_state() {
  republish_timer_.stop();
  expiry_timer_.stop();
}

// ---------------------------------------------------------------------
// Pointer maintenance (§4.2, Figure 9)
// ---------------------------------------------------------------------

std::optional<NodeId> ObjectDirectory::pointer_next_hop(
    const TapestryNode& at, const Guid& guid,
    const PointerRecord& record) const {
  // Raw table walk: selection ignores liveness, exactly as the node itself
  // would route before discovering a corpse.  Deterministic in the table
  // contents, which is what "did the path change" must compare.
  RouteState state{record.level, record.past_hole};
  const unsigned digits = params_.id.num_digits;
  while (state.level < digits) {
    auto j = router_.select_slot(at, state.level, guid.digit(state.level),
                                 state.past_hole);
    TAP_ASSERT_MSG(j.has_value(), "routing row with no filled slot");
    const auto prim = at.table().at(state.level, *j).primary();
    TAP_ASSERT(prim.has_value());
    ++state.level;
    if (!(*prim == at.id())) return prim;
  }
  return std::nullopt;
}

std::vector<ObjectDirectory::PendingReroute>
ObjectDirectory::snapshot_pointer_hops(const TapestryNode& at) const {
  const auto records = at.store().snapshot();
  std::vector<PendingReroute> out;
  out.reserve(records.size());
  for (const auto& [guid, rec] : records)
    out.push_back(PendingReroute{guid, rec, pointer_next_hop(at, guid, rec)});
  return out;
}

void ObjectDirectory::reroute_changed_pointers(
    TapestryNode& at, const std::vector<PendingReroute>& before,
    Trace* trace) {
  for (const auto& p : before) {
    // The record may have been refreshed or dropped meanwhile; re-read.
    const auto current = at.store().find(p.guid, p.record.server);
    if (current.has_value() &&
        pointer_next_hop(at, p.guid, *current) != p.next_hop)
      optimize_pointer(at, p.guid, *current, trace);
  }
}

void ObjectDirectory::optimize_pointer(TapestryNode& from, const Guid& guid,
                                       const PointerRecord& record,
                                       Trace* trace) {
  // The mutating route_step: a corpse met on the way is purged (§5.2).
  const NodeId changed = from.id();
  RouteState state{record.level, record.past_hole};
  TapestryNode* prev = &from;
  for (;;) {
    const std::optional<NodeId> step =
        router_.route_step(*prev, guid, state, trace);
    if (!step.has_value()) return;
    TapestryNode& v = reg_.live(*step);
    const PointerRecord arrived = carry_pointer(
        MessageKind::kPointerOptimize, *prev, v, guid,
        PointerRecord{record.server, prev->id(), state.level, state.past_hole,
                      record.expires_at},
        trace);
    const auto existing = v.store().find(guid, record.server);
    v.store().upsert(guid, arrived);
    if (existing.has_value() && existing->last_hop.has_value() &&
        !(*existing->last_hop == prev->id())) {
      // Converged onto the old path: above here nothing changed.  Prune the
      // outdated branch backward along last-hop links.  Its
      // confirm-then-delete structure errs on the under-deletion side,
      // which soft-state expiry absorbs.
      if (!(*existing->last_hop == changed))
        delete_backward(v.id(), *existing->last_hop, guid, record.server,
                        changed, trace);
      return;
    }
    prev = &v;
  }
}

void ObjectDirectory::delete_backward(const NodeId& notifier,
                                      const NodeId& start, const Guid& guid,
                                      const NodeId& server,
                                      const NodeId& changed, Trace* trace) {
  // Two passes.  The paper's delete message walks the *changed node's* old
  // branch backward via last-hop links; but a record's last hop may belong
  // to a different deposit (the server's own publish path), in which case
  // walking blindly would destroy live pointers — including, ultimately,
  // the server's own record.  So first confirm that the chain actually
  // leads back to the changed node; only then delete it.  Unconfirmed
  // chains are left to soft-state expiry (§6.5) — under-deletion is safe,
  // over-deletion breaks Property 4.
  std::vector<NodeId> chain;
  bool confirmed = false;
  NodeId cur = start;
  for (unsigned i = 0; i <= params_.id.num_digits + 1; ++i) {
    if (cur == changed) {
      confirmed = true;
      break;
    }
    TapestryNode* w = reg_.find(cur);
    if (w == nullptr) break;
    const auto rec = w->store().find(guid, server);
    if (!rec.has_value()) break;
    if (!rec->last_hop.has_value()) break;  // reached the server's record
    chain.push_back(cur);
    cur = *rec->last_hop;
  }
  if (!confirmed) return;
  // Every link of the backward chain is a wire message; the converge node
  // originates the first.
  const TapestryNode* prev = &reg_.checked(notifier);
  NodeId victim = server;
  for (const NodeId& id : chain) {
    TapestryNode* w = reg_.find(id);
    TAP_ASSERT(w != nullptr);
    Message m =
        make_message(MessageKind::kDeleteBackward, prev->id(), id, guid);
    m.server = victim;
    victim = transport_->send(m, reg_.hop_dist(trace, *prev, *w), trace).server;
    w->store().remove(guid, victim);
    prev = w;
  }
}

// ---------------------------------------------------------------------
// Ground truth / oracle accessors
// ---------------------------------------------------------------------

std::vector<NodeId> ObjectDirectory::servers_of(const Guid& guid) const {
  std::vector<NodeId> out;
  auto it = replicas_.find(guid);
  if (it == replicas_.end()) return out;
  for (const NodeId& s : it->second)
    if (reg_.is_live(s)) out.push_back(s);
  return out;
}

std::vector<std::pair<Guid, NodeId>> ObjectDirectory::published() const {
  std::vector<std::pair<Guid, NodeId>> out;
  for (const auto& [guid, servers] : replicas_)
    for (const NodeId& s : servers) out.emplace_back(guid, s);
  return out;
}

std::vector<Guid> ObjectDirectory::guids_served_by(
    const NodeId& server) const {
  std::vector<Guid> out;
  for (const auto& [guid, servers] : replicas_)
    if (std::find(servers.begin(), servers.end(), server) != servers.end())
      out.push_back(guid);
  return out;
}

double ObjectDirectory::distance_to_nearest_replica(const NodeId& client,
                                                    const Guid& guid) const {
  double best = std::numeric_limits<double>::infinity();
  auto it = replicas_.find(guid);
  if (it == replicas_.end()) return best;
  for (const NodeId& s : it->second)
    if (reg_.is_live(s)) best = std::min(best, reg_.distance(client, s));
  return best;
}

void ObjectDirectory::check_property4() {
  const double now = events_.now();
  for (const auto& [guid, servers] : replicas_) {
    for (const NodeId& server : servers) {
      if (!reg_.is_live(server)) continue;
      for (unsigned salt = 0; salt < params_.root_multiplicity; ++salt) {
        const Guid target = salted_guid(guid, salt);
        RouteState state;
        TapestryNode* cur = &reg_.live(server);
        for (;;) {
          const auto recs = cur->store().find_live(target, now);
          bool has = false;
          for (const auto& r : recs)
            if (r.server == server) has = true;
          TAP_CHECK(has, "Property 4 violated: node " + cur->id().to_string() +
                             " on the publish path of " + target.to_string() +
                             " (server " + server.to_string() +
                             ") lacks the pointer");
          auto next = router_.route_step(*cur, target, state, nullptr);
          if (!next.has_value()) break;
          cur = &reg_.live(*next);
        }
      }
    }
  }
}

}  // namespace tap
