#include "src/tapestry/parallel_join.h"

#include <algorithm>

namespace tap {

ParallelJoinCoordinator::ParallelJoinCoordinator(Network& net, double jitter)
    : net_(net), jitter_(jitter) {
  TAP_CHECK(jitter >= 0.0, "jitter must be non-negative");
}

double ParallelJoinCoordinator::delay(const NodeId& a, const NodeId& b) {
  double d = net_.distance(a, b);
  if (jitter_ > 0.0) d += net_.rng().uniform(0.0, jitter_);
  // Zero-delay messages still take a scheduling step so ordering stays
  // observable.
  return d > 0.0 ? d : 1e-9;
}

std::vector<ParallelJoinCoordinator::Outcome> ParallelJoinCoordinator::run(
    const std::vector<Request>& requests) {
  // A throw from inside the event loop would leave scheduled events behind
  // that capture this coordinator, so the batch is checked up front.  Ids
  // left to draw are drawn at event time, in start order.
  std::vector<JoinRequest> batch;
  batch.reserve(requests.size());
  for (const Request& r : requests) batch.push_back({r.loc, r.id, r.gateway});
  taken_ = check_join_batch(net_.registry(), batch);

  sessions_.assign(requests.size(), InsertionSession{});
  traces_.assign(requests.size(), Trace{});
  outcomes_.assign(requests.size(), Outcome{});
  pending_.assign(requests.size(), {});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sessions_[i].trace = &traces_[i];
    const Request req = requests[i];
    net_.events().schedule_at(std::max(req.start_time, net_.events().now()),
                              [this, i, req] { start_join(i, req); });
  }
  net_.events().run();

  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    TAP_CHECK(sessions_[i].done, "a join's multicast never completed");
    outcomes_[i].messages = traces_[i].messages();
  }
  return outcomes_;
}

void ParallelJoinCoordinator::start_join(std::size_t index,
                                         const Request& req) {
  InsertionSession& s = sessions_[index];
  MaintenanceEngine& m = net_.maintenance();
  s.nn = req.id.has_value() ? *req.id : m.fresh_join_id(taken_);
  s.surrogate = m.acquire_surrogate(req.gateway, s.nn, s.trace, nullptr);
  m.begin_insertion(s, req.loc, nullptr);

  Outcome& out = outcomes_[index];
  out.id = s.nn;
  out.surrogate = s.surrogate;
  out.alpha = s.alpha;
  out.start_time = net_.events().now();

  // Launch the acknowledged multicast at the surrogate.
  deliver_multicast(index, s.surrogate, std::nullopt, s.alpha,
                    m.watch_list(s, nullptr));
}

void ParallelJoinCoordinator::deliver_multicast(std::size_t session_idx,
                                                NodeId to,
                                                std::optional<NodeId> parent,
                                                unsigned prefix_len,
                                                WatchList watch) {
  InsertionSession& s = sessions_[session_idx];
  const NodeId from = parent.has_value() ? *parent : s.nn;
  const double d = delay(from, to);
  const NodeRegistry& reg = net_.registry();
  reg.acct(s.trace, reg.checked(from), reg.checked(to));
  net_.events().schedule_in(
      d, [this, session_idx, to, parent, prefix_len,
          watch = std::move(watch)]() mutable {
        handle_multicast(session_idx, to, parent, prefix_len,
                         std::move(watch));
      });
}

void ParallelJoinCoordinator::handle_multicast(std::size_t session_idx,
                                               NodeId at,
                                               std::optional<NodeId> parent,
                                               unsigned prefix_len,
                                               WatchList watch) {
  InsertionSession& s = sessions_[session_idx];
  MaintenanceEngine& m = net_.maintenance();
  const auto children = m.visit(s, at, prefix_len, watch, nullptr);
  // A node that already handled this session's multicast just
  // acknowledges so its parent can unblock.
  if (!children.has_value()) {
    acknowledge(session_idx, at, parent);
    return;
  }
  if (children->empty()) {
    // A leaf's subtree is complete at once: unlock its pin (Lemma 4).
    m.release_pin(s, at, nullptr);
    acknowledge(session_idx, at, parent);
    return;
  }

  pending_[session_idx][at.value()] = PendingAcks{children->size(), parent};
  for (const MulticastChild& c : *children)
    deliver_multicast(session_idx, c.id, at, c.prefix_len, watch);
}

void ParallelJoinCoordinator::deliver_ack(std::size_t session_idx, NodeId from,
                                          NodeId to) {
  const double d = delay(from, to);
  const NodeRegistry& reg = net_.registry();
  reg.acct(sessions_[session_idx].trace, reg.checked(from), reg.checked(to));
  net_.events().schedule_in(
      d, [this, session_idx, to] { handle_ack(session_idx, to); });
}

void ParallelJoinCoordinator::handle_ack(std::size_t session_idx, NodeId at) {
  auto& pmap = pending_[session_idx];
  auto it = pmap.find(at.value());
  TAP_ASSERT_MSG(it != pmap.end(), "ack for a node with no pending state");
  TAP_ASSERT(it->second.remaining > 0);
  if (--it->second.remaining > 0) return;

  const std::optional<NodeId> parent = it->second.parent;
  pmap.erase(it);

  // Subtree fully acknowledged: unlock the pinned pointer (Lemma 4) and
  // acknowledge upward.
  net_.maintenance().release_pin(sessions_[session_idx], at, nullptr);
  acknowledge(session_idx, at, parent);
}

void ParallelJoinCoordinator::acknowledge(std::size_t session_idx, NodeId at,
                                          std::optional<NodeId> parent) {
  if (parent.has_value())
    deliver_ack(session_idx, at, *parent);
  else
    finish_multicast(session_idx);
}

void ParallelJoinCoordinator::finish_multicast(std::size_t session_idx) {
  InsertionSession& s = sessions_[session_idx];
  TAP_ASSERT(!s.done);
  outcomes_[session_idx].core_time = net_.events().now();
  // The α-list is the set of nodes that ran FUNCTION; the synchronous
  // nearest-neighbor descent finishes the insertion (one logical batch of
  // RPCs at this instant).
  net_.maintenance().finish_insertion(s, nullptr);
  outcomes_[session_idx].done_time = net_.events().now();
}

}  // namespace tap
