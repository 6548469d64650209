// Simultaneous insertion (paper §4.4) in simulated time: the event-driven
// runner of the insertion steps MaintenanceEngine shares with join_via
// and join_bulk (acquire_surrogate, begin_insertion, visit, release_pin,
// finish_insertion; join.cc describes the §4.4 mechanics — pinned
// pointers, filled-hole forwarding, watch lists, the core-start rule).
//
// The coordinator owns only the event skeleton: every multicast forward
// and acknowledgement is an EventQueue event whose delivery time is the
// metric distance (plus optional seeded jitter), a per-session map of
// outstanding child acks decides when a subtree is fully acknowledged,
// and each join's start, core and done times are recorded.  Message
// interleaving is therefore genuine: two insertions racing for the same
// hole exercise the same orderings a real network would.  The steps run
// with null locks (one thread), so the §4.2 pointer reroutes around
// watch-list reports, pins and the final descent happen inline.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/tapestry/network.h"

namespace tap {

class ParallelJoinCoordinator {
 public:
  struct Request {
    Location loc{};
    std::optional<NodeId> id{};
    double start_time = 0.0;   ///< absolute event-queue time
    NodeId gateway{};          ///< must be a core node at start_time
  };

  struct Outcome {
    NodeId id{};
    NodeId surrogate{};        ///< core node the multicast started from
    unsigned alpha = 0;        ///< prefix length of the filled hole
    double start_time = 0.0;
    double core_time = 0.0;    ///< multicast fully acknowledged (Def. 1)
    double done_time = 0.0;    ///< neighbor table complete
    std::size_t messages = 0;  ///< total messages attributed to this join
  };

  /// `jitter` adds uniform [0, jitter] extra delay to every message so that
  /// racing multicasts interleave in varied (but seeded) orders.
  explicit ParallelJoinCoordinator(Network& net, double jitter = 0.0);

  /// Validates the whole batch (check_join_batch), schedules all requested
  /// insertions on the network's event queue, runs it to quiescence, and
  /// returns per-join outcomes in request order.  A malformed batch throws
  /// CheckError before anything is scheduled.
  std::vector<Outcome> run(const std::vector<Request>& requests);

 private:
  // Per-(session, node) forwarding state: outstanding child acks + parent.
  struct PendingAcks {
    std::size_t remaining = 0;
    std::optional<NodeId> parent{};  ///< none at the session's start node
  };

  void start_join(std::size_t index, const Request& req);
  void deliver_multicast(std::size_t session_idx, NodeId to,
                         std::optional<NodeId> parent, unsigned prefix_len,
                         WatchList watch);
  void handle_multicast(std::size_t session_idx, NodeId at,
                        std::optional<NodeId> parent, unsigned prefix_len,
                        WatchList watch);
  void deliver_ack(std::size_t session_idx, NodeId from, NodeId to);
  void handle_ack(std::size_t session_idx, NodeId at);
  /// `at`'s subtree is fully acknowledged: ack its parent, or complete the
  /// multicast at the session's start node.
  void acknowledge(std::size_t session_idx, NodeId at,
                   std::optional<NodeId> parent);
  void finish_multicast(std::size_t session_idx);
  double delay(const NodeId& a, const NodeId& b);

  Network& net_;
  double jitter_;
  std::unordered_set<std::uint64_t> taken_;  ///< ids fresh draws must avoid
  std::vector<InsertionSession> sessions_;
  std::vector<Trace> traces_;  ///< each session's messages
  std::vector<Outcome> outcomes_;
  /// Per session: node id value -> that node's outstanding acks.
  std::vector<std::unordered_map<std::uint64_t, PendingAcks>> pending_;
};

}  // namespace tap
