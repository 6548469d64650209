// Stub-locality enhancement (paper §6.3).
//
// In transit-stub topologies, intra-stub latencies are an order of
// magnitude below wide-area latencies, so an object replicated inside the
// client's own stub should be found without the query ever crossing the
// transit network.  The optimization: publication that is about to route
// out of the stub spawns a "local branch" publish that surrogate-routes to
// a *local root* — a deterministic function of (stub, GUID) over the stub's
// membership — and terminates there; queries first try the local branch
// and resume wide-area routing only on a local miss.
//
// Local surrogate routing here is evaluated over the stub's member list
// directly (stubs hold a handful of nodes each, and their star topology
// makes any intra-stub path a gateway round-trip), rather than over
// per-stub routing sub-tables; DESIGN.md records this simplification.  The
// measurable behaviour §6.3 promises — local hits never leave the stub,
// remote queries pay a small bounded intra-stub detour — is preserved, and
// E9 quantifies it.
#pragma once

#include "src/metric/transit_stub.h"
#include "src/tapestry/network.h"

namespace tap {

class LocalityManager {
 public:
  /// `net` must have been built over `ts` (the same MetricSpace instance).
  LocalityManager(Network& net, const TransitStubMetric& ts);

  /// Publishes globally and, when the global path leaves the stub, also on
  /// the stub-local branch.
  void publish(NodeId server, const Guid& guid, Trace* trace = nullptr);

  /// Withdraws both the global and the local-branch pointers.
  void unpublish(NodeId server, const Guid& guid, Trace* trace = nullptr);

  /// Locates with the local-first policy: probe the stub's local root,
  /// fall back to wide-area location on a miss.
  LocateResult locate(NodeId client, const Guid& guid, Trace* trace = nullptr);

  /// Deterministic local root of a GUID within a stub: the member whose ID
  /// matches the GUID in the most digits, ties resolved by the Tapestry
  /// native next-digit rule.  All members compute the same answer.
  [[nodiscard]] NodeId local_root(std::size_t stub, const Guid& guid) const;

  /// Live members of a stub, in deterministic (id) order.
  [[nodiscard]] std::vector<NodeId> stub_members(std::size_t stub) const;

  [[nodiscard]] std::size_t stub_of(const NodeId& node) const;

 private:
  Network& net_;
  const TransitStubMetric& ts_;
};

}  // namespace tap
