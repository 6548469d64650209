// Shared result/cursor types of the routing and object-location layers.
// They sit below Router and ObjectDirectory so either can be used (and
// tested) without pulling in the other.
#pragma once

#include <cstddef>
#include <vector>

#include "src/tapestry/id.h"

namespace tap {

/// Outcome of routing toward a root (surrogate routing, §2.3).
struct RouteResult {
  NodeId root{};
  std::size_t hops = 0;            ///< network hops (self-advances excluded)
  std::size_t surrogate_hops = 0;  ///< hops taken at/after the first hole
  double latency = 0.0;
  std::vector<NodeId> path{};      ///< distinct nodes visited, source first
};

/// Outcome of an object location query (§2.2).
struct LocateResult {
  bool found = false;
  NodeId server{};        ///< replica the query resolved to
  NodeId pointer_node{};  ///< node at which the object pointer was found
  std::size_t hops = 0;   ///< total application-level hops
  double latency = 0.0;   ///< total distance traveled by the query
};

/// Outcome of one acknowledged multicast (§4.1).  Its messages and their
/// summed distance are booked on the caller's Trace.
struct MulticastStats {
  std::size_t reached = 0;
  double completion = 0.0;  ///< longest forward+ack chain (completion time)
};

/// Mutable routing cursor: the digit position being resolved and, for the
/// PRR-like variant, whether a hole has been passed (§2.3).
struct RouteState {
  unsigned level = 0;
  bool past_hole = false;
};

}  // namespace tap
