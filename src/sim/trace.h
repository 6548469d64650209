// Trace: per-operation cost accounting.
//
// Every inter-node interaction in the simulator — a routing hop, an RPC, a
// multicast edge, an acknowledgment — reports itself to the Trace of the
// operation it belongs to.  Benchmarks derive *all* of their numbers
// (application-level hops, network latency, message complexity, stretch)
// from these traces; the algorithms themselves never special-case
// measurement.
//
// Latency accounting follows the paper's cost model (§3): costs are network
// distances and message counts; local computation is free.  `latency`
// accumulates the distance of every message, which for a sequential chain
// of hops equals the end-to-end time; for operations with parallel fan-out
// (the acknowledged multicast) it is the *total traffic*, and the maximum
// over root-to-leaf chains — the completion time — is tracked separately by
// the multicast engine.
#pragma once

#include <cstddef>

namespace tap {

class Trace {
 public:
  /// Records one message crossing the given network distance.
  void hop(double dist) noexcept {
    ++messages_;
    latency_ += dist;
  }

  /// Merges a sub-operation's costs into this trace (e.g. a nested RPC).
  void absorb(const Trace& sub) noexcept {
    messages_ += sub.messages_;
    latency_ += sub.latency_;
  }

  [[nodiscard]] std::size_t messages() const noexcept { return messages_; }
  [[nodiscard]] double latency() const noexcept { return latency_; }

  void reset() noexcept {
    messages_ = 0;
    latency_ = 0.0;
  }

 private:
  std::size_t messages_ = 0;
  double latency_ = 0.0;
};

}  // namespace tap
