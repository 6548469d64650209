// The pluggable transport seam: every inter-node RPC in the overlay is
// funneled through Transport::send as a typed wire Message.
//
// The overlay's layers (Router hop delivery, ObjectDirectory pointer
// traffic, MaintenanceEngine multicast/heartbeats, QuorumReplicator
// replica RPCs, LocalityManager) never hand each other raw references
// across a node boundary any more: the sender packs the cross-node
// payload into a Message, passes it through the overlay's Transport, and
// continues from the *returned* message's fields.  send() books the
// message in the paper's cost model (§3: one message of its network
// distance on the operation's Trace and on tapestry_messages_total) and
// then delivers it, so every delivered message is booked exactly once.
// The subclasses decide only how the payload travels, not what it costs.
// NodeRegistry::acct books the traffic no transport carries.
//
// Two implementations, selected by TapestryParams::transport /
// `--transport=` (docs/transport.md):
//
//   DirectTransport    returns the message untouched — zero
//                      serialization, byte-identical to the
//                      pre-transport build on same-seed runs;
//   LoopbackTransport  encodes the message to Datagram bytes, counts
//                      them, decodes the frame and returns the decoded
//                      copy — the serialize/parse path of a real wire
//                      in one process.  Because the wire format is
//                      lossless, results are identical to direct; the
//                      existing conformance/churn/scenario matrix run
//                      under TAP_TRANSPORT=loopback is the proof.
//
// A socket transport for multi-process overlays slots in behind the
// same interface without touching protocol code (ROADMAP).
//
// Thread-safety: send() is called concurrently from batch publish
// walks and threaded repair waves.  Stats use relaxed atomics, and each
// delivery completes on the calling thread, so a loopback frame never
// leaves the thread that encoded it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "src/sim/trace.h"
#include "src/tapestry/params.h"
#include "src/tapestry/wire.h"

namespace tap {

/// Lifetime message/byte tallies of one transport instance, per message
/// kind.  Written with relaxed atomics on the delivery path.
struct TransportStats {
  std::atomic<std::uint64_t> messages{0};  ///< deliver() calls completed
  std::atomic<std::uint64_t> bytes{0};     ///< wire bytes encoded (0: direct)
  std::array<std::atomic<std::uint64_t>, kWireKindCount> per_kind{};

  [[nodiscard]] std::uint64_t kind_count(MessageKind k) const {
    return per_kind[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }
};

/// Abstract wire layer.  deliver() moves one message from m.src to
/// m.dst and returns the message as the receiver observed it; callers
/// must continue from the returned copy (for a serializing transport
/// that is the decoded datagram, not the original object).
class Transport {
 public:
  virtual ~Transport() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// The one entry point of protocol code: books `m` as one message of
  /// `distance` on `trace` (when not null) and on tapestry_messages_total,
  /// then delivers it and returns the receiver's copy.
  Message send(const Message& m, double distance, Trace* trace);
  [[nodiscard]] virtual Message deliver(const Message& m) = 0;
  [[nodiscard]] const TransportStats& stats() const { return stats_; }

 protected:
  void count(const Message& m, std::uint64_t wire_bytes);

  TransportStats stats_;
};

/// Today's calls: the message is handed to the receiver by reference,
/// untouched.  Keeps every same-seed run byte-identical to the
/// pre-transport build.
class DirectTransport final : public Transport {
 public:
  [[nodiscard]] const char* name() const override { return "direct"; }
  [[nodiscard]] Message deliver(const Message& m) override;
};

/// A real wire boundary inside one process: encode → bounds-checked
/// decode → dispatch the decoded copy.  Lossless, so semantics match
/// DirectTransport exactly.
class LoopbackTransport final : public Transport {
 public:
  [[nodiscard]] const char* name() const override { return "loopback"; }
  [[nodiscard]] Message deliver(const Message& m) override;
};

/// Instantiates the transport selected by params.transport.
/// TAP_CHECKs on an unknown enum value, listing the valid choices.
[[nodiscard]] std::unique_ptr<Transport> make_transport(
    const TapestryParams& params);

/// "direct" / "loopback" — flag values and bench labels.
[[nodiscard]] const char* transport_kind_name(TransportKind kind);

}  // namespace tap
