#include "src/tapestry/transport.h"

#include "src/common/assert.h"
#include "src/sim/metrics.h"

namespace tap {

Message Transport::send(const Message& m, double distance, Trace* trace) {
  metrics::messages_total().inc();
  if (trace != nullptr) trace->hop(distance);
  return deliver(m);
}

void Transport::count(const Message& m, std::uint64_t wire_bytes) {
  stats_.messages.fetch_add(1, std::memory_order_relaxed);
  stats_.per_kind[static_cast<std::size_t>(m.kind)].fetch_add(
      1, std::memory_order_relaxed);
  metrics::transport_messages_total().inc();
  if (wire_bytes != 0) {
    stats_.bytes.fetch_add(wire_bytes, std::memory_order_relaxed);
    metrics::transport_bytes_total().inc(wire_bytes);
  }
}

Message DirectTransport::deliver(const Message& m) {
  count(m, 0);
  return m;
}

Message LoopbackTransport::deliver(const Message& m) {
  // A synchronous delivery completes on the calling thread, so the
  // receiver decodes the sender's frame directly.
  const Datagram dg = encode(m);
  count(m, dg.size());
  return decode(dg);
}

std::unique_ptr<Transport> make_transport(const TapestryParams& params) {
  switch (params.transport) {
    case TransportKind::kDirect:
      return std::make_unique<DirectTransport>();
    case TransportKind::kLoopback:
      return std::make_unique<LoopbackTransport>();
  }
  TAP_CHECK(false, "unknown TransportKind (valid: direct, loopback)");
  return nullptr;  // unreachable
}

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDirect: return "direct";
    case TransportKind::kLoopback: return "loopback";
  }
  return "unknown";
}

}  // namespace tap
