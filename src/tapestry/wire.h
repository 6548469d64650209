// Wire format for inter-node messages (the Datagram transport seam).
//
// Every RPC that crosses a node boundary — routing hops (§3), publish /
// locate / unpublish pointer traffic (§2.2), the §4.1 acknowledged
// multicast, §6.5 heartbeats, §4.2 pointer reroutes, and the quorum
// replica protocol (docs/stores.md) — is describable as one `Message`: a
// typed header plus a kind-specific payload.  `Datagram` is the byte
// builder and `DatagramIterator` the bounds-checked reader (the Ardos
// shape); `encode`/`decode` map a Message to bytes and back losslessly,
// so a transport that round-trips through bytes produces results
// identical to direct calls.  docs/transport.md holds the layout table.
//
// Byte order is little-endian by construction (explicit shifts, no
// pointer punning), so encoded datagrams are portable across hosts and
// the accessors are ASan/UBSan-clean.  Doubles travel as their IEEE-754
// bit pattern (std::memcpy), which keeps simulated-time deadlines exact.
//
// Malformed input — truncated buffers, torn tails, unknown message
// kinds, invalid id shapes — raises WireError; it never invokes UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/tapestry/id.h"
#include "src/tapestry/object_store.h"

namespace tap {

/// Raised when a datagram cannot be decoded: truncation, unknown kind,
/// or an id shape the receiver cannot reconstruct.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Every inter-node RPC in the system, one tag per direction of each
/// exchange.  Keep kWireKindCount in sync and give each kind a row in
/// docs/transport.md.
enum class MessageKind : std::uint8_t {
  kRouteHop = 0,        ///< §3 surrogate-routing hop toward a target id
  kPublishDeposit,      ///< §2.2 publish: deposit a pointer at this hop
  kUnpublish,           ///< §2.2 unpublish: remove a pointer at this hop
  kLocateStep,          ///< §2.2 locate: query forwarded one hop rootward
  kLocateFound,         ///< §2.2 locate: pointer hit, forward to server
  kPointerOptimize,     ///< §4.2 OPTIMIZEOBJECTPTRS reroute deposit
  kDeleteBackward,      ///< §4.2 DELETEPOINTERSBACKWARD chain delete
  kMulticastForward,    ///< §4.1 acknowledged-multicast downward edge
  kMulticastAck,        ///< §4.1 acknowledged-multicast ack edge
  kHeartbeatProbe,      ///< §6.5 probe of a silent member; goes unanswered
  kHeartbeatAck,        ///< §6.5 "alive" heartbeat pushed along a backpointer
  kReplicaWrite,        ///< quorum store: mirror a record to a holder
  kReplicaWriteAck,     ///< quorum store: holder write acknowledgement
  kReplicaRead,         ///< quorum store: read probe to a holder
  kReplicaReadReply,    ///< quorum store: holder's record set response
  kReplicaRemove,       ///< quorum store: withdraw a mirrored record
};

inline constexpr std::size_t kWireKindCount = 16;

/// Human-readable tag for counters, traces and docs.
[[nodiscard]] const char* message_kind_name(MessageKind kind);

/// One inter-node message: common header (kind, endpoints, target id)
/// plus the union of kind-specific fields.  Fields a kind does not use
/// stay default-initialized and are not encoded for it.
struct Message {
  MessageKind kind = MessageKind::kRouteHop;
  NodeId src{};                      ///< sending node
  NodeId dst{};                      ///< receiving node
  Id target{};                       ///< object guid or routing target
  NodeId server{};                   ///< storage server (pointer traffic)
  std::optional<NodeId> last_hop{};  ///< publish-path predecessor
  unsigned level = 0;                ///< routing level / multicast depth
  bool flag = false;                 ///< past_hole / alive / ack-ok bit
  double expires_at = 0.0;           ///< soft-state deadline (§6.5)
  std::vector<PointerRecord> records{};  ///< kReplicaReadReply payload

  /// The pointer record a deposit, reroute or replica write carries:
  /// server, last_hop, level, expires_at, and past_hole in `flag`.
  [[nodiscard]] PointerRecord record() const {
    return PointerRecord{server, last_hop, level, flag, expires_at};
  }
  void set_record(const PointerRecord& rec) {
    server = rec.server;
    last_hop = rec.last_hop;
    level = rec.level;
    flag = rec.past_hole;
    expires_at = rec.expires_at;
  }

  [[nodiscard]] bool operator==(const Message& o) const;
};

/// Header-only constructor for the common case; callers fill the
/// kind-specific fields on the result before handing it to a transport.
[[nodiscard]] inline Message make_message(MessageKind kind, NodeId src,
                                          NodeId dst, Id target) {
  Message m;
  m.kind = kind;
  m.src = src;
  m.dst = dst;
  m.target = target;
  return m;
}

/// Append-only byte builder for one wire message.
class Datagram {
 public:
  void add_u8(std::uint8_t v) { buf_.push_back(v); }
  void add_bool(bool v) { add_u8(v ? 1 : 0); }
  void add_u16(std::uint16_t v) {
    add_u8(static_cast<std::uint8_t>(v & 0xff));
    add_u8(static_cast<std::uint8_t>(v >> 8));
  }
  void add_u32(std::uint32_t v) {
    add_u16(static_cast<std::uint16_t>(v & 0xffff));
    add_u16(static_cast<std::uint16_t>(v >> 16));
  }
  void add_u64(std::uint64_t v) {
    add_u32(static_cast<std::uint32_t>(v & 0xffffffffu));
    add_u32(static_cast<std::uint32_t>(v >> 32));
  }
  /// IEEE-754 bit pattern; exact round-trip for every finite and
  /// non-finite value (infinity is the default pointer TTL).
  void add_f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v, "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }

  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  /// Moves the underlying buffer out (the datagram is empty afterwards).
  [[nodiscard]] std::vector<std::uint8_t> release() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked sequential reader over an encoded datagram.  Every
/// accessor throws WireError instead of reading past the end.
class DatagramIterator {
 public:
  DatagramIterator(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit DatagramIterator(const Datagram& dg)
      : DatagramIterator(dg.data(), dg.size()) {}
  explicit DatagramIterator(const std::vector<std::uint8_t>& buf)
      : DatagramIterator(buf.data(), buf.size()) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t get_u8() {
    require(1);
    return data_[pos_++];
  }
  bool get_bool() { return get_u8() != 0; }
  std::uint16_t get_u16() {
    const std::uint16_t lo = get_u8();
    return static_cast<std::uint16_t>(lo |
                                      (std::uint16_t{get_u8()} << 8));
  }
  std::uint32_t get_u32() {
    const std::uint32_t lo = get_u16();
    return lo | (std::uint32_t{get_u16()} << 16);
  }
  std::uint64_t get_u64() {
    const std::uint64_t lo = get_u32();
    return lo | (std::uint64_t{get_u32()} << 32);
  }
  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Fails decoding unless exactly the declared payload was consumed —
  /// catches torn tails that truncate *between* fields as well as trailing
  /// garbage appended to a valid message.
  void expect_exhausted() const {
    if (pos_ != size_)
      throw WireError("datagram has " + std::to_string(size_ - pos_) +
                      " unconsumed trailing byte(s)");
  }

 private:
  void require(std::size_t n) const {
    if (size_ - pos_ < n)
      throw WireError("datagram truncated: need " + std::to_string(n) +
                      " byte(s) at offset " + std::to_string(pos_) +
                      " of " + std::to_string(size_));
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Serializes `m` into wire bytes.  Layout (docs/transport.md):
/// header [u8 kind][u8 digit_bits][u8 num_digits][u64 src][u64 dst]
/// [u64 target], then the kind-specific payload.
[[nodiscard]] Datagram encode(const Message& m);

/// Parses wire bytes back into a Message.  Throws WireError on any
/// malformed input; never exhibits UB on adversarial bytes.
[[nodiscard]] Message decode(const std::uint8_t* data, std::size_t size);
[[nodiscard]] inline Message decode(const Datagram& dg) {
  return decode(dg.data(), dg.size());
}
[[nodiscard]] inline Message decode(const std::vector<std::uint8_t>& buf) {
  return decode(buf.data(), buf.size());
}

}  // namespace tap
