#include "src/tapestry/wire.h"

namespace tap {
namespace {

// Per-record payload inside kReplicaReadReply:
// [u64 server][u8 has_last_hop]([u64 last_hop])[u32 level][u8 past_hole]
// [f64 expires_at] — 22 bytes without the optional hop, 30 with it.
constexpr std::size_t kRecordMinBytes = 8 + 1 + 4 + 1 + 8;

std::uint64_t f64_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Reconstructs an Id from wire fields, translating shape violations into
/// WireError (Id's own constructor reserves TAP_CHECK for caller bugs).
Id make_id(IdSpec spec, std::uint64_t value) {
  if (!spec.valid()) throw WireError("datagram carries invalid IdSpec");
  if (value > spec.mask())
    throw WireError("id value exceeds the namespace of its IdSpec");
  return Id(spec, value);
}

void encode_record_fields(Datagram& dg, const PointerRecord& rec) {
  dg.add_u64(rec.server.value());
  dg.add_bool(rec.last_hop.has_value());
  if (rec.last_hop.has_value()) dg.add_u64(rec.last_hop->value());
  dg.add_u32(static_cast<std::uint32_t>(rec.level));
  dg.add_bool(rec.past_hole);
  dg.add_f64(rec.expires_at);
}

PointerRecord decode_record_fields(DatagramIterator& it, IdSpec spec) {
  PointerRecord rec;
  rec.server = make_id(spec, it.get_u64());
  if (it.get_bool()) rec.last_hop = make_id(spec, it.get_u64());
  rec.level = it.get_u32();
  rec.past_hole = it.get_bool();
  rec.expires_at = it.get_f64();
  return rec;
}

bool record_equal(const PointerRecord& a, const PointerRecord& b) {
  return a.server == b.server && a.last_hop == b.last_hop &&
         a.level == b.level && a.past_hole == b.past_hole &&
         f64_bits(a.expires_at) == f64_bits(b.expires_at);
}

}  // namespace

const char* message_kind_name(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRouteHop: return "route_hop";
    case MessageKind::kPublishDeposit: return "publish_deposit";
    case MessageKind::kUnpublish: return "unpublish";
    case MessageKind::kLocateStep: return "locate_step";
    case MessageKind::kLocateFound: return "locate_found";
    case MessageKind::kPointerOptimize: return "pointer_optimize";
    case MessageKind::kDeleteBackward: return "delete_backward";
    case MessageKind::kMulticastForward: return "multicast_forward";
    case MessageKind::kMulticastAck: return "multicast_ack";
    case MessageKind::kHeartbeatProbe: return "heartbeat_probe";
    case MessageKind::kHeartbeatAck: return "heartbeat_ack";
    case MessageKind::kReplicaWrite: return "replica_write";
    case MessageKind::kReplicaWriteAck: return "replica_write_ack";
    case MessageKind::kReplicaRead: return "replica_read";
    case MessageKind::kReplicaReadReply: return "replica_read_reply";
    case MessageKind::kReplicaRemove: return "replica_remove";
  }
  return "unknown";
}

bool Message::operator==(const Message& o) const {
  if (kind != o.kind || src != o.src || dst != o.dst || target != o.target ||
      server != o.server || last_hop != o.last_hop || level != o.level ||
      flag != o.flag || f64_bits(expires_at) != f64_bits(o.expires_at) ||
      records.size() != o.records.size())
    return false;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (!record_equal(records[i], o.records[i])) return false;
  return true;
}

Datagram encode(const Message& m) {
  // All endpoint and payload ids of one message share the overlay's
  // IdSpec; src is the canonical carrier (every message has a sender).
  const IdSpec spec = m.src.valid() ? m.src.spec() : m.target.spec();
  Datagram dg;
  dg.add_u8(static_cast<std::uint8_t>(m.kind));
  dg.add_u8(static_cast<std::uint8_t>(spec.digit_bits));
  dg.add_u8(static_cast<std::uint8_t>(spec.num_digits));
  dg.add_u64(m.src.value());
  dg.add_u64(m.dst.value());
  dg.add_u64(m.target.value());
  switch (m.kind) {
    case MessageKind::kRouteHop:
    case MessageKind::kLocateStep:
      dg.add_u32(static_cast<std::uint32_t>(m.level));
      dg.add_bool(m.flag);
      break;
    case MessageKind::kPublishDeposit:
    case MessageKind::kPointerOptimize:
    case MessageKind::kReplicaWrite:
      encode_record_fields(dg, m.record());
      break;
    case MessageKind::kUnpublish:
    case MessageKind::kLocateFound:
    case MessageKind::kDeleteBackward:
    case MessageKind::kReplicaRemove:
      dg.add_u64(m.server.value());
      break;
    case MessageKind::kMulticastForward:
    case MessageKind::kMulticastAck:
      dg.add_u32(static_cast<std::uint32_t>(m.level));
      break;
    case MessageKind::kHeartbeatProbe:
    case MessageKind::kReplicaRead:
      break;  // header only
    case MessageKind::kHeartbeatAck:
    case MessageKind::kReplicaWriteAck:
      dg.add_bool(m.flag);
      break;
    case MessageKind::kReplicaReadReply:
      dg.add_u32(static_cast<std::uint32_t>(m.records.size()));
      for (const PointerRecord& rec : m.records) encode_record_fields(dg, rec);
      break;
  }
  return dg;
}

Message decode(const std::uint8_t* data, std::size_t size) {
  DatagramIterator it(data, size);
  const std::uint8_t raw_kind = it.get_u8();
  if (raw_kind >= kWireKindCount)
    throw WireError("unknown message kind " + std::to_string(raw_kind));
  Message m;
  m.kind = static_cast<MessageKind>(raw_kind);
  IdSpec spec;
  spec.digit_bits = it.get_u8();
  spec.num_digits = it.get_u8();
  m.src = make_id(spec, it.get_u64());
  m.dst = make_id(spec, it.get_u64());
  m.target = make_id(spec, it.get_u64());
  switch (m.kind) {
    case MessageKind::kRouteHop:
    case MessageKind::kLocateStep:
      m.level = it.get_u32();
      m.flag = it.get_bool();
      break;
    case MessageKind::kPublishDeposit:
    case MessageKind::kPointerOptimize:
    case MessageKind::kReplicaWrite:
      m.set_record(decode_record_fields(it, spec));
      break;
    case MessageKind::kUnpublish:
    case MessageKind::kLocateFound:
    case MessageKind::kDeleteBackward:
    case MessageKind::kReplicaRemove:
      m.server = make_id(spec, it.get_u64());
      break;
    case MessageKind::kMulticastForward:
    case MessageKind::kMulticastAck:
      m.level = it.get_u32();
      break;
    case MessageKind::kHeartbeatProbe:
    case MessageKind::kReplicaRead:
      break;
    case MessageKind::kHeartbeatAck:
    case MessageKind::kReplicaWriteAck:
      m.flag = it.get_bool();
      break;
    case MessageKind::kReplicaReadReply: {
      const std::uint32_t count = it.get_u32();
      // A record is at least kRecordMinBytes on the wire; reject counts
      // the remaining bytes cannot possibly satisfy before reserving.
      if (count > it.remaining() / kRecordMinBytes)
        throw WireError("replica_read_reply record count " +
                        std::to_string(count) +
                        " exceeds the remaining payload");
      m.records.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i)
        m.records.push_back(decode_record_fields(it, spec));
      break;
    }
  }
  it.expect_exhausted();
  return m;
}

}  // namespace tap
