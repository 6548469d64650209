// The Datagram transport seam: lossless wire round-trips for every
// message kind (randomized fuzz), WireError on every truncation/torn-tail
// corruption (never UB — this binary runs under ASan/UBSan in CI),
// factory validation, and direct-vs-loopback equivalence on real overlay
// traffic.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/assert.h"
#include "src/common/rng.h"
#include "src/tapestry/replicated_store.h"
#include "src/tapestry/transport.h"
#include "src/tapestry/wire.h"
#include "test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::small_params;
using test::static_ring_network;

constexpr IdSpec kSpec{4, 8};  // the overlay default: radix 16, 8 digits

NodeId rand_id(Rng& rng) { return NodeId(kSpec, rng() & kSpec.mask()); }

double rand_deadline(Rng& rng) {
  // Exercise the values deadlines actually take: finite simulated times
  // and the infinite default TTL.
  switch (rng.next_u64(4)) {
    case 0: return std::numeric_limits<double>::infinity();
    case 1: return 0.0;
    default: return static_cast<double>(rng.next_u64(1u << 20)) / 16.0;
  }
}

PointerRecord rand_record(Rng& rng) {
  PointerRecord rec;
  rec.server = rand_id(rng);
  if (rng.next_u64(2) == 0) rec.last_hop = rand_id(rng);
  rec.level = static_cast<unsigned>(rng.next_u64(9));
  rec.past_hole = rng.next_u64(2) == 0;
  rec.expires_at = rand_deadline(rng);
  return rec;
}

/// A random message of the given kind, populating exactly the fields the
/// kind carries on the wire (unencoded fields stay default so the decoded
/// copy compares equal).
Message rand_message(MessageKind kind, Rng& rng) {
  Message m = make_message(kind, rand_id(rng), rand_id(rng),
                           Id(kSpec, rng() & kSpec.mask()));
  switch (kind) {
    case MessageKind::kRouteHop:
    case MessageKind::kLocateStep:
      m.level = static_cast<unsigned>(rng.next_u64(9));
      m.flag = rng.next_u64(2) == 0;
      break;
    case MessageKind::kPublishDeposit:
    case MessageKind::kPointerOptimize:
    case MessageKind::kReplicaWrite: {
      const PointerRecord rec = rand_record(rng);
      m.server = rec.server;
      m.last_hop = rec.last_hop;
      m.level = rec.level;
      m.flag = rec.past_hole;
      m.expires_at = rec.expires_at;
      break;
    }
    case MessageKind::kUnpublish:
    case MessageKind::kLocateFound:
    case MessageKind::kDeleteBackward:
    case MessageKind::kReplicaRemove:
      m.server = rand_id(rng);
      break;
    case MessageKind::kMulticastForward:
    case MessageKind::kMulticastAck:
      m.level = static_cast<unsigned>(rng.next_u64(9));
      break;
    case MessageKind::kHeartbeatProbe:
    case MessageKind::kReplicaRead:
      break;
    case MessageKind::kHeartbeatAck:
    case MessageKind::kReplicaWriteAck:
      m.flag = rng.next_u64(2) == 0;
      break;
    case MessageKind::kReplicaReadReply: {
      const std::size_t n = rng.next_u64(5);
      for (std::size_t i = 0; i < n; ++i)
        m.records.push_back(rand_record(rng));
      break;
    }
  }
  return m;
}

// ---------------------------------------------------------------------
// Wire round-trips
// ---------------------------------------------------------------------

TEST(Wire, EveryKindRoundTripsRandomized) {
  Rng rng(20020810);
  for (std::size_t k = 0; k < kWireKindCount; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    for (int trial = 0; trial < 200; ++trial) {
      const Message m = rand_message(kind, rng);
      const Datagram dg = encode(m);
      const Message back = decode(dg);
      EXPECT_TRUE(back == m)
          << message_kind_name(kind) << " trial " << trial;
    }
  }
}

TEST(Wire, InfiniteDeadlineSurvivesTheWire) {
  Rng rng(7);
  Message m = rand_message(MessageKind::kPublishDeposit, rng);
  m.expires_at = std::numeric_limits<double>::infinity();
  const Message back = decode(encode(m));
  EXPECT_TRUE(std::isinf(back.expires_at));
  EXPECT_GT(back.expires_at, 0.0);
}

TEST(Wire, KindNamesAreUniqueAndNamed) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kWireKindCount; ++k) {
    const std::string n = message_kind_name(static_cast<MessageKind>(k));
    EXPECT_NE(n, "unknown") << k;
    EXPECT_TRUE(names.insert(n).second) << n << " duplicated";
  }
}

// ---------------------------------------------------------------------
// Malformed input: WireError, never UB
// ---------------------------------------------------------------------

TEST(Wire, EveryTruncationIsRejected) {
  Rng rng(20020811);
  for (std::size_t k = 0; k < kWireKindCount; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    for (int trial = 0; trial < 20; ++trial) {
      const Message m = rand_message(kind, rng);
      const Datagram dg = encode(m);
      for (std::size_t cut = 0; cut < dg.size(); ++cut) {
        EXPECT_THROW((void)decode(dg.data(), cut), WireError)
            << message_kind_name(kind) << " cut at " << cut << "/"
            << dg.size();
      }
    }
  }
}

TEST(Wire, TrailingGarbageIsRejected) {
  Rng rng(20020812);
  for (std::size_t k = 0; k < kWireKindCount; ++k) {
    const Message m = rand_message(static_cast<MessageKind>(k), rng);
    std::vector<std::uint8_t> bytes = encode(m).release();
    bytes.push_back(0xab);  // one torn byte appended to a valid frame
    EXPECT_THROW((void)decode(bytes), WireError)
        << message_kind_name(m.kind);
  }
}

TEST(Wire, UnknownKindIsRejected) {
  Rng rng(3);
  std::vector<std::uint8_t> bytes =
      encode(rand_message(MessageKind::kHeartbeatProbe, rng)).release();
  bytes[0] = static_cast<std::uint8_t>(kWireKindCount);  // first bad tag
  EXPECT_THROW((void)decode(bytes), WireError);
  bytes[0] = 0xff;
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Wire, InvalidIdShapeIsRejected) {
  Rng rng(4);
  std::vector<std::uint8_t> bytes =
      encode(rand_message(MessageKind::kRouteHop, rng)).release();
  bytes[1] = 0;  // digit_bits = 0: invalid IdSpec
  EXPECT_THROW((void)decode(bytes), WireError);
  bytes[1] = 7;  // digit_bits > 6: radix 128 exceeds a one-word row
  EXPECT_THROW((void)decode(bytes), WireError);
  bytes[1] = 9;
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Wire, IdValueOutsideNamespaceIsRejected) {
  Rng rng(5);
  const Message m = rand_message(MessageKind::kHeartbeatProbe, rng);
  std::vector<std::uint8_t> bytes = encode(m).release();
  // src value occupies bytes [3, 11); kSpec covers 32 bits, so setting
  // the high half makes the value overflow the namespace.
  bytes[10] = 0xff;
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Wire, AbsurdRecordCountIsRejectedBeforeAllocation) {
  Rng rng(6);
  Message m = rand_message(MessageKind::kReplicaReadReply, rng);
  m.records.clear();
  std::vector<std::uint8_t> bytes = encode(m).release();
  // Patch the record count (last 4 payload bytes) to ~4 billion; decode
  // must reject it from the remaining-byte bound, not try to reserve.
  const std::size_t count_at = bytes.size() - 4;
  bytes[count_at] = bytes[count_at + 1] = bytes[count_at + 2] =
      bytes[count_at + 3] = 0xff;
  EXPECT_THROW((void)decode(bytes), WireError);
}

TEST(Wire, RandomBytesNeverCrash) {
  // Adversarial fuzz: random buffers either decode (rarely) or throw
  // WireError; under ASan/UBSan this proves the reader is bounds-safe.
  Rng rng(20020813);
  for (int trial = 0; trial < 5000; ++trial) {
    const std::size_t n = rng.next_u64(64);
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes)
      b = static_cast<std::uint8_t>(rng.next_u64(256));
    try {
      (void)decode(bytes);
    } catch (const WireError&) {
      // expected for almost all inputs
    }
  }
}

// ---------------------------------------------------------------------
// Transport selection
// ---------------------------------------------------------------------

TEST(Transport, FactoryBuildsTheSelectedKind) {
  TapestryParams p;
  p.transport = TransportKind::kDirect;
  EXPECT_STREQ(make_transport(p)->name(), "direct");
  p.transport = TransportKind::kLoopback;
  EXPECT_STREQ(make_transport(p)->name(), "loopback");
}

TEST(Transport, FactoryRejectsUnknownKindListingChoices) {
  TapestryParams p;
  p.transport = static_cast<TransportKind>(99);
  try {
    (void)make_transport(p);
    FAIL() << "make_transport accepted an unknown TransportKind";
  } catch (const CheckError& e) {
    EXPECT_NE(std::strstr(e.what(), "direct"), nullptr) << e.what();
    EXPECT_NE(std::strstr(e.what(), "loopback"), nullptr) << e.what();
  }
}

TEST(Transport, KindNamesMatchFlagValues) {
  EXPECT_STREQ(transport_kind_name(TransportKind::kDirect), "direct");
  EXPECT_STREQ(transport_kind_name(TransportKind::kLoopback), "loopback");
}

TEST(Transport, DirectDeliversUntouchedAndCounts) {
  DirectTransport t;
  Rng rng(8);
  const Message m = rand_message(MessageKind::kPublishDeposit, rng);
  const Message out = t.deliver(m);
  EXPECT_TRUE(out == m);
  EXPECT_EQ(t.stats().messages.load(), 1u);
  EXPECT_EQ(t.stats().bytes.load(), 0u);  // nothing serialized
  EXPECT_EQ(t.stats().kind_count(MessageKind::kPublishDeposit), 1u);
}

TEST(Transport, LoopbackRoundTripsThroughBytes) {
  LoopbackTransport t;
  Rng rng(9);
  std::uint64_t expect_bytes = 0;
  for (std::size_t k = 0; k < kWireKindCount; ++k) {
    const Message m = rand_message(static_cast<MessageKind>(k), rng);
    expect_bytes += encode(m).size();
    const Message out = t.deliver(m);
    EXPECT_TRUE(out == m) << message_kind_name(m.kind);
    EXPECT_EQ(t.stats().kind_count(m.kind), 1u);
  }
  EXPECT_EQ(t.stats().messages.load(), kWireKindCount);
  EXPECT_EQ(t.stats().bytes.load(), expect_bytes);  // every frame encoded
}

// ---------------------------------------------------------------------
// Overlay traffic: loopback === direct, every kind exercised
// ---------------------------------------------------------------------

/// Publishes `objects` guids and locates each from every node, returning
/// (found count, total hops) — a behavioral fingerprint of the overlay.
std::pair<std::size_t, std::size_t> publish_and_locate(
    Network& net, const std::vector<NodeId>& ids, std::size_t objects) {
  std::size_t found = 0;
  std::size_t hops = 0;
  for (std::size_t i = 0; i < objects; ++i) {
    const Guid g = make_guid(net, 1000 + i);
    net.publish(ids[i % ids.size()], g);
    for (const NodeId& from : ids) {
      const LocateResult r = net.locate(from, g);
      found += r.found ? 1 : 0;
      hops += r.hops;
    }
  }
  return {found, hops};
}

TEST(Transport, LoopbackMatchesDirectOnOverlayTraffic) {
  TapestryParams direct_p = small_params();
  direct_p.transport = TransportKind::kDirect;
  TapestryParams loop_p = direct_p;
  loop_p.transport = TransportKind::kLoopback;

  auto gd = grow_ring_network(48, 77, direct_p);
  auto gl = grow_ring_network(48, 77, loop_p);
  ASSERT_EQ(gd.ids.size(), gl.ids.size());

  const auto fd = publish_and_locate(*gd.net, gd.ids, 12);
  const auto fl = publish_and_locate(*gl.net, gl.ids, 12);
  EXPECT_EQ(fd.first, fl.first);   // same hits
  EXPECT_EQ(fd.second, fl.second); // same hop counts
  EXPECT_EQ(fd.first, 12u * gd.ids.size());  // and everything resolves

  // The direct overlay counted messages without serializing; the
  // loopback overlay pushed every one of them through the codec.
  EXPECT_GT(gd.net->transport().stats().messages.load(), 0u);
  EXPECT_EQ(gd.net->transport().stats().bytes.load(), 0u);
  EXPECT_GT(gl.net->transport().stats().messages.load(), 0u);
  EXPECT_GT(gl.net->transport().stats().bytes.load(), 0u);
}

TEST(Transport, OverlayLifecycleExercisesTheCoreKinds) {
  TapestryParams p = small_params();
  p.transport = TransportKind::kLoopback;
  auto g = grow_ring_network(64, 78, p);
  Network& net = *g.net;

  const Guid guid = make_guid(net, 5);
  net.publish(g.ids[1], guid);
  for (const NodeId& from : g.ids) EXPECT_TRUE(net.locate(from, guid).found);
  net.unpublish(g.ids[1], guid);

  // Multicast sweep + a failure so heartbeats see a corpse.
  net.multicast(g.ids[0], g.ids[0], 0, [](NodeId) {});
  net.fail(g.ids[2]);
  net.heartbeat_sweep();

  // A global locate announces no hit (its replica leg's route hops name
  // the server); only LocalityManager's local branch sends kLocateFound,
  // and Locality.* and Wire.* cover it.
  const TransportStats& s = net.transport().stats();
  for (const MessageKind kind :
       {MessageKind::kRouteHop, MessageKind::kPublishDeposit,
        MessageKind::kUnpublish, MessageKind::kLocateStep,
        MessageKind::kMulticastForward, MessageKind::kMulticastAck,
        MessageKind::kHeartbeatProbe, MessageKind::kHeartbeatAck}) {
    EXPECT_GT(s.kind_count(kind), 0u) << message_kind_name(kind);
  }
  EXPECT_GT(s.bytes.load(), 0u);
}

TEST(Transport, ReplicaTrafficCrossesTheWire) {
  TapestryParams p = small_params();
  p.transport = TransportKind::kLoopback;
  p.store_backend = StoreBackend::kReplicated;
  auto g = static_ring_network(64, 79, p);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);

  const Guid guid = make_guid(net, 11);
  net.publish(g.ids[3], guid);  // mirrors to the holder set (write + ack)

  // A quorum read at the root probes R holders: a read request out and a
  // record-set reply back per responder, all through the wire.
  const Guid salted = salted_guid(guid, 0);
  const auto merged = repl->quorum_read(
      net.node(net.surrogate_root(salted)), salted, net.now(), nullptr);
  EXPECT_FALSE(merged.empty());

  net.unpublish(g.ids[3], guid);

  const TransportStats& s = net.transport().stats();
  EXPECT_GT(s.kind_count(MessageKind::kReplicaWrite), 0u);
  EXPECT_GT(s.kind_count(MessageKind::kReplicaWriteAck), 0u);
  EXPECT_GT(s.kind_count(MessageKind::kReplicaRead), 0u);
  EXPECT_GT(s.kind_count(MessageKind::kReplicaReadReply), 0u);
  EXPECT_GT(s.kind_count(MessageKind::kReplicaRemove), 0u);
}

TEST(Transport, PointerRerouteKindsFlowOnFailure) {
  TapestryParams p = small_params();
  p.transport = TransportKind::kLoopback;
  auto g = grow_ring_network(96, 80, p);
  Network& net = *g.net;

  for (std::uint64_t i = 0; i < 48; ++i)
    net.publish(g.ids[i % g.ids.size()], make_guid(net, 300 + i));

  // Kill a third of the overlay and sweep (purges reroute each holder's
  // pointers, §4.2): enough topology change to reliably produce both
  // optimize deposits and backward deletes.
  for (std::size_t i = 0; i < 32; ++i) net.fail(g.ids[3 * i + 1]);
  net.heartbeat_sweep();

  const TransportStats& s = net.transport().stats();
  EXPECT_GT(s.kind_count(MessageKind::kPointerOptimize), 0u);
  EXPECT_GT(s.kind_count(MessageKind::kDeleteBackward), 0u);
}

}  // namespace
}  // namespace tap
