// Transport seam microbench: codec throughput, wire-size accounting, and
// the cost of the loopback (serialize/queue/parse) path versus direct
// delivery on a real overlay workload.
//
// Deterministic metrics (exact gates in bench/baselines/bench_transport.json):
//   * wire_kinds — the message-kind count; moves only when the enum grows;
//   * wire_bytes_fixture — total encoded size of a seeded 128-message-per-
//     kind corpus, pinning the layout of every kind at once;
//   * loopback_messages / loopback_wire_bytes — the loopback transport's
//     lifetime counters after a fixed same-seed overlay workload (grow,
//     publish, locate, multicast, fail + heartbeat sweep), proving every
//     layer's traffic crosses the wire and the volume is reproducible;
//   * loopback_heartbeats / loopback_heartbeat_probes /
//     loopback_multicast_forwards — three of those messages' kinds
//     (TransportStats::kind_count): the pushed "alive" heartbeats, the
//     probes of silent members, and multicast edges, so a change in sweep
//     or multicast traffic names its layer;
//   * sweep_pushes_per_link — the heartbeat pushes of one more sweep, run
//     after the workload's own sweep purged its corpse, over the pairs of
//     live nodes linked in either direction as it starts
//     (live_linked_pairs): 1 when each such link carries one push per
//     sweep, whichever way it runs.
//
// Timed metrics (tolerant gates):
//   * codec_mps — encode+decode round-trips per second over the corpus;
//   * loopback_overhead_ratio — wall time of the overlay workload under
//     loopback over direct (min-of-3 each, interleaved); the budget the
//     serialization seam is allowed to cost.
#include <chrono>
#include <cstring>
#include <limits>

#include "bench_util.h"
#include "src/tapestry/fingerprint.h"
#include "src/tapestry/transport.h"
#include "src/tapestry/wire.h"

namespace tap::bench {
namespace {

constexpr IdSpec kSpec{4, 8};

NodeId rand_id(Rng& rng) { return NodeId(kSpec, rng() & kSpec.mask()); }

double rand_deadline(Rng& rng) {
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

/// The seeded corpus every codec measurement runs over: 128 messages of
/// each kind, in kind order.  Same seed → same bytes, always.
std::vector<Message> corpus() {
  Rng rng(0xda7a6a);
  std::vector<Message> msgs;
  msgs.reserve(128 * kWireKindCount);
  for (std::size_t k = 0; k < kWireKindCount; ++k)
    for (int i = 0; i < 128; ++i)
      msgs.push_back(rand_message(static_cast<MessageKind>(k), rng));
  return msgs;
}

std::uint64_t corpus_wire_bytes(const std::vector<Message>& msgs) {
  std::uint64_t total = 0;
  for (const Message& m : msgs) total += encode(m).size();
  return total;
}

/// Encode+decode round-trips per second over the corpus (best of 3
/// passes, enough repetitions to dominate clock granularity).
double codec_throughput(const std::vector<Message>& msgs) {
  constexpr int kReps = 24;
  double best = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (int rep = 0; rep < kReps; ++rep)
      for (const Message& m : msgs) {
        const Datagram dg = encode(m);
        sink += decode(dg).level;
      }
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (sink == ~std::uint64_t{0}) std::printf("impossible\n");  // keep sink
    best = std::min(best, dt);
  }
  return static_cast<double>(msgs.size()) * kReps / best;
}

/// The overlay workload both transports run: grow 64 nodes, publish 32
/// objects, locate each from 4 clients, multicast, fail one node, sweep.
/// Every protocol family sends traffic, so the loopback counters cover
/// routing, directory, multicast, heartbeat and reroute kinds.  Untimed
/// and uncounted after it, one more sweep measures the pushes per link.
struct WorkloadResult {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t heartbeat_probes = 0;
  std::uint64_t multicast_forwards = 0;
  double sweep_pushes_per_link = 0.0;
};

WorkloadResult run_workload(TransportKind kind) {
  Rng rng(4242);
  auto space = make_space("ring", 128, rng);
  TapestryParams params = default_params();
  params.transport = kind;

  const auto t0 = std::chrono::steady_clock::now();
  auto net = grow(*space, 64, params, 4242);
  const std::vector<NodeId> ids = net->node_ids();
  std::vector<Guid> guids;
  for (std::uint64_t i = 0; i < 32; ++i) {
    guids.push_back(bench_guid(*net, i));
    net->publish(ids[i % ids.size()], guids.back());
  }
  for (std::size_t q = 0; q < guids.size(); ++q)
    for (std::size_t c = 0; c < 4; ++c)
      (void)net->locate(ids[(q * 7 + c * 13 + 1) % ids.size()], guids[q]);
  (void)net->multicast(ids[0], ids[0], 0, [](NodeId) {});
  net->fail(ids[5]);
  net->heartbeat_sweep();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const TransportStats& stats = net->transport().stats();
  WorkloadResult r;
  r.seconds = dt;
  r.messages = stats.messages.load();
  r.wire_bytes = stats.bytes.load();
  r.heartbeats = stats.kind_count(MessageKind::kHeartbeatAck);
  r.heartbeat_probes = stats.kind_count(MessageKind::kHeartbeatProbe);
  r.multicast_forwards = stats.kind_count(MessageKind::kMulticastForward);

  // The workload's sweep cut every link to the failed node, so this one
  // pushes to no corpse.
  const std::size_t links = live_linked_pairs(*net);
  net->heartbeat_sweep();
  r.sweep_pushes_per_link =
      static_cast<double>(stats.kind_count(MessageKind::kHeartbeatAck) -
                          r.heartbeats) /
      static_cast<double>(links);
  return r;
}

int run_json() {
  const std::vector<Message> msgs = corpus();
  const std::uint64_t fixture_bytes = corpus_wire_bytes(msgs);
  const double mps = codec_throughput(msgs) / 1e6;

  double best_direct = 1e300;
  double best_loopback = 1e300;
  WorkloadResult loop{};
  for (int rep = 0; rep < 3; ++rep) {
    best_direct = std::min(best_direct, run_workload(TransportKind::kDirect).seconds);
    loop = run_workload(TransportKind::kLoopback);
    best_loopback = std::min(best_loopback, loop.seconds);
  }
  const double ratio = best_direct <= 0.0 ? 1.0 : best_loopback / best_direct;

  std::printf("{\"bench\":\"bench_transport\",\"metrics\":{"
              "\"wire_kinds\":%zu,\"wire_bytes_fixture\":%llu,"
              "\"codec_mps\":%.3f,\"loopback_messages\":%llu,"
              "\"loopback_wire_bytes\":%llu,"
              "\"loopback_heartbeats\":%llu,"
              "\"loopback_heartbeat_probes\":%llu,"
              "\"loopback_multicast_forwards\":%llu,"
              "\"sweep_pushes_per_link\":%.6f,"
              "\"loopback_overhead_ratio\":%.4f}}\n",
              kWireKindCount,
              static_cast<unsigned long long>(fixture_bytes), mps,
              static_cast<unsigned long long>(loop.messages),
              static_cast<unsigned long long>(loop.wire_bytes),
              static_cast<unsigned long long>(loop.heartbeats),
              static_cast<unsigned long long>(loop.heartbeat_probes),
              static_cast<unsigned long long>(loop.multicast_forwards),
              loop.sweep_pushes_per_link, ratio);
  return 0;
}

}  // namespace
}  // namespace tap::bench

int main(int argc, char** argv) {
  using namespace tap;
  using namespace tap::bench;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    else {
      std::fprintf(stderr, "usage: bench_transport [--json]\n");
      return 2;
    }
  }
  if (json) return run_json();

  print_header("Transport seam — codec and loopback overhead",
               "docs/transport.md: lossless wire format for every RPC; "
               "loopback (encode/decode) vs direct delivery");

  const std::vector<Message> msgs = corpus();
  const std::uint64_t fixture_bytes = corpus_wire_bytes(msgs);
  const double mps = codec_throughput(msgs) / 1e6;
  const WorkloadResult direct = run_workload(TransportKind::kDirect);
  const WorkloadResult loop = run_workload(TransportKind::kLoopback);

  TextTable table({"metric", "value"});
  table.add_row({"message kinds", fmt(kWireKindCount)});
  table.add_row({"corpus wire bytes (128/kind)", fmt(fixture_bytes)});
  table.add_row({"avg bytes/message",
                 fmt(static_cast<double>(fixture_bytes) / msgs.size(), 1)});
  table.add_row({"codec round-trips/s (M)", fmt(mps, 2)});
  table.add_row({"workload msgs (loopback)", fmt(loop.messages)});
  table.add_row({"workload wire bytes", fmt(loop.wire_bytes)});
  table.add_row({"  heartbeats (alive)", fmt(loop.heartbeats)});
  table.add_row({"  heartbeat probes", fmt(loop.heartbeat_probes)});
  table.add_row({"  multicast forwards", fmt(loop.multicast_forwards)});
  table.add_row({"sweep pushes per live link",
                 fmt(loop.sweep_pushes_per_link, 3)});
  table.add_row({"direct workload (s)", fmt(direct.seconds, 3)});
  table.add_row({"loopback workload (s)", fmt(loop.seconds, 3)});
  table.add_row({"loopback/direct ratio",
                 fmt(direct.seconds > 0 ? loop.seconds / direct.seconds : 1.0,
                     2)});
  table.print();
  std::printf(
      "\nreading guide: the loopback row re-runs the identical same-seed\n"
      "workload with every inter-node message serialized, queued, and\n"
      "parsed back; the direct transport reports zero wire bytes because\n"
      "it never encodes.  Results (availability, hops, pointers) are\n"
      "identical either way — the wire format is lossless.\n");
  return 0;
}
