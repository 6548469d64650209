#include "src/tapestry/locality.h"

#include <algorithm>

namespace tap {

LocalityManager::LocalityManager(Network& net, const TransitStubMetric& ts)
    : net_(net), ts_(ts) {
  TAP_CHECK(&net.space() == &ts,
            "LocalityManager requires the network's own transit-stub space");
}

std::size_t LocalityManager::stub_of(const NodeId& node) const {
  return ts_.stub_of(net_.node(node).location());
}

std::vector<NodeId> LocalityManager::stub_members(std::size_t stub) const {
  std::vector<NodeId> out;
  for (const NodeId& id : net_.node_ids())
    if (ts_.stub_of(net_.node(id).location()) == stub) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

NodeId LocalityManager::local_root(std::size_t stub, const Guid& guid) const {
  const std::vector<NodeId> members = stub_members(stub);
  TAP_CHECK(!members.empty(), "stub has no live members");
  // Longest prefix match first; among ties, the smallest wrap-around
  // next-digit offset (the Tapestry native rule), then the id itself.
  const unsigned radix = guid.radix();
  NodeId best = members.front();
  unsigned best_gcp = guid.common_prefix_len(best);
  auto offset = [&](const NodeId& m, unsigned gcp) -> unsigned {
    if (gcp >= guid.num_digits()) return 0;
    const unsigned want = guid.digit(gcp);
    const unsigned have = m.digit(gcp);
    return (have + radix - want) % radix;
  };
  for (const NodeId& m : members) {
    const unsigned g = guid.common_prefix_len(m);
    if (g > best_gcp ||
        (g == best_gcp && offset(m, g) < offset(best, best_gcp)) ||
        (g == best_gcp && offset(m, g) == offset(best, best_gcp) && m < best)) {
      best = m;
      best_gcp = g;
    }
  }
  return best;
}

void LocalityManager::publish(NodeId server, const Guid& guid, Trace* trace) {
  net_.publish(server, guid, trace);
  // Local branch: deposit a pointer at the stub's local root for every
  // salted name, so local queries resolve whichever root they pick.  The
  // root stores the record as delivered, as on the global path.
  const std::size_t stub = stub_of(server);
  const double expires =
      net_.now() + net_.params().pointer_ttl;
  for (unsigned salt = 0; salt < net_.params().root_multiplicity; ++salt) {
    const Guid g = salted_guid(guid, salt);
    const NodeId root = local_root(stub, g);
    if (root == server) continue;  // the server already holds its own record
    Message m = make_message(MessageKind::kPublishDeposit, server, root, g);
    m.set_record(PointerRecord{server, server,
                               /*level=*/net_.params().id.num_digits,
                               /*past_hole=*/true, expires});
    const double d =
        net_.registry().hop_dist(trace, net_.node(server), net_.node(root));
    m = net_.transport().send(m, d, trace);
    net_.node(root).store().upsert(g, m.record());
  }
}

void LocalityManager::unpublish(NodeId server, const Guid& guid, Trace* trace) {
  const std::size_t stub = stub_of(server);
  for (unsigned salt = 0; salt < net_.params().root_multiplicity; ++salt) {
    const Guid g = salted_guid(guid, salt);
    const NodeId root = local_root(stub, g);
    if (root == server) continue;  // net_.unpublish removes its own record
    Message m = make_message(MessageKind::kUnpublish, server, root, g);
    m.set_record(PointerRecord{server});
    const double d =
        net_.registry().hop_dist(trace, net_.node(server), net_.node(root));
    m = net_.transport().send(m, d, trace);
    net_.node(root).store().remove(g, m.server);
  }
  net_.unpublish(server, guid, trace);
}

LocateResult LocalityManager::locate(NodeId client, const Guid& guid,
                                     Trace* trace) {
  // Local branch first: one round trip to the stub's local root.
  const std::size_t stub = stub_of(client);
  const Guid g0 = salted_guid(guid, 0);
  const NodeId root = local_root(stub, g0);
  // The result counts the query's own messages: the local probe and
  // hand-off, booked on `sent`, plus a wide-area locate's own hops.
  Trace sent;
  auto finish = [&](LocateResult r) {
    r.hops += sent.messages();
    r.latency += sent.latency();
    if (trace != nullptr) trace->absorb(sent);
    return r;
  };

  if (!(root == client))
    net_.transport().send(
        make_message(MessageKind::kLocateStep, client, root, g0),
        net_.distance(client, root), &sent);
  auto records = net_.node(root).store().find_live(g0, net_.now());
  std::sort(records.begin(), records.end(),
            [&](const PointerRecord& a, const PointerRecord& b) {
              return net_.distance(client, a.server) <
                     net_.distance(client, b.server);
            });
  for (const auto& rec : records) {
    if (!net_.contains(rec.server)) continue;
    if (ts_.stub_of(net_.node(rec.server).location()) != stub) continue;
    // Local hit: hand the query straight to the replica.
    LocateResult r;
    r.found = true;
    r.pointer_node = root;
    r.server = rec.server;
    if (!(rec.server == root)) {
      Message found =
          make_message(MessageKind::kLocateFound, root, rec.server, g0);
      found.server = rec.server;
      found =
          net_.transport().send(found, net_.distance(root, rec.server), &sent);
      r.server = found.server;
    }
    return finish(r);
  }

  // Local miss: resume wide-area location from the client.
  return finish(net_.locate(client, guid, trace));
}

}  // namespace tap
