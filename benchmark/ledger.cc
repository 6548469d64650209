#include "benchmark/ledger.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/tapestry/transport.h"
#include "src/tapestry/wire.h"

namespace tapbench {
namespace {

using namespace tap;

constexpr int kReps = 5;

volatile std::uint64_t g_sink = 0;
void keep(std::uint64_t v) { g_sink = g_sink + v; }

/// One timed batch per call; returns ns per op for each named metric.
struct Probe {
  std::vector<std::string> names;
  std::function<std::vector<double>()> run;
};

template <typename F>
double ns_per(std::size_t ops, F&& batch) {
  const std::int64_t t0 = now_ns();
  batch();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
}

template <typename F>
double allocs_per(std::size_t ops, F&& batch) {
  const std::uint64_t a0 = thread_allocs();
  batch();
  return static_cast<double>(thread_allocs() - a0) / static_cast<double>(ops);
}

/// A workload of another kind, small, after one measured phase.
struct Fixture {
  std::unique_ptr<Workload> w;
  PhaseResult phase;
};

Fixture mini_fixture(const std::string& name, const RunConfig& cfg) {
  RunConfig c = cfg;
  c.seed = cfg.seed ^ 0xf1c57ull;
  c.scale = 1.0;
  Fixture f;
  f.w = make_workload(name, c, /*mini=*/true);
  (void)f.w->setup();
  f.phase = f.w->run(1.0, /*traced=*/false);
  return f;
}

std::uint64_t id_mask(IdSpec spec) {
  return spec.total_bits() == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << spec.total_bits()) - 1;
}

/// `per_kind` messages of each kind listed, between live overlay nodes.
std::vector<Message> make_corpus(const std::vector<NodeId>& ids, IdSpec spec,
                                 Rng& rng,
                                 const std::vector<MessageKind>& kinds,
                                 std::size_t per_kind) {
  auto pick = [&] { return ids[rng.next_u64(ids.size())]; };
  std::vector<Message> out;
  for (const MessageKind kind : kinds) {
    for (std::size_t i = 0; i < per_kind; ++i) {
      Message m =
          make_message(kind, pick(), pick(), Id(spec, rng() & id_mask(spec)));
      m.server = pick();
      m.level = static_cast<unsigned>(rng.next_u64(spec.num_digits));
      m.flag = rng.next_u64(2) == 0;
      m.expires_at = 8.0 + rng.next_double();
      if (kind == MessageKind::kPublishDeposit ||
          kind == MessageKind::kPointerOptimize ||
          kind == MessageKind::kReplicaWrite)
        m.last_hop = pick();
      if (kind == MessageKind::kReplicaReadReply)
        for (std::uint64_t r = rng.next_u64(4); r > 0; --r)
          m.records.push_back(PointerRecord{pick(), pick(), m.level, m.flag,
                                            m.expires_at});
      out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace

LayerMetrics run_ledger(Workload& w, const PhaseResult& phase,
                        const RunConfig& cfg) {
  LayerMetrics out;
  auto put = [&out](std::string name, double v) {
    out.emplace_back(std::move(name), v);
  };
  Network& net = w.net();
  const TapestryParams& params = net.params();
  const IdSpec spec = params.id;

  // --- layer counters: the traced workload's own phase when it exercises
  // the layer, otherwise a small fixture of the workload that does ---
  Fixture churn, repl, loop, waves;
  const PhaseResult* cp = &phase;
  if (params.locate_cache_size == 0) {
    churn = mini_fixture("churn_event", cfg);
    cp = &churn.phase;
  }
  put("cache.hit_ratio",
      ratio(cp->cache_hits, double(cp->cache_hits + cp->cache_misses)));
  put("cache.bounce_ratio", ratio(cp->cache_fallbacks, cp->cache_hits));
  put("events.per_op", ratio(cp->events, cp->ops));

  Workload* rw = &w;
  const PhaseResult* rp = &phase;
  if (net.directory().replicator() == nullptr) {
    repl = mini_fixture("replicated_mix", cfg);
    rw = repl.w.get();
    rp = &repl.phase;
  }
  put("replicator.quorum_reads_per_op", ratio(rp->quorum_reads, rp->ops));
  put("replicator.read_repairs_per_op", ratio(rp->read_repairs, rp->ops));
  put("replicator.rereplications_per_fail",
      ratio(rp->rereplications, rp->fails));

  const PhaseResult* lp = &phase;
  if (params.transport != TransportKind::kLoopback) {
    loop = mini_fixture("write_mix", cfg);
    lp = &loop.phase;
  }
  put("wire.bytes_per_op", ratio(lp->wire_bytes, lp->ops));

  const PhaseResult* wp = &phase;
  if (w.name() != "membership_waves") {
    waves = mini_fixture("membership_waves", cfg);
    wp = &waves.phase;
  }
  put("maintenance.join_ms_per_node", wp->join_ms_per_node);
  put("maintenance.fail_repair_ms_per_node", wp->fail_ms_per_node);
  put("maintenance.leave_ms_per_node", wp->leave_ms_per_node);
  put("maintenance.join_msgs_per_node", ratio(wp->join_msgs, wp->joins));

  put("mem.table_entries_per_node",
      ratio(net.total_table_entries(), net.size()));
  put("mem.pointers_per_node", ratio(net.total_object_pointers(), net.size()));

  // --- seeded fixtures on the workload's overlay ---
  Rng rng(cfg.seed ^ 0x1ed6e5ull);
  const std::vector<NodeId> ids = net.node_ids();
  const auto objs = w.objects();
  auto any_id = [&] { return ids[rng.next_u64(ids.size())]; };
  std::uint64_t fresh = 0xf000000;
  auto fresh_batch = [&](Network& on, std::size_t n) {
    const std::vector<NodeId> live = on.node_ids();
    std::vector<std::pair<NodeId, Guid>> b;
    for (std::size_t i = 0; i < n; ++i)
      b.emplace_back(live[rng.next_u64(live.size())],
                     bench::bench_guid(on, fresh++));
    return b;
  };

  const NodeRegistry& reg = net.registry();
  std::vector<NodeId> find_ids(4096);
  for (NodeId& id : find_ids) id = any_id();
  auto find_pass = [&] {
    std::uint64_t s = 0;
    for (const NodeId& id : find_ids) s += reg.find(id) != nullptr;
    keep(s);
  };

  struct SlotProbe {
    const TapestryNode* node;
    unsigned level, desired;
  };
  std::vector<SlotProbe> slots(4096);
  for (SlotProbe& p : slots)
    p = {reg.find(any_id()),
         static_cast<unsigned>(rng.next_u64(spec.num_digits)),
         static_cast<unsigned>(rng.next_u64(spec.radix()))};
  std::vector<std::pair<NodeId, Guid>> routes;
  for (std::uint64_t i = 0; i < 1024; ++i)
    routes.emplace_back(any_id(), bench::bench_guid(net, 0xe000000 + i));
  auto route_pass = [&] {
    std::uint64_t hops = 0;
    for (const auto& [from, target] : routes)
      hops += net.route_to_root(from, target).hops;
    return hops;
  };

  std::vector<std::pair<NodeId, Guid>> queries;
  for (std::size_t i = 0; i < 1024; ++i)
    queries.emplace_back(any_id(), objs[rng.next_u64(objs.size())].first);
  auto locate_pass = [&] {
    std::uint64_t s = 0;
    for (const auto& [client, guid] : queries)
      s += net.locate(client, guid).found;
    keep(s);
  };
  const std::size_t n_async = 256;
  auto locate_async_pass = [&] {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < n_async; ++i) {
      net.locate_async(queries[i].first, queries[i].second,
                       [&s](const LocateResult& r) { s += r.found; });
      net.events().run();
    }
    keep(s);
  };
  auto publish_all = [](Network& on,
                        const std::vector<std::pair<NodeId, Guid>>& b) {
    for (const auto& [server, guid] : b) on.publish(server, guid);
  };
  auto unpublish_all = [](Network& on,
                          const std::vector<std::pair<NodeId, Guid>>& b) {
    for (const auto& [server, guid] : b) on.unpublish(server, guid);
  };
  auto publish_async_all = [](Network& on,
                              const std::vector<std::pair<NodeId, Guid>>& b) {
    for (const auto& [server, guid] : b) {
      on.publish_async(server, guid);
      on.events().run();
    }
  };

  // Standalone store fixtures: 1024 guids x 2 servers.
  struct Backend {
    const char* name;
    StoreBackend kind;
  };
  const Backend backends[] = {
      {"memory", StoreBackend::kMemory},
      {"sharded", StoreBackend::kSharded},
      {"persist", StoreBackend::kPersistent},
      {"replicated", StoreBackend::kReplicated},
      {"replicated_persist", StoreBackend::kReplicatedPersistent}};
  std::vector<Guid> store_guids;
  std::vector<std::pair<Guid, PointerRecord>> records;
  for (int g = 0; g < 1024; ++g) {
    store_guids.emplace_back(spec, rng() & id_mask(spec));
    for (int s = 0; s < 2; ++s) {
      PointerRecord rec;
      rec.server = NodeId(spec, rng() & id_mask(spec));
      rec.last_hop = NodeId(spec, rng() & id_mask(spec));
      rec.level = static_cast<unsigned>(rng.next_u64(spec.num_digits));
      records.emplace_back(store_guids.back(), rec);
    }
  }
  int store_dirs = 0;
  auto make_store = [&](StoreBackend kind) {
    TapestryParams p = bench::default_params();
    p.store_backend = kind;
    p.store_dir = cfg.tmpdir + "/store" + std::to_string(store_dirs++);
    return make_object_store(p, NodeId(spec, 1));
  };
  auto upsert_all = [&](ObjectStoreBackend& st) {
    for (const auto& [guid, rec] : records) st.upsert(guid, rec);
  };

  // Wire corpus: every kind, between live nodes of the overlay.
  std::vector<MessageKind> all_kinds;
  for (std::size_t k = 0; k < kWireKindCount; ++k)
    all_kinds.push_back(static_cast<MessageKind>(k));
  const std::vector<Message> corpus = make_corpus(ids, spec, rng, all_kinds, 64);
  const std::vector<Message> steps =
      make_corpus(ids, spec, rng, {MessageKind::kLocateStep}, 1024);
  const std::vector<Message> deposits =
      make_corpus(ids, spec, rng, {MessageKind::kPublishDeposit}, 1024);
  std::vector<Datagram> encoded;
  double corpus_bytes = 0.0;
  for (const Message& m : corpus) {
    encoded.push_back(encode(m));
    corpus_bytes += static_cast<double>(encoded.back().size());
  }
  auto encode_pass = [&] {
    std::uint64_t s = 0;
    for (const Message& m : corpus) s += encode(m).size();
    keep(s);
  };
  auto deliver_pass = [](Transport& t, const std::vector<Message>& msgs) {
    std::uint64_t s = 0;
    for (const Message& m : msgs) s += t.deliver(m).level;
    keep(s);
  };
  struct NamedTransport {
    const char* name;
    std::unique_ptr<Transport> t;
  };
  std::vector<NamedTransport> transports;
  for (const TransportKind kind :
       {TransportKind::kDirect, TransportKind::kLoopback}) {
    TapestryParams p = params;
    p.transport = kind;
    transports.push_back({transport_kind_name(kind), make_transport(p)});
  }

  std::vector<double> delays(4096);
  for (double& d : delays) d = rng.next_double() * 10.0;
  auto schedule_pop = [&delays] {
    EventQueue q;
    std::uint64_t fired = 0;
    for (const double d : delays) q.schedule_in(d, [&fired] { ++fired; });
    while (q.step()) {
    }
    keep(fired);
  };

  // --- exact allocation counts (one untimed pass each) ---
  put("registry.find_allocs", allocs_per(find_ids.size(), find_pass));
  put("router.route_to_root_allocs",
      allocs_per(routes.size(), [&] { keep(route_pass()); }));
  put("router.hops_per_route", ratio(route_pass(), routes.size()));
  put("directory.locate_allocs", allocs_per(queries.size(), locate_pass));
  {
    const auto b = fresh_batch(net, 256);
    put("directory.publish_allocs",
        allocs_per(b.size(), [&] { publish_all(net, b); }));
    put("directory.unpublish_allocs",
        allocs_per(b.size(), [&] { unpublish_all(net, b); }));
    const auto a = fresh_batch(net, 256);
    put("directory.publish_async_allocs",
        allocs_per(a.size(), [&] { publish_async_all(net, a); }));
    unpublish_all(net, a);
  }
  put("directory.locate_async_allocs", allocs_per(n_async, locate_async_pass));
  for (const Backend& b : backends) {
    auto st = make_store(b.kind);
    put(std::string("store.") + b.name + ".upsert_allocs",
        allocs_per(records.size(), [&] { upsert_all(*st); }));
  }
  for (NamedTransport& nt : transports)
    put(std::string("transport.") + nt.name + ".deliver_allocs",
        allocs_per(corpus.size(), [&] { deliver_pass(*nt.t, corpus); }));
  put("wire.encode_allocs", allocs_per(corpus.size(), encode_pass));
  put("wire.bytes_per_msg", corpus_bytes / static_cast<double>(corpus.size()));
  put("events.allocs_per_event", allocs_per(delays.size(), schedule_pop));

  // --- timings: min of kReps interleaved repetitions ---
  std::vector<Probe> probes;
  probes.push_back({{"registry.find_ns"}, [&] {
                      return std::vector<double>{
                          ns_per(find_ids.size(), find_pass)};
                    }});
  probes.push_back({{"router.select_slot_ns"}, [&] {
                      const Router& router = net.router();
                      return std::vector<double>{ns_per(slots.size(), [&] {
                        std::uint64_t s = 0;
                        for (const SlotProbe& p : slots) {
                          bool past_hole = false;
                          const auto j = router.select_slot(
                              *p.node, p.level, p.desired, past_hole);
                          s += j.has_value() ? *j : 0;
                        }
                        keep(s);
                      })};
                    }});
  probes.push_back({{"router.route_step_peek_ns"}, [&] {
                      const Router& router = net.router();
                      return std::vector<double>{ns_per(routes.size(), [&] {
                        std::uint64_t s = 0;
                        for (const auto& [from, target] : routes) {
                          RouteState st;
                          s += router.route_step_peek(from, target, st)
                                   .has_value();
                        }
                        keep(s);
                      })};
                    }});
  probes.push_back({{"router.route_to_root_ns"}, [&] {
                      return std::vector<double>{ns_per(
                          routes.size(), [&] { keep(route_pass()); })};
                    }});
  probes.push_back({{"directory.locate_ns"}, [&] {
                      return std::vector<double>{
                          ns_per(queries.size(), locate_pass)};
                    }});
  probes.push_back(
      {{"directory.publish_ns", "directory.unpublish_ns"}, [&] {
         const auto b = fresh_batch(net, 256);
         const double pub = ns_per(b.size(), [&] { publish_all(net, b); });
         const double unpub = ns_per(b.size(), [&] { unpublish_all(net, b); });
         return std::vector<double>{pub, unpub};
       }});
  probes.push_back({{"directory.locate_async_ns"}, [&] {
                      return std::vector<double>{
                          ns_per(n_async, locate_async_pass)};
                    }});
  probes.push_back({{"directory.publish_async_ns"}, [&] {
                      const auto b = fresh_batch(net, 128);
                      const double t =
                          ns_per(b.size(), [&] { publish_async_all(net, b); });
                      unpublish_all(net, b);
                      return std::vector<double>{t};
                    }});
  for (const Backend& be : backends) {
    const std::string p = std::string("store.") + be.name;
    probes.push_back(
        {{p + ".upsert_ns", p + ".find_ns", p + ".for_each_of_ns",
          p + ".remove_ns"},
         [&, kind = be.kind] {
           auto st = make_store(kind);
           std::uint64_t s = 0;
           const ObjectStoreBackend::Visitor visit =
               [&s](const Guid&, const PointerRecord& r) { s += r.level; };
           const double up = ns_per(records.size(), [&] { upsert_all(*st); });
           const double find = ns_per(records.size(), [&] {
             for (const auto& [guid, rec] : records)
               s += st->find(guid, rec.server).has_value();
           });
           const double each = ns_per(store_guids.size(), [&] {
             for (const Guid& g : store_guids) st->for_each_of(g, visit);
           });
           const double rm = ns_per(records.size(), [&] {
             for (const auto& [guid, rec] : records)
               s += st->remove(guid, rec.server);
           });
           keep(s);
           return std::vector<double>{up, find, each, rm};
         }});
  }
  probes.push_back({{"replicator.publish_ns"}, [&] {
                      Network& on = rw->net();
                      const auto b = fresh_batch(on, 64);
                      const double t =
                          ns_per(b.size(), [&] { publish_all(on, b); });
                      unpublish_all(on, b);
                      return std::vector<double>{t};
                    }});
  for (NamedTransport& nt : transports) {
    const std::string p = std::string("transport.") + nt.name;
    probes.push_back(
        {{p + ".deliver_ns", p + ".locate_step_ns", p + ".publish_deposit_ns"},
         [&, t = nt.t.get()] {
           return std::vector<double>{
               ns_per(corpus.size(), [&] { deliver_pass(*t, corpus); }),
               ns_per(steps.size(), [&] { deliver_pass(*t, steps); }),
               ns_per(deposits.size(), [&] { deliver_pass(*t, deposits); })};
         }});
  }
  probes.push_back({{"wire.encode_ns", "wire.decode_ns"}, [&] {
                      const double enc = ns_per(corpus.size(), encode_pass);
                      const double dec = ns_per(encoded.size(), [&] {
                        std::uint64_t s = 0;
                        for (const Datagram& dg : encoded) s += decode(dg).level;
                        keep(s);
                      });
                      return std::vector<double>{enc, dec};
                    }});
  probes.push_back({{"events.schedule_pop_ns", "events.cancel_ns"}, [&] {
                      const double sp = ns_per(delays.size(), schedule_pop);
                      EventQueue q;
                      std::vector<EventId> pending;
                      for (const double d : delays)
                        pending.push_back(q.schedule_in(d, [] {}));
                      const double cancel = ns_per(pending.size(), [&] {
                        std::uint64_t s = 0;
                        for (const EventId id : pending) s += q.cancel(id);
                        keep(s);
                      });
                      return std::vector<double>{sp, cancel};
                    }});
  probes.push_back({{"maintenance.heartbeat_sweep_ms"}, [&] {
                      return std::vector<double>{
                          ns_per(1, [&] { net.heartbeat_sweep(); }) / 1e6};
                    }});
  // Registry on/off around the same locate batch, reported as a ratio.
  // The order flips every repetition: the second pass over the batch runs
  // on warm caches.
  const std::size_t metrics_probe = probes.size();
  bool off_first = false;
  probes.push_back({{"metrics.on", "metrics.off"}, [&] {
                      auto pass = [&](bool on) {
                        metrics::set_enabled(on);
                        const double t = ns_per(queries.size(), locate_pass);
                        metrics::set_enabled(true);
                        return t;
                      };
                      off_first = !off_first;
                      const double first = pass(!off_first);
                      const double second = pass(off_first);
                      return off_first ? std::vector<double>{second, first}
                                       : std::vector<double>{first, second};
                    }});

  std::vector<std::vector<double>> best(probes.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::vector<double> v = probes[i].run();
      if (best[i].empty()) {
        best[i] = v;
        continue;
      }
      for (std::size_t j = 0; j < v.size(); ++j)
        best[i][j] = std::min(best[i][j], v[j]);
    }
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (i == metrics_probe) continue;
    for (std::size_t j = 0; j < probes[i].names.size(); ++j)
      put(probes[i].names[j], best[i][j]);
  }
  put("metrics.overhead_ratio",
      ratio(best[metrics_probe][0], best[metrics_probe][1]));

  std::error_code ec;
  std::filesystem::remove_all(cfg.tmpdir, ec);
  return out;
}

}  // namespace tapbench
