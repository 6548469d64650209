// bench_store — object-store backend comparison (ISSUE 4).
//
// Times the three ObjectStoreBackend implementations under the mixes the
// simulator actually generates — publish-path upserts, locate-path reads,
// expiry sweeps, and the publish_batch deposit drain — and emits the
// metrics the perf-smoke CI job gates via tools/check_bench.py
// (bench/baselines/bench_store.json):
//
//   * memory_vs_legacy_{upsert,findlive}: MemoryStore (through the virtual
//     interface) relative to an inlined copy of the pre-refactor
//     ObjectStore — the guard that the backend seam costs nothing on the
//     old hot paths.  Ratio gates, machine-independent.
//   * sharded_drain_speedup: a task-ordered deposit stream drained into
//     ShardedStores serially vs in parallel partitioned by lock stripe
//     (the publish_batch phase-2 scheme).  Floor gate, PR 3 style: ~1x on
//     a single hardware thread, the real win appears on multi-core CI.
//   * backend_agreement / drain_match / persist_roundtrip: exact gates
//     that every backend saw the same visible state, the parallel drain
//     matched the serial one, and the persistent store survived a close
//     -> reopen round trip bit-for-bit.
//   * replicated_kill_availability: overlay-level availability after
//     killing every published object's current root (and, for half the
//     objects, additionally its first replica holder) with no republish
//     running.  Floor gate at 1.0 for the replicated backend — quorum
//     reads must absorb every kill; the memory backend's figure under the
//     identical kill schedule is reported for contrast.
//   * replica_holder_distance_evals: metric distance evaluations the kill
//     fixture's replicated publishes make beyond the same publishes on
//     the memory backend — the holder-selection work, exact.
//   * replica_sets_after_unpublish: the kill fixture's guids that keep a
//     holder set once their live servers unpublished them; a set goes
//     with its last mirrored record, so exactly 0.
//
// Absolute throughput figures are reported as informational metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench_util.h"
#include "src/common/flags.h"
#include "src/metric/ring.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/network.h"
#include "src/tapestry/persistent_store.h"
#include "src/tapestry/replicated_store.h"
#include "src/tapestry/sharded_store.h"

namespace {

using namespace tap;
using namespace tap::bench;

// Verbatim copy of the pre-refactor ObjectStore (non-virtual, concrete):
// the baseline the MemoryStore backend must not regress against.
class LegacyStore {
 public:
  void upsert(const Guid& guid, const PointerRecord& record) {
    auto& vec = map_[guid];
    for (auto& r : vec) {
      if (r.server == record.server) {
        r = record;
        return;
      }
    }
    vec.push_back(record);
    ++count_;
  }
  [[nodiscard]] std::vector<PointerRecord> find_live(const Guid& guid,
                                                     double now) const {
    std::vector<PointerRecord> out;
    auto it = map_.find(guid);
    if (it == map_.end()) return out;
    for (const auto& r : it->second)
      if (r.expires_at >= now) out.push_back(r);
    return out;
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  std::unordered_map<Guid, std::vector<PointerRecord>> map_;
  std::size_t count_ = 0;
};

constexpr IdSpec kSpec{4, 8};
constexpr std::size_t kGuids = 4096;
constexpr std::size_t kServers = 4;
constexpr std::size_t kUpserts = 300'000;
constexpr std::size_t kReadPasses = 24;
constexpr std::size_t kDrainDeposits = 400'000;
constexpr std::size_t kDrainStores = 2;

Guid guid_at(std::uint64_t i) {
  return Guid(kSpec, splitmix64(i ^ 0x5701) & kSpec.mask());
}
NodeId server_at(std::uint64_t i) {
  return NodeId(kSpec, splitmix64(i ^ 0xbead) & kSpec.mask());
}

struct Op {
  std::uint32_t guid;
  std::uint32_t server;
  double expires;
};

std::vector<Op> make_ops(std::size_t n, std::uint64_t seed) {
  std::vector<Op> ops(n);
  Rng rng(seed);
  for (auto& op : ops) {
    op.guid = static_cast<std::uint32_t>(rng.next_u64(kGuids));
    op.server = static_cast<std::uint32_t>(rng.next_u64(kServers));
    // Half the records are past-deadline by sweep time (t = 50).
    op.expires = rng.next_double() * 100.0;
  }
  return ops;
}

double best_ms(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms < best) best = ms;
  }
  return best;
}

template <typename Store>
void apply_ops(Store& store, const std::vector<Op>& ops) {
  for (const Op& op : ops)
    store.upsert(guid_at(op.guid),
                 PointerRecord{server_at(op.server), std::nullopt, 0, false,
                               op.expires});
}

/// Locate-path read: best live record per guid (max server value stands in
/// for the distance ranking).  Legacy flavor: find_live copy then scan.
std::uint64_t read_pass_legacy(const LegacyStore& store) {
  std::uint64_t sum = 0;
  for (std::size_t g = 0; g < kGuids; ++g) {
    const auto recs = store.find_live(guid_at(g), 50.0);
    std::uint64_t best = 0;
    for (const auto& r : recs) best = std::max(best, r.server.value());
    sum = sum * 31 + best + recs.size();
  }
  return sum;
}

/// Backend flavor: the for_each_of visitor the directory's locate uses.
std::uint64_t read_pass_visitor(const ObjectStoreBackend& store) {
  std::uint64_t sum = 0;
  for (std::size_t g = 0; g < kGuids; ++g) {
    std::uint64_t best = 0;
    std::size_t live = 0;
    store.for_each_of(guid_at(g),
                      [&](const Guid&, const PointerRecord& r) {
                        if (r.expires_at < 50.0) return;
                        best = std::max(best, r.server.value());
                        ++live;
                      });
    sum = sum * 31 + best + live;
  }
  return sum;
}

std::uint64_t store_fingerprint(const ObjectStoreBackend& store) {
  auto snap = store.snapshot();
  std::sort(snap.begin(), snap.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.server < b.second.server;
  });
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [g, r] : snap) {
    h = splitmix64(h ^ g.value());
    h = splitmix64(h ^ r.server.value());
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.expires_at * 1e6));
  }
  return h;
}

// ---- availability under root/holder kills (static overlay, no timers) ----

struct KillRun {
  double availability = 1.0;
  std::size_t queries = 0;
  std::size_t kills = 0;
  std::uint64_t publish_distance_evals = 0;  ///< metric calls of the publishes
  std::size_t sets_after_unpublish = 0;  ///< guids keeping a holder set
};

/// Builds a static 128-node overlay on `backend`, publishes 24 objects,
/// kills each object's current surrogate root (skipping roots that serve
/// the object themselves), additionally kills the first replica holder of
/// every odd object when the backend has one, then locates everything
/// from remote clients.  No republish or expiry timers run, so the only
/// recovery path is the quorum read.  Then every live server unpublishes
/// its objects, and the unpublished guids that still have a holder set
/// are counted.
/// Deterministic: same seeds, same kill schedule for every backend.
KillRun kill_availability_run(StoreBackend backend) {
  constexpr std::size_t kNodes = 128, kObjects = 24;
  TapestryParams p;
  p.id = kSpec;
  p.redundancy = 3;
  p.store_backend = backend;
  Rng rng(11);
  RingMetric ring(kNodes + 8, rng);
  CountingSpace space(ring);
  Network net(space, p, 51);
  for (std::size_t i = 0; i < kNodes; ++i) net.insert_static(i);
  net.rebuild_static_tables();
  const auto ids = net.node_ids();

  KillRun out;
  std::vector<Guid> guids;
  Rng wl(5);
  const std::uint64_t evals_before = space.calls();
  for (std::size_t i = 0; i < kObjects; ++i) {
    guids.push_back(guid_at(0x900 + i));
    net.publish(ids[wl.next_u64(ids.size())], guids.back());
  }
  out.publish_distance_evals = space.calls() - evals_before;

  QuorumReplicator* repl = net.directory().replicator();
  auto kill_unless_server = [&](const NodeId& victim, const Guid& object) {
    if (!net.registry().is_live(victim)) return;
    const auto servers = net.servers_of(object);
    if (std::find(servers.begin(), servers.end(), victim) != servers.end())
      return;  // the object would legitimately vanish with its server
    net.fail(victim);
    ++out.kills;
  };
  for (std::size_t i = 0; i < guids.size(); ++i) {
    const Guid salted = salted_guid(guids[i], 0);
    kill_unless_server(net.surrogate_root(salted), guids[i]);
    if (i % 2 == 1 && repl != nullptr) {
      if (const auto* hs = repl->holders(salted);
          hs != nullptr && !hs->empty())
        kill_unless_server(hs->front(), guids[i]);
    }
  }

  std::size_t found = 0;
  for (const Guid& g : guids) {
    const auto servers = net.servers_of(g);
    if (servers.empty() || !net.registry().is_live(servers[0]))
      continue;  // collateral server death: not a replication loss
    NodeId client = servers[0];
    for (const NodeId& id : ids) {
      if (net.registry().is_live(id) && !(id == servers[0])) {
        client = id;
        break;
      }
    }
    ++out.queries;
    if (net.locate(client, g).found) ++found;
  }
  out.availability =
      out.queries == 0
          ? 1.0
          : static_cast<double>(found) / static_cast<double>(out.queries);

  // Withdraw every object a live server still serves.  A collateral
  // server death leaves its object's mirrors to soft-state expiry, which
  // this fixture never runs, so those guids are not counted.
  for (const Guid& g : guids) {
    const auto servers = net.servers_of(g);  // live servers only
    if (servers.empty()) continue;
    for (const NodeId& server : servers) net.unpublish(server, g);
    if (repl != nullptr && repl->holders(salted_guid(g, 0)) != nullptr)
      ++out.sets_after_unpublish;
  }
  return out;
}

int run(bool json, std::size_t threads) {
  const auto ops = make_ops(kUpserts, 42);

  // ---- upsert throughput (fresh store per rep) ----
  LegacyStore legacy_keep;
  const double legacy_upsert_ms = best_ms(
      [&] {
        LegacyStore s;
        apply_ops(s, ops);
        if (s.size() > 0) legacy_keep = std::move(s);
      },
      3);
  double mem_upsert_ms = 0.0, shard_upsert_ms = 0.0, persist_upsert_ms = 0.0;
  std::unique_ptr<ObjectStoreBackend> mem, shard, persist;
  const std::string persist_dir = "tapestry_store.bench";
  std::filesystem::remove_all(persist_dir);
  {
    mem_upsert_ms = best_ms(
        [&] {
          mem = std::make_unique<MemoryStore>();
          apply_ops(*mem, ops);
        },
        3);
    shard_upsert_ms = best_ms(
        [&] {
          shard = std::make_unique<ShardedStore>();
          apply_ops(*shard, ops);
        },
        3);
    persist_upsert_ms = best_ms(
        [&] {
          std::filesystem::remove_all(persist_dir);
          persist = std::make_unique<PersistentStore>(persist_dir,
                                                      server_at(7), kSpec);
          apply_ops(*persist, ops);
        },
        3);
  }

  // ---- locate-path reads ----
  std::uint64_t sum_legacy = 0, sum_mem = 0, sum_shard = 0, sum_persist = 0;
  const double legacy_read_ms = best_ms(
      [&] {
        for (std::size_t p = 0; p < kReadPasses; ++p)
          sum_legacy = read_pass_legacy(legacy_keep);
      },
      3);
  const double mem_read_ms = best_ms(
      [&] {
        for (std::size_t p = 0; p < kReadPasses; ++p)
          sum_mem = read_pass_visitor(*mem);
      },
      3);
  const double shard_read_ms = best_ms(
      [&] {
        for (std::size_t p = 0; p < kReadPasses; ++p)
          sum_shard = read_pass_visitor(*shard);
      },
      3);
  const double persist_read_ms = best_ms(
      [&] {
        for (std::size_t p = 0; p < kReadPasses; ++p)
          sum_persist = read_pass_visitor(*persist);
      },
      3);
  const bool agreement = sum_legacy == sum_mem && sum_mem == sum_shard &&
                         sum_shard == sum_persist;

  // ---- persistent round trip (flushed state reopens bit-identically) ----
  const std::uint64_t persist_fp_before = store_fingerprint(*persist);
  const StoreStats persist_stats = persist->stats();
  persist.reset();  // close files
  double recover_ms = 0.0;
  bool roundtrip = false;
  {
    const auto t0 = std::chrono::steady_clock::now();
    PersistentStore revived(persist_dir, server_at(7), kSpec);
    recover_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    roundtrip = store_fingerprint(revived) == persist_fp_before &&
                revived.size() == mem->size();
  }
  std::filesystem::remove_all(persist_dir);

  // ---- expiry sweep ----
  const double mem_expire_ms = best_ms([&] { mem->remove_expired(50.0); }, 1);
  const double shard_expire_ms =
      best_ms([&] { shard->remove_expired(50.0); }, 1);

  // ---- publish_batch deposit drain: serial vs stripe-parallel ----
  const auto deposits = make_ops(kDrainDeposits, 77);
  std::array<ShardedStore, kDrainStores> serial_stores;
  const double drain_serial_ms = best_ms(
      [&] {
        for (std::size_t i = 0; i < deposits.size(); ++i) {
          const Op& op = deposits[i];
          serial_stores[i % kDrainStores].upsert(
              guid_at(op.guid),
              PointerRecord{server_at(op.server), std::nullopt, 0, false,
                            op.expires});
        }
      },
      1);
  // Group (deposit index) by guid stripe, preserving task order within a
  // group — the exact partition ObjectDirectory::publish_batch phase 2
  // uses for the sharded backend.
  std::array<std::vector<std::uint32_t>, ShardedStore::kStripeCount> groups;
  for (std::size_t i = 0; i < deposits.size(); ++i)
    groups[ShardedStore::stripe_of(guid_at(deposits[i].guid))].push_back(
        static_cast<std::uint32_t>(i));
  std::array<ShardedStore, kDrainStores> parallel_stores;
  const double drain_parallel_ms = best_ms(
      [&] {
        parallel_for(
            ShardedStore::kStripeCount,
            [&](std::size_t stripe) {
              for (const std::uint32_t i : groups[stripe]) {
                const Op& op = deposits[i];
                parallel_stores[i % kDrainStores].upsert(
                    guid_at(op.guid),
                    PointerRecord{server_at(op.server), std::nullopt, 0,
                                  false, op.expires});
              }
            },
            threads);
      },
      1);
  bool drain_match = true;
  for (std::size_t s = 0; s < kDrainStores; ++s)
    drain_match = drain_match && store_fingerprint(serial_stores[s]) ==
                                     store_fingerprint(parallel_stores[s]);

  const double upsert_ratio = mem_upsert_ms / legacy_upsert_ms;
  const double read_ratio = mem_read_ms / legacy_read_ms;
  const double drain_speedup = drain_serial_ms / drain_parallel_ms;

  // ---- availability under kills: replicated must dominate memory ----
  const KillRun kill_mem = kill_availability_run(StoreBackend::kMemory);
  const KillRun kill_repl = kill_availability_run(StoreBackend::kReplicated);
  const bool kill_ok = kill_repl.availability >= kill_mem.availability;
  // Holder selection's share of the publishes: the replicated backend's
  // distance evaluations beyond the identical publishes on memory stores.
  const std::uint64_t holder_evals =
      kill_repl.publish_distance_evals - kill_mem.publish_distance_evals;

  if (json) {
    std::printf(
        "{\"bench\":\"bench_store\",\"metrics\":{"
        "\"backend_agreement\":%d,\"drain_match\":%d,"
        "\"persist_roundtrip\":%d,"
        "\"memory_vs_legacy_upsert\":%.3f,"
        "\"memory_vs_legacy_findlive\":%.3f,"
        "\"sharded_drain_speedup\":%.3f,"
        "\"upsert_ms_legacy\":%.2f,\"upsert_ms_memory\":%.2f,"
        "\"upsert_ms_sharded\":%.2f,\"upsert_ms_persist\":%.2f,"
        "\"read_ms_legacy\":%.2f,\"read_ms_memory\":%.2f,"
        "\"read_ms_sharded\":%.2f,\"read_ms_persist\":%.2f,"
        "\"expire_ms_memory\":%.2f,\"expire_ms_sharded\":%.2f,"
        "\"drain_serial_ms\":%.2f,\"drain_parallel_ms\":%.2f,"
        "\"persist_wal_mb\":%.2f,\"persist_compactions\":%zu,"
        "\"persist_recover_ms\":%.2f,"
        "\"replicated_kill_availability\":%.4f,"
        "\"memory_kill_availability\":%.4f,"
        "\"kill_count\":%zu,"
        "\"replica_holder_distance_evals\":%llu,"
        "\"replica_sets_after_unpublish\":%zu}}\n",
        agreement ? 1 : 0, drain_match ? 1 : 0, roundtrip ? 1 : 0,
        upsert_ratio, read_ratio, drain_speedup, legacy_upsert_ms,
        mem_upsert_ms, shard_upsert_ms, persist_upsert_ms, legacy_read_ms,
        mem_read_ms, shard_read_ms, persist_read_ms, mem_expire_ms,
        shard_expire_ms, drain_serial_ms, drain_parallel_ms,
        static_cast<double>(persist_stats.wal_bytes) / (1024.0 * 1024.0),
        persist_stats.compactions, recover_ms, kill_repl.availability,
        kill_mem.availability, kill_repl.kills,
        static_cast<unsigned long long>(holder_evals),
        kill_repl.sets_after_unpublish);
    return agreement && drain_match && roundtrip && kill_ok ? 0 : 1;
  }

  print_header("E14 — object-store backends",
               "ISSUE 4: memory / sharded / persistent object stores "
               "behind the ObjectDirectory seam");
  std::printf("workload: %zu upserts over %zu guids x %zu servers; "
              "%zu read passes; %zu drain deposits; %zu threads\n\n",
              kUpserts, kGuids, kServers, kReadPasses, kDrainDeposits,
              threads == 0 ? default_worker_count() : threads);
  std::printf("  %-9s %12s %12s %12s\n", "backend", "upsert ms", "read ms",
              "expire ms");
  std::printf("  %-9s %12.1f %12.1f %12s\n", "legacy", legacy_upsert_ms,
              legacy_read_ms, "-");
  std::printf("  %-9s %12.1f %12.1f %12.2f\n", "memory", mem_upsert_ms,
              mem_read_ms, mem_expire_ms);
  std::printf("  %-9s %12.1f %12.1f %12.2f\n", "sharded", shard_upsert_ms,
              shard_read_ms, shard_expire_ms);
  std::printf("  %-9s %12.1f %12.1f %12s\n", "persist", persist_upsert_ms,
              persist_read_ms, "-");
  std::printf("\nmemory vs legacy: upsert %.2fx, locate-read %.2fx "
              "(<= 1 + noise: the seam is free)\n",
              upsert_ratio, read_ratio);
  std::printf("sharded drain: serial %.1f ms, stripe-parallel %.1f ms "
              "(%.2fx), match %s\n",
              drain_serial_ms, drain_parallel_ms, drain_speedup,
              drain_match ? "exact" : "BROKEN");
  std::printf("persist: %.1f MB WAL, %zu compactions, recover %.1f ms, "
              "round trip %s\n",
              static_cast<double>(persist_stats.wal_bytes) /
                  (1024.0 * 1024.0),
              persist_stats.compactions, recover_ms,
              roundtrip ? "exact" : "BROKEN");
  std::printf("read agreement across backends: %s\n",
              agreement ? "exact" : "BROKEN");
  std::printf("availability after %zu root/holder kills: replicated %.2f%% "
              "vs memory %.2f%% over %zu locates (%s)\n",
              kill_repl.kills, kill_repl.availability * 100.0,
              kill_mem.availability * 100.0, kill_repl.queries,
              kill_ok ? "replicated dominates" : "BROKEN");
  std::printf("holder selection: %llu distance evaluations beyond the "
              "same publishes on memory stores\n",
              static_cast<unsigned long long>(holder_evals));
  std::printf("holder sets left after unpublishing every object: %zu\n",
              kill_repl.sets_after_unpublish);
  return agreement && drain_match && roundtrip && kill_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    else if (tap::number_flag(argv[i], "--threads", &threads)) continue;
    else {
      std::fprintf(stderr, "usage: bench_store [--json] [--threads=N]\n");
      return 2;
    }
  }
  return run(json, threads);
}
