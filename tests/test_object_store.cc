// Backend conformance suite for the object-store API (ISSUE 4).
//
// The ObjectStoreBackend contract (object_store.h) promises that any
// single-threaded op sequence drives all three backends — MemoryStore (the
// reference), ShardedStore, PersistentStore — to identical visible state:
// size(), find(), find_all()/find_live() per-guid order, for_each_of
// visitation, and snapshot() up to global ordering.  The suite fuzzes that
// property over scripted and seeded-random sequences, pins the expiry
// edge at now == expires_at (inclusive deadline: still live, not swept),
// and proves the PersistentStore crash-recovery round trip: after flush()
// the on-disk state rebuilds a bit-identical store, through both recover()
// and a fresh construction, across WAL-only and compacted histories.
// Replay and the checkpoint manifest reader must refuse every line no
// writer produces, and ShardedStore, driven from five threads at once,
// must end where a serial MemoryStore does.  The quorum replication
// tests keep mirrors in QuorumReplicator's replica areas, out of every
// holder's own store.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/metric/general.h"
#include "src/sim/metrics.h"
#include "src/tapestry/object_store.h"
#include "src/tapestry/params.h"
#include "src/tapestry/persistent_store.h"
#include "src/tapestry/replicated_store.h"
#include "src/tapestry/sharded_store.h"
#include "tests/test_util.h"

namespace tap {
namespace {

constexpr IdSpec kSpec{4, 8};

Guid gid(std::uint64_t v) { return Guid(kSpec, v); }
NodeId nid(std::uint64_t v) { return NodeId(kSpec, v); }

/// Scratch directory for one persistent store; wiped on construction and
/// destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("tap_test_" + std::to_string(::getpid()) + "_" + name))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

bool record_eq(const PointerRecord& a, const PointerRecord& b) {
  return a.server == b.server && a.last_hop == b.last_hop &&
         a.level == b.level && a.past_hole == b.past_hole &&
         a.expires_at == b.expires_at;  // deadlines must round-trip exactly
}

std::vector<std::pair<Guid, PointerRecord>> sorted_snapshot(
    const ObjectStoreBackend& s) {
  auto snap = s.snapshot();
  std::sort(snap.begin(), snap.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    if (!(a.second.server == b.second.server))
      return a.second.server < b.second.server;
    return a.second.expires_at < b.second.expires_at;
  });
  return snap;
}

/// Full visible-state comparison of `got` against the reference `ref`,
/// probing every guid/server in the given pools.
void expect_same_state(const ObjectStoreBackend& ref,
                       const ObjectStoreBackend& got,
                       const std::vector<std::uint64_t>& guid_pool,
                       const std::vector<std::uint64_t>& server_pool,
                       const std::vector<double>& probe_times,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(ref.size(), got.size());
  EXPECT_EQ(ref.empty(), got.empty());
  for (const std::uint64_t g : guid_pool) {
    const auto ra = ref.find_all(gid(g));
    const auto ga = got.find_all(gid(g));
    ASSERT_EQ(ra.size(), ga.size()) << "find_all size for guid " << g;
    for (std::size_t i = 0; i < ra.size(); ++i)
      EXPECT_TRUE(record_eq(ra[i], ga[i]))
          << "find_all order/content for guid " << g << " at " << i;
    std::vector<PointerRecord> visited;
    got.for_each_of(gid(g), [&](const Guid& vg, const PointerRecord& r) {
      EXPECT_EQ(vg, gid(g));
      visited.push_back(r);
    });
    ASSERT_EQ(visited.size(), ra.size()) << "for_each_of count, guid " << g;
    for (std::size_t i = 0; i < ra.size(); ++i)
      EXPECT_TRUE(record_eq(visited[i], ra[i]));
    for (const double now : probe_times) {
      const auto rl = ref.find_live(gid(g), now);
      const auto gl = got.find_live(gid(g), now);
      ASSERT_EQ(rl.size(), gl.size())
          << "find_live size, guid " << g << " now " << now;
      for (std::size_t i = 0; i < rl.size(); ++i)
        EXPECT_TRUE(record_eq(rl[i], gl[i]));
    }
    for (const std::uint64_t s : server_pool) {
      const auto rf = ref.find(gid(g), nid(s));
      const auto gf = got.find(gid(g), nid(s));
      ASSERT_EQ(rf.has_value(), gf.has_value())
          << "find presence, guid " << g << " server " << s;
      if (rf.has_value()) {
        EXPECT_TRUE(record_eq(*rf, *gf));
      }
    }
  }
  const auto rs = sorted_snapshot(ref);
  const auto gs = sorted_snapshot(got);
  ASSERT_EQ(rs.size(), gs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].first, gs[i].first);
    EXPECT_TRUE(record_eq(rs[i].second, gs[i].second));
  }
}

/// One randomized op applied identically to every backend; return values
/// must agree too.
struct OpDriver {
  std::vector<ObjectStoreBackend*> stores;
  std::vector<std::uint64_t> guid_pool;
  std::vector<std::uint64_t> server_pool;
  std::vector<double> expiry_pool;
  Rng rng{7};

  void upsert(std::uint64_t g, std::uint64_t s, double expires,
              unsigned level = 0, bool past_hole = false,
              std::optional<std::uint64_t> last_hop = std::nullopt) {
    PointerRecord rec;
    rec.server = nid(s);
    if (last_hop.has_value()) rec.last_hop = nid(*last_hop);
    rec.level = level;
    rec.past_hole = past_hole;
    rec.expires_at = expires;
    for (ObjectStoreBackend* st : stores) st->upsert(gid(g), rec);
  }

  void remove(std::uint64_t g, std::uint64_t s) {
    const bool first = stores[0]->remove(gid(g), nid(s));
    for (std::size_t i = 1; i < stores.size(); ++i)
      EXPECT_EQ(stores[i]->remove(gid(g), nid(s)), first);
  }

  void remove_expired(double now) {
    const std::size_t first = stores[0]->remove_expired(now);
    for (std::size_t i = 1; i < stores.size(); ++i)
      EXPECT_EQ(stores[i]->remove_expired(now), first);
  }

  void random_op() {
    const std::uint64_t g = guid_pool[rng.next_u64(guid_pool.size())];
    const std::uint64_t s = server_pool[rng.next_u64(server_pool.size())];
    const double dice = rng.next_double();
    if (dice < 0.6) {
      const double exp = expiry_pool[rng.next_u64(expiry_pool.size())];
      const bool lh = rng.next_double() < 0.5;
      upsert(g, s, exp, static_cast<unsigned>(rng.next_u64(8)),
             rng.next_double() < 0.25,
             lh ? std::optional<std::uint64_t>(
                      server_pool[rng.next_u64(server_pool.size())])
                : std::nullopt);
    } else if (dice < 0.85) {
      remove(g, s);
    } else {
      remove_expired(expiry_pool[rng.next_u64(expiry_pool.size())]);
    }
  }
};

TEST(StoreConformance, RandomOpSequencesAgree) {
  MemoryStore mem;
  ShardedStore shard;
  ScratchDir dir("conf_random");
  PersistentStore persist(dir.path, nid(0xABCD), kSpec);

  OpDriver d;
  d.stores = {&mem, &shard, &persist};
  d.guid_pool = {1, 2, 0x1000, 0x1001, 0xFFFFFF, 0xABCDEF01, 0x7F7F7F7F};
  d.server_pool = {10, 11, 12, 0xBEEF, 0xF00D};
  d.expiry_pool = {0.5, 1.0, 2.0, 5.0, 5.0, 10.0,
                   std::numeric_limits<double>::infinity()};
  const std::vector<double> probes = {0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 11.0};

  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 150; ++op) d.random_op();
    expect_same_state(mem, shard, d.guid_pool, d.server_pool, probes,
                      "sharded, round " + std::to_string(round));
    expect_same_state(mem, persist, d.guid_pool, d.server_pool, probes,
                      "persist, round " + std::to_string(round));
  }
  // The stats hook reports per-backend identities.
  EXPECT_STREQ(mem.stats().backend, "memory");
  EXPECT_STREQ(shard.stats().backend, "sharded");
  EXPECT_STREQ(persist.stats().backend, "persist");
  EXPECT_GT(shard.stats().stripes, 1u);
}

TEST(StoreConformance, ExpiryDeadlineEdgeIsInclusive) {
  MemoryStore mem;
  ShardedStore shard;
  ScratchDir dir("conf_edge");
  PersistentStore persist(dir.path, nid(0xABCE), kSpec);
  std::vector<ObjectStoreBackend*> stores = {&mem, &shard, &persist};

  for (ObjectStoreBackend* s : stores) {
    s->upsert(gid(1), PointerRecord{nid(1), std::nullopt, 0, false, 5.0});
    s->upsert(gid(1), PointerRecord{nid(2), std::nullopt, 0, false, 4.0});
  }
  for (ObjectStoreBackend* s : stores) {
    SCOPED_TRACE(s->stats().backend);
    // At now == expires_at the record is still live...
    const auto live = s->find_live(gid(1), 5.0);
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].server, nid(1));
    // ...and an expiry sweep at that instant must not drop it.
    EXPECT_EQ(s->remove_expired(5.0), 1u);  // only the 4.0 record goes
    EXPECT_EQ(s->size(), 1u);
    ASSERT_TRUE(s->find(gid(1), nid(1)).has_value());
    // Strictly past the deadline it is gone from both views.
    EXPECT_TRUE(s->find_live(gid(1), 5.0 + 1e-9).empty());
    EXPECT_EQ(s->remove_expired(5.0 + 1e-9), 1u);
    EXPECT_TRUE(s->empty());
  }
}

TEST(PersistentStoreTest, RecoverRebuildsIdenticalState) {
  ScratchDir dir("recover_basic");
  PersistentStore store(dir.path, nid(0x1111), kSpec);
  store.upsert(gid(1), PointerRecord{nid(1), std::nullopt, 0, false, 10.0});
  store.upsert(gid(1), PointerRecord{nid(2), nid(1), 1, true, 20.0});
  store.upsert(gid(2), PointerRecord{nid(3), std::nullopt, 2, false,
                                     std::numeric_limits<double>::infinity()});
  store.upsert(gid(1), PointerRecord{nid(1), nid(9), 3, false, 12.5});  // replace
  store.remove(gid(2), nid(3));
  store.upsert(gid(3), PointerRecord{nid(4), std::nullopt, 0, false, 0.1});
  store.remove_expired(0.5);
  const auto before = sorted_snapshot(store);
  const auto order_before = store.find_all(gid(1));
  store.flush();

  // In-place recovery: drop the mirror, rebuild from disk.
  store.recover();
  const auto after = sorted_snapshot(store);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].first, after[i].first);
    EXPECT_TRUE(record_eq(before[i].second, after[i].second));
  }
  // Per-guid record order (first-insertion order) survives the round trip.
  const auto order_after = store.find_all(gid(1));
  ASSERT_EQ(order_before.size(), order_after.size());
  for (std::size_t i = 0; i < order_before.size(); ++i)
    EXPECT_TRUE(record_eq(order_before[i], order_after[i]));
}

TEST(PersistentStoreTest, CrashRecoveryAcrossInstances) {
  ScratchDir dir("recover_crash");
  std::vector<std::pair<Guid, PointerRecord>> before;
  {
    PersistentStore store(dir.path, nid(0x2222), kSpec);
    Rng rng(99);
    for (int i = 0; i < 300; ++i) {
      PointerRecord rec;
      rec.server = nid(1 + rng.next_u64(6));
      rec.level = static_cast<unsigned>(rng.next_u64(8));
      rec.expires_at = 1.0 + static_cast<double>(rng.next_u64(100)) / 7.0;
      store.upsert(gid(rng.next_u64(40)), rec);
      if (i % 7 == 0) store.remove(gid(rng.next_u64(40)), nid(1 + rng.next_u64(6)));
      if (i % 31 == 0) store.remove_expired(static_cast<double>(i) / 40.0);
    }
    before = sorted_snapshot(store);
    // Destruction flushes and closes — the "kill" point.
  }
  PersistentStore revived(dir.path, nid(0x2222), kSpec);
  const auto after = sorted_snapshot(revived);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].first, after[i].first);
    EXPECT_TRUE(record_eq(before[i].second, after[i].second));
  }
}

TEST(PersistentStoreTest, CompactionPreservesStateAndFencesStaleWal) {
  ScratchDir dir("recover_compact");
  std::vector<std::pair<Guid, PointerRecord>> before;
  std::size_t compactions = 0;
  {
    PersistentStore store(dir.path, nid(0x3333), kSpec);
    // Hammer a small key set: the WAL grows far beyond the live record
    // count, forcing snapshot compactions.
    for (int i = 0; i < 4000; ++i) {
      PointerRecord rec;
      rec.server = nid(1 + (i % 3));
      rec.expires_at = static_cast<double>(i);
      store.upsert(gid(i % 10), rec);
    }
    compactions = store.stats().compactions;
    EXPECT_GT(compactions, 0u);
    EXPECT_LT(store.stats().wal_records, 4000u);  // log was truncated
    before = sorted_snapshot(store);
  }
  PersistentStore revived(dir.path, nid(0x3333), kSpec);
  const auto after = sorted_snapshot(revived);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_TRUE(record_eq(before[i].second, after[i].second));
}

TEST(PersistentStoreTest, TornWalTailIsTruncatedNotFatal) {
  ScratchDir dir("recover_torn");
  char name[32];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(nid(0x6666).value()));
  const std::string wal_path = dir.path + "/" + std::string(name) + ".wal";

  std::vector<std::pair<Guid, PointerRecord>> before;
  {
    PersistentStore store(dir.path, nid(0x6666), kSpec);
    store.upsert(gid(1), PointerRecord{nid(1), std::nullopt, 0, false, 10.0});
    store.upsert(gid(2), PointerRecord{nid(2), std::nullopt, 0, false, 20.0});
    before = sorted_snapshot(store);
  }
  // Simulate a kill mid-append: a partial record (no newline) at the tail.
  {
    std::FILE* f = std::fopen(wal_path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("U 3 4 0 0", f);
    std::fclose(f);
  }
  {
    // Recovery keeps every whole record and truncates the torn tail
    // instead of failing the constructor.
    PersistentStore revived(dir.path, nid(0x6666), kSpec);
    const auto after = sorted_snapshot(revived);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i)
      EXPECT_TRUE(record_eq(before[i].second, after[i].second));
    // Appends after the cut must still form valid records.
    revived.upsert(gid(9), PointerRecord{nid(9), std::nullopt, 0, false, 5.0});
  }
  PersistentStore again(dir.path, nid(0x6666), kSpec);
  EXPECT_EQ(again.size(), before.size() + 1);
  EXPECT_TRUE(again.find(gid(9), nid(9)).has_value());
}

TEST(PersistentStoreTest, InPlaceRecoverKeepsEveryAcceptedMutation) {
  ScratchDir dir("recover_inplace");
  PersistentStore store(dir.path, nid(0x4444), kSpec);
  store.upsert(gid(1), PointerRecord{nid(1), std::nullopt, 0, false, 10.0});
  // No explicit flush: in-place recover() is the clean-restart path — it
  // flushes the open log before replaying, so buffered appends survive.
  // (Crash semantics are covered by the across-instances and torn-tail
  // tests above.)
  store.recover();
  EXPECT_TRUE(store.find(gid(1), nid(1)).has_value());
  EXPECT_EQ(store.size(), 1u);
}

/// Path of node `node`'s log or snapshot (`ext` = "wal" | "snap") in `dir`.
std::string store_file(const ScratchDir& dir, std::uint64_t node,
                       const char* ext) {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.%s",
                static_cast<unsigned long long>(nid(node).value()), ext);
  return dir.path + "/" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

/// `bad` is a line no writer produces.  Between two valid records in a
/// WAL, replay must keep the first, stop at `bad` and cut the log there;
/// in a snapshot it must fail the load with a CheckError.
void expect_replay_rejects(const std::string& bad) {
  SCOPED_TRACE(bad);
  const std::string head = "H 4 8 1\nU 1 2 0 0 0 0 10\n";
  {
    ScratchDir dir("malformed_wal");
    std::filesystem::create_directories(dir.path);
    const std::string wal = store_file(dir, 0x77, "wal");
    write_file(wal, head + bad + "\nU 3 4 0 0 0 0 10\n");
    {
      PersistentStore store(dir.path, nid(0x77), kSpec);
      EXPECT_EQ(store.size(), 1u);
      EXPECT_TRUE(store.find(gid(1), nid(2)).has_value());
    }
    EXPECT_EQ(std::filesystem::file_size(wal), head.size());
  }
  {
    ScratchDir dir("malformed_snap");
    std::filesystem::create_directories(dir.path);
    write_file(store_file(dir, 0x77, "snap"), head + bad + "\n");
    EXPECT_THROW({ PersistentStore store(dir.path, nid(0x77), kSpec); },
                 CheckError);
  }
}

TEST(PersistentStoreTest, DeadlineMustParseWhole) {
  expect_replay_rejects("U 11 22 0 0 3 0 garbage");
  expect_replay_rejects("U 11 22 0 0 3 0 12abc");
  expect_replay_rejects("U 11 22 0 0 3 0");
  expect_replay_rejects("X 12abc");
}

TEST(PersistentStoreTest, NanTimesAreRejectedInfIsNot) {
  expect_replay_rejects("U 11 22 0 0 3 0 nan");
  expect_replay_rejects("X nan");
  // %.17g writes infinite deadlines as inf; they stay valid.
  ScratchDir dir("inf_times");
  std::filesystem::create_directories(dir.path);
  write_file(store_file(dir, 0x77, "wal"),
             "H 4 8 1\nU 1 2 0 0 0 0 inf\nU 1 3 0 0 0 0 -inf\nX inf\n");
  PersistentStore store(dir.path, nid(0x77), kSpec);
  EXPECT_EQ(store.size(), 1u);
  // A record replay would refuse is refused at upsert, before it is
  // logged, on every backend.
  EXPECT_THROW(store.upsert(gid(5), PointerRecord{nid(1), std::nullopt, 0,
                                                  false, std::nan("")}),
               CheckError);
  EXPECT_EQ(store.stats().wal_records, 3u);
}

TEST(PersistentStoreTest, LevelMustNotExceedNumDigits) {
  expect_replay_rejects("U 11 22 0 0 -1 0 5");
  expect_replay_rejects("U 13 22 1 33 99 7 5");
  expect_replay_rejects("U 13 22 1 33 9 0 5");  // kSpec has 8 digits
  expect_replay_rejects("U 13 22 1 33 4294967296 0 5");
  ScratchDir dir("level_edge");
  PersistentStore store(dir.path, nid(0x77), kSpec);
  store.upsert(gid(1), PointerRecord{nid(2), std::nullopt, 8, false, 5.0});
  EXPECT_THROW(store.upsert(gid(1), PointerRecord{nid(3), std::nullopt, 9,
                                                  false, 5.0}),
               CheckError);
  store.recover();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(gid(1), nid(2))->level, 8u);
}

TEST(PersistentStoreTest, FlagsMustBeZeroOrOne) {
  expect_replay_rejects("U 13 22 7 33 2 0 5");   // has_last_hop
  expect_replay_rejects("U 13 22 -1 33 2 0 5");
  expect_replay_rejects("U 13 22 1 33 2 7 5");   // past_hole
  expect_replay_rejects("U 13 22 1 33 2 01 5");
}

TEST(PersistentStoreTest, IdsMustParseWholeInsideTheNamespace) {
  expect_replay_rejects("R 11 22x");
  expect_replay_rejects("R -1 22");
  expect_replay_rejects("R 0x11 22");
  expect_replay_rejects("U 100000000 22 0 0 0 0 5");  // 33 bits, kSpec has 32
  expect_replay_rejects("U 11 22 1 100000000 0 0 5");
  // A header field with trailing garbage is a bad snapshot header.
  ScratchDir dir("bad_header");
  std::filesystem::create_directories(dir.path);
  write_file(store_file(dir, 0x77, "snap"), "H 4 8 1x\n");
  EXPECT_THROW({ PersistentStore store(dir.path, nid(0x77), kSpec); },
               CheckError);
}

// ------------------------------------------------------------------
// ShardedStore under concurrent callers
// ------------------------------------------------------------------

/// One writer's seeded upsert/remove/find/for_each_of sequence over its
/// own guids.  Returns a digest of everything its reads saw, so a
/// concurrent run can be compared with a serial one.
std::uint64_t drive_writer(ObjectStoreBackend& store,
                           const std::vector<std::uint64_t>& guids,
                           std::uint64_t seed, int ops) {
  Rng rng(seed);
  std::uint64_t digest = 0;
  auto mix = [&](std::uint64_t v) { digest = splitmix64(digest ^ v); };
  for (int i = 0; i < ops; ++i) {
    const Guid g = gid(guids[rng.next_u64(guids.size())]);
    const NodeId server = nid(1 + rng.next_u64(6));
    const double dice = rng.next_double();
    if (dice < 0.55) {
      store.upsert(g, PointerRecord{server, std::nullopt,
                                    static_cast<unsigned>(rng.next_u64(8)),
                                    false, 10.0 + i});
    } else if (dice < 0.8) {
      mix(store.remove(g, server) ? 1 : 2);
    } else if (dice < 0.9) {
      const auto rec = store.find(g, server);
      mix(rec.has_value() ? rec->level + 3 : 0);
    } else {
      store.for_each_of(g, [&](const Guid&, const PointerRecord& r) {
        mix(r.server.value());
        mix(r.level);
      });
    }
  }
  return digest;
}

/// Four writers drive one ShardedStore over disjoint guid sets that share
/// every stripe, while a fifth thread sweeps at a time below every
/// deadline and walks the whole store.  Each writer's reads, and the final
/// state with its per-guid record order, must equal a MemoryStore fed
/// each writer's sequence serially.
TEST(ShardedStoreTest, ConcurrentWritersMatchSerialReference) {
  constexpr std::size_t kWriters = 4;
  constexpr int kOps = 20000;
  std::vector<std::vector<std::uint64_t>> guids(kWriters);
  std::vector<std::uint64_t> all_guids;
  for (std::uint64_t g = 1; g <= 256; ++g) {
    guids[g % kWriters].push_back(g);
    all_guids.push_back(g);
  }
  std::vector<std::vector<bool>> writers_of(
      ShardedStore::kStripeCount, std::vector<bool>(kWriters, false));
  for (std::size_t w = 0; w < kWriters; ++w)
    for (const std::uint64_t g : guids[w])
      writers_of[ShardedStore::stripe_of(gid(g))][w] = true;
  for (const auto& ws : writers_of)
    ASSERT_GE(std::count(ws.begin(), ws.end(), true), 2);

  ShardedStore shard;
  std::vector<std::uint64_t> digests(kWriters, 0);
  std::atomic<std::size_t> running{kWriters};
  std::size_t sweeps = 0, swept = 0, max_seen = 0, max_size = 0;
  double min_deadline = std::numeric_limits<double>::infinity();
  std::thread sweeper([&] {
    do {
      swept += shard.remove_expired(5.0);  // below every deadline
      std::size_t seen = 0;
      shard.for_each([&](const Guid&, const PointerRecord& r) {
        ++seen;
        min_deadline = std::min(min_deadline, r.expires_at);
      });
      max_seen = std::max(max_seen, seen);
      max_size = std::max(max_size, shard.size());
      ++sweeps;
    } while (running.load() > 0);
  });
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      digests[w] = drive_writer(shard, guids[w], 100 + w, kOps);
      running.fetch_sub(1);
    });
  for (std::thread& t : writers) t.join();
  sweeper.join();

  MemoryStore ref;
  for (std::size_t w = 0; w < kWriters; ++w)
    EXPECT_EQ(drive_writer(ref, guids[w], 100 + w, kOps), digests[w])
        << "writer " << w;
  EXPECT_GT(sweeps, 0u);
  EXPECT_EQ(swept, 0u);
  EXPECT_GE(min_deadline, 10.0);
  EXPECT_LE(max_seen, all_guids.size() * 6);
  EXPECT_LE(max_size, all_guids.size() * 6);
  expect_same_state(ref, shard, all_guids, {1, 2, 3, 4, 5, 6},
                    {0.0, 5.0, 10.0 + kOps / 2.0}, "sharded vs serial");
}

/// A store allocates each stripe at its first record, and an untouched
/// one is its pointer array and count.  Four threads race the first
/// writes into fresh stores, 200 rounds each way: distinct servers under
/// one guid (one stripe, one guid), and distinct guids of one stripe.
/// Every record must be found, the count exact, and the snapshot the
/// records a MemoryStore fed the same upserts holds.
TEST(ShardedStoreTest, RacingFirstWritesInstallEachStripeOnce) {
  EXPECT_LE(sizeof(ShardedStore), 160u)
      << "the stripes must stay out of line";
  {
    // Every read, removal and sweep of an untouched stripe sees nothing.
    ShardedStore fresh;
    EXPECT_FALSE(fresh.find(gid(1), nid(1)).has_value());
    EXPECT_TRUE(fresh.find_all(gid(1)).empty());
    EXPECT_FALSE(fresh.remove(gid(1), nid(1)));
    EXPECT_EQ(fresh.remove_expired(1e9), 0u);
    EXPECT_TRUE(fresh.snapshot().empty());
    EXPECT_EQ(fresh.stats().stripes, ShardedStore::kStripeCount);
  }
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::uint64_t> one_stripe;
  for (std::uint64_t g = 1; one_stripe.size() < kThreads; ++g)
    if (ShardedStore::stripe_of(gid(g)) == ShardedStore::stripe_of(gid(1)))
      one_stripe.push_back(g);

  for (const bool one_guid : {true, false}) {
    SCOPED_TRACE(one_guid ? "servers under one guid" : "guids of one stripe");
    for (int round = 0; round < kRounds; ++round) {
      auto op = [&](std::size_t t) {
        return std::make_pair(
            gid(one_guid ? one_stripe[0] : one_stripe[t]),
            PointerRecord{nid(1 + t), std::nullopt,
                          static_cast<unsigned>(t), false, 10.0 + round});
      };
      ShardedStore shard;
      ASSERT_TRUE(shard.empty());
      std::atomic<std::size_t> ready{0};
      std::vector<std::thread> writers;
      for (std::size_t t = 0; t < kThreads; ++t)
        writers.emplace_back([&, t] {
          ready.fetch_add(1);
          while (ready.load() < kThreads) std::this_thread::yield();
          const auto [g, rec] = op(t);
          shard.upsert(g, rec);
        });
      for (std::thread& w : writers) w.join();

      MemoryStore ref;
      for (std::size_t t = 0; t < kThreads; ++t) {
        const auto [g, rec] = op(t);
        ref.upsert(g, rec);
        const auto found = shard.find(g, rec.server);
        ASSERT_TRUE(found.has_value()) << "round " << round << " writer " << t;
        EXPECT_TRUE(record_eq(*found, rec));
      }
      ASSERT_EQ(shard.size(), kThreads) << "round " << round;
      const auto got = sorted_snapshot(shard);
      const auto want = sorted_snapshot(ref);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first);
        EXPECT_TRUE(record_eq(got[i].second, want[i].second));
      }
    }
  }
}

// ------------------------------------------------------------------
// Factory and overlay-level round trip
// ------------------------------------------------------------------

TEST(StoreFactory, SelectsBackendFromParams) {
  TapestryParams p;
  p.id = kSpec;
  const NodeId id = nid(0x5555);
  EXPECT_STREQ(make_object_store(p, id)->stats().backend, "memory");
  p.store_backend = StoreBackend::kSharded;
  EXPECT_STREQ(make_object_store(p, id)->stats().backend, "sharded");
  p.store_backend = StoreBackend::kPersistent;
  EXPECT_THROW((void)make_object_store(p, id), CheckError);  // no store_dir
  // Replication is a protocol the directory runs, not a store: the
  // replicated backends give each node a plain memory or persist store.
  p.store_backend = StoreBackend::kReplicated;
  EXPECT_STREQ(make_object_store(p, id)->stats().backend, "memory");
  p.store_backend = StoreBackend::kReplicatedPersistent;
  EXPECT_THROW((void)make_object_store(p, id), CheckError);  // no store_dir
  ScratchDir dir("factory");
  p.store_dir = dir.path;
  EXPECT_STREQ(make_object_store(p, id)->stats().backend, "persist");
  p.store_backend = StoreBackend::kPersistent;
  EXPECT_STREQ(make_object_store(p, id)->stats().backend, "persist");
}

/// publish_batch through the striped drain (ShardedStore) must equal the
/// serial publish loop record for record — the PR 3 determinism guarantee
/// extended to the concurrent backend.
TEST(StoreBackendOverlay, ShardedBatchPublishMatchesSerial) {
  const std::size_t n = 96, objects = 48;
  auto params_serial = test::small_params();
  params_serial.store_backend = StoreBackend::kMemory;
  params_serial.store_dir.clear();
  auto params_batch = params_serial;
  params_batch.store_backend = StoreBackend::kSharded;

  Rng rng_a(5), rng_b(5);
  RingMetric space_a(n + 8, rng_a), space_b(n + 8, rng_b);
  Network serial(space_a, params_serial, 77);
  Network batch(space_b, params_batch, 77);
  for (std::size_t i = 0; i < n; ++i) {
    serial.insert_static(i);
    batch.insert_static(i);
  }
  serial.rebuild_static_tables();
  batch.rebuild_static_tables();

  std::vector<ObjectDirectory::PublishRequest> reqs;
  Rng wl(123);
  const auto ids_a = serial.node_ids();
  for (std::size_t i = 0; i < objects; ++i) {
    const Guid g = test::make_guid(serial, i);
    reqs.push_back({ids_a[wl.next_u64(ids_a.size())], g});
  }
  Trace ta, tb;
  for (const auto& r : reqs) serial.publish(r.server, r.guid, &ta);
  batch.publish_batch(reqs, /*workers=*/4, &tb);

  EXPECT_EQ(ta.messages(), tb.messages());
  EXPECT_EQ(serial.total_object_pointers(), batch.total_object_pointers());
  for (const NodeId& id : serial.node_ids()) {
    const auto sa = sorted_snapshot(serial.node(id).store());
    const auto sb = sorted_snapshot(batch.node(id).store());
    ASSERT_EQ(sa.size(), sb.size()) << "node " << id.to_string();
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].first, sb[i].first);
      EXPECT_TRUE(record_eq(sa[i].second, sb[i].second));
    }
  }
}

/// Overlay-level kill-and-resume: publish into a persistent overlay,
/// checkpoint, destroy the Network, rebuild the membership from the
/// manifest, restore — published() and every locate must come back.
TEST(StoreBackendOverlay, PersistCheckpointDestroyRecover) {
  ScratchDir dir("overlay_recover");
  const std::size_t n = 64, objects = 32;
  auto params = test::small_params();
  params.store_backend = StoreBackend::kPersistent;
  params.store_dir = dir.path;

  std::vector<std::pair<Guid, NodeId>> published_before;
  std::vector<Guid> guids;
  std::size_t found_before = 0;
  Rng rng_a(9);
  RingMetric space(n + 8, rng_a);
  {
    Network net(space, params, 31);
    for (std::size_t i = 0; i < n; ++i) net.insert_static(i);
    net.rebuild_static_tables();
    const auto ids = net.node_ids();
    Rng wl(55);
    for (std::size_t i = 0; i < objects; ++i) {
      const Guid g = test::make_guid(net, 1000 + i);
      guids.push_back(g);
      net.publish(ids[wl.next_u64(ids.size())], g);
    }
    Rng ql(66);
    for (const Guid& g : guids)
      if (net.locate(ids[ql.next_u64(ids.size())], g).found) ++found_before;
    net.checkpoint_stores(dir.path);
    published_before = net.published();
    // Network destroyed here — the "kill".
  }

  const auto manifest = ObjectDirectory::read_manifest(dir.path);
  ASSERT_EQ(manifest.nodes.size(), n);
  Network revived(space, params, 31);
  for (const auto& [idv, loc] : manifest.nodes)
    revived.insert_static(loc, NodeId(params.id, idv));
  revived.rebuild_static_tables();
  const double t = revived.restore_directory(dir.path);
  EXPECT_GE(t, 0.0);

  auto canon = [](std::vector<std::pair<Guid, NodeId>> v) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    });
    return v;
  };
  EXPECT_EQ(canon(published_before), canon(revived.published()));

  const auto ids = revived.node_ids();
  Rng ql(66);
  std::size_t found_after = 0;
  for (const Guid& g : guids)
    if (revived.locate(ids[ql.next_u64(ids.size())], g).found) ++found_after;
  EXPECT_EQ(found_before, guids.size());
  EXPECT_EQ(found_after, guids.size());
  revived.check_property4();
}

// ------------------------------------------------------------------
// Checkpoint manifest: every line must be one the writer produces
// ------------------------------------------------------------------

/// A memory overlay's checkpoint reads back as written: clock, live
/// membership with locations, and the replica registry.
TEST(CheckpointManifest, RoundTripsWhatCheckpointWrites) {
  ScratchDir dir("manifest_roundtrip");
  auto g = test::static_ring_network(24, 37, test::small_params());
  Network& net = *g.net;
  for (std::size_t i = 0; i < 6; ++i)
    net.publish(g.ids[(5 * i) % g.ids.size()], test::make_guid(net, 90 + i));
  net.events().run_until(12.25);
  net.checkpoint_stores(dir.path);

  const auto m = ObjectDirectory::read_manifest(dir.path);
  EXPECT_EQ(m.time, 12.25);
  ASSERT_EQ(m.nodes.size(), g.ids.size());
  for (const auto& [idv, loc] : m.nodes)
    EXPECT_EQ(net.node(NodeId(net.params().id, idv)).location(), loc);
  std::vector<std::pair<Guid, NodeId>> read;
  for (const auto& [gv, sv] : m.replicas)
    read.emplace_back(Guid(net.params().id, gv), NodeId(net.params().id, sv));
  auto published = net.published();
  std::sort(read.begin(), read.end());
  std::sort(published.begin(), published.end());
  EXPECT_EQ(read, published);
}

/// `bad` is a line checkpoint() never writes: between valid lines of each
/// kind it must fail read_manifest with a CheckError.
void expect_manifest_rejects(const std::string& bad) {
  SCOPED_TRACE(bad);
  ScratchDir dir("manifest_bad");
  std::filesystem::create_directories(dir.path);
  const std::string good = "T 2.5\nN 1a 5\nO 1 2\n";
  write_file(dir.path + "/manifest", good);
  EXPECT_NO_THROW((void)ObjectDirectory::read_manifest(dir.path));
  write_file(dir.path + "/manifest", good + bad + "\nO 3 4\n");
  EXPECT_THROW((void)ObjectDirectory::read_manifest(dir.path), CheckError);
}

TEST(CheckpointManifest, ClockMustParseWhole) {
  expect_manifest_rejects("T 3.5junk");
}

/// restore() hands the clock to run_until.
TEST(CheckpointManifest, ClockMustBeFiniteAndNotNegative) {
  expect_manifest_rejects("T nan");
  expect_manifest_rejects("T inf");
  expect_manifest_rejects("T -1");
}

TEST(CheckpointManifest, LocationMustParseWhole) {
  expect_manifest_rejects("N 1a 5xyz");
}

TEST(CheckpointManifest, LocationMustNotBeNegative) {
  expect_manifest_rejects("N 1a -5");
}

TEST(CheckpointManifest, LinesEndAfterTheirLastField) {
  expect_manifest_rejects("O 1 2 extra");
}

/// A line longer than the reader's buffer fails instead of being read
/// as two lines: here its first 127 bytes alone would be a valid line.
TEST(CheckpointManifest, OverlongLineIsNotSplit) {
  const std::string head = "O " + std::string(122, '0') + "1 2";
  ASSERT_EQ(head.size(), 127u);
  expect_manifest_rejects(head + "O 3 4");
}

TEST(CheckpointManifest, UnknownTagsFail) {
  expect_manifest_rejects("N1a 5");
  expect_manifest_rejects("");
}

// ------------------------------------------------------------------
// Quorum replication (QuorumReplicator)
// ------------------------------------------------------------------

TapestryParams replicated_params() {
  auto p = test::small_params();
  p.store_backend = StoreBackend::kReplicated;
  p.store_dir.clear();
  return p;
}

/// A publish that reaches the root must mirror the record to the root's
/// holder set, acknowledged by at least W of the k holders, without the
/// mirrors leaking into any holder's replica-area-free visible state.
TEST(QuorumReplication, PublishMirrorsToWOfKHolders) {
  const auto params = replicated_params();
  auto g = test::static_ring_network(64, 11, params);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);

  const Guid obj = test::make_guid(net, 7);
  const NodeId server = g.ids[5];
  net.publish(server, obj);

  const Guid salted = salted_guid(obj, 0);
  ASSERT_NE(repl->holders(salted), nullptr);
  const std::vector<NodeId> holders = *repl->holders(salted);
  ASSERT_EQ(holders.size(), params.replication.k);
  const NodeId root = net.surrogate_root(salted);
  std::size_t acked = 0;
  for (const NodeId& h : holders) {
    EXPECT_NE(h, root);  // the root never mirrors to itself
    const auto copy = repl->replicas_at(h).find(salted, server);
    if (copy.has_value()) {
      ++acked;
      EXPECT_EQ(copy->server, server);
    }
  }
  EXPECT_GE(acked, params.replication.w);
  EXPECT_GE(repl->stats().replica_writes, params.replication.w);
  // Unpublish withdraws every mirror again.
  net.unpublish(server, obj);
  for (const NodeId& h : holders)
    EXPECT_FALSE(repl->replicas_at(h).find(salted, server).has_value());
}

/// An unpublish books on the Trace, and on tapestry_messages_total, exactly
/// the messages the transport delivers: the withdrawal's hops plus one
/// kReplicaRemove per holder, which nobody acknowledges.
TEST(QuorumReplication, UnpublishBooksWhatItDelivers) {
  const auto params = replicated_params();
  auto g = test::static_ring_network(64, 12, params);
  Network& net = *g.net;
  ASSERT_EQ(params.replication.k, 3u);
  const TransportStats& ts = net.transport().stats();
  for (std::size_t i = 0; i < 8; ++i) {
    const Guid obj = test::make_guid(net, 40 + i);
    const NodeId server = g.ids[3 + 5 * i];
    net.publish(server, obj);

    const std::uint64_t removes0 = ts.kind_count(MessageKind::kReplicaRemove);
    const std::uint64_t delivered0 = ts.messages.load();
    const std::uint64_t counted0 = metrics::messages_total().value();
    Trace trace;
    net.unpublish(server, obj, &trace);
    const std::uint64_t delivered = ts.messages.load() - delivered0;
    EXPECT_GT(ts.kind_count(MessageKind::kReplicaRemove) - removes0, 0u)
        << "the withdrawal must reach the root's holders";
    EXPECT_EQ(trace.messages(), delivered) << "object " << i;
    EXPECT_EQ(metrics::messages_total().value() - counted0, delivered)
        << "object " << i;
  }
}

/// An R-of-N quorum read merges the freshest copy per server and pushes it
/// back onto stale responders (read-repair).
TEST(QuorumReplication, QuorumReadMergesFreshestAndReadRepairs) {
  auto params = replicated_params();
  params.pointer_ttl = 100.0;  // finite deadlines so staleness is visible
  auto g = test::static_ring_network(64, 17, params);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);

  const Guid obj = test::make_guid(net, 21);
  const NodeId server = g.ids[9];
  net.publish(server, obj);
  const Guid salted = salted_guid(obj, 0);
  const auto* holders = repl->holders(salted);
  ASSERT_NE(holders, nullptr);
  ASSERT_GE(holders->size(), 2u);

  // Stale-ify the first responder's copy; the second responder still has
  // the fresh one, and w + r > k guarantees the read sees it.
  MemoryStore& first = repl->replicas_at((*holders)[0]);
  const auto fresh = first.find(salted, server);
  ASSERT_TRUE(fresh.has_value());
  PointerRecord stale = *fresh;
  stale.expires_at = fresh->expires_at - 50.0;
  first.upsert(salted, stale);

  const auto repairs_before = repl->stats().read_repairs;
  const auto merged =
      repl->quorum_read(net.node(net.surrogate_root(salted)), salted,
                        net.now(), nullptr);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].server, server);
  EXPECT_EQ(merged[0].expires_at, fresh->expires_at);  // freshest won
  EXPECT_GT(repl->stats().read_repairs, repairs_before);
  // Read-repair restored the stale responder's deadline.
  EXPECT_EQ(first.find(salted, server)->expires_at, fresh->expires_at);
}

/// Mirrors are §6.5 soft state like the records they copy, and they live
/// in the replicator, never in a holder's own store.  An expiry sweep
/// empties every live holder's area once the publish deadline has passed;
/// a quorum read then finds nothing.
TEST(QuorumReplication, MirrorsExpireWithPrimaries) {
  auto params = replicated_params();
  params.pointer_ttl = 10.0;
  auto twin_params = params;
  twin_params.store_backend = StoreBackend::kMemory;
  auto g = test::static_ring_network(64, 29, params);
  auto twin = test::static_ring_network(64, 29, twin_params);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);
  const Guid obj = test::make_guid(net, 41);
  const NodeId server = g.ids[7];
  net.publish(server, obj);
  twin.net->publish(server, obj);
  const Guid salted = salted_guid(obj, 0);
  const NodeId root = net.surrogate_root(salted);
  ASSERT_NE(repl->holders(salted), nullptr);
  const std::vector<NodeId> holders = *repl->holders(salted);
  ASSERT_EQ(holders.size(), params.replication.k);

  // Before the deadline every holder mirrors the record, while each
  // node's own store holds what the unreplicated twin's does: a holder
  // off the publish path has nothing for the object there.
  EXPECT_EQ(net.total_object_pointers(), twin.net->total_object_pointers());
  std::size_t off_path = 0;
  for (const NodeId& h : holders) {
    EXPECT_TRUE(repl->replicas_at(h).find(salted, server).has_value());
    const bool on_path =
        twin.net->node(h).store().find(salted, server).has_value();
    EXPECT_EQ(net.node(h).store().find(salted, server).has_value(),
              on_path);
    if (!on_path) ++off_path;
  }
  EXPECT_GT(off_path, 0u);

  // Past the deadline the mirrors stay until a sweep removes them.
  net.events().run_until(net.now() + params.pointer_ttl + 1.0);
  for (const NodeId& h : holders)
    EXPECT_EQ(repl->replicas_at(h).size(), 1u);
  net.expire_pointers();
  EXPECT_EQ(net.total_object_pointers(), 0u);
  for (const NodeId& id : g.ids)
    EXPECT_TRUE(repl->replicas_at(id).empty()) << id.to_string();
  EXPECT_TRUE(
      repl->quorum_read(net.node(root), salted, net.now(), nullptr).empty());
}

/// A holder set lives while some holder mirrors a record of its guid: an
/// unpublish, or an expiry sweep, that leaves no holder a record drops
/// it, and a locate of the withdrawn guid then sends no quorum read.
TEST(QuorumReplication, HolderSetGoesWithItsLastRecord) {
  auto params = replicated_params();
  params.pointer_ttl = 10.0;
  ASSERT_EQ(params.replication.k, 3u);
  auto g = test::static_ring_network(64, 31, params);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);
  const Guid withdrawn = test::make_guid(net, 61);
  const Guid expired = test::make_guid(net, 62);
  const NodeId client = g.ids[1];
  net.publish(g.ids[5], withdrawn);
  net.publish(g.ids[9], expired);
  ASSERT_NE(repl->holders(salted_guid(withdrawn, 0)), nullptr);
  ASSERT_NE(repl->holders(salted_guid(expired, 0)), nullptr);

  net.unpublish(g.ids[5], withdrawn);
  EXPECT_EQ(repl->holders(salted_guid(withdrawn, 0)), nullptr);
  EXPECT_NE(repl->holders(salted_guid(expired, 0)), nullptr);
  net.events().run_until(net.now() + params.pointer_ttl + 1.0);
  net.expire_pointers();
  EXPECT_EQ(repl->holders(salted_guid(expired, 0)), nullptr);

  const TransportStats& ts = net.transport().stats();
  for (const Guid& obj : {withdrawn, expired}) {
    const std::uint64_t reads = ts.kind_count(MessageKind::kReplicaRead);
    EXPECT_FALSE(net.locate(client, obj).found);
    EXPECT_EQ(ts.kind_count(MessageKind::kReplicaRead), reads)
        << "a locate of a withdrawn guid sent a quorum read";
  }
}

/// Killing the current root of a published object between publish and
/// locate loses zero locates: the locate at the new surrogate falls back
/// to a quorum read over the old root's holder set.  No republish runs.
TEST(QuorumReplication, RootDeathLosesZeroLocates) {
  const auto params = replicated_params();
  auto g = test::grow_ring_network(64, 13, params);
  Network& net = *g.net;
  ASSERT_NE(net.directory().replicator(), nullptr);

  const std::size_t objects = 8;
  std::vector<Guid> guids;
  Rng wl(4);
  for (std::size_t i = 0; i < objects; ++i) {
    const Guid obj = test::make_guid(net, 100 + i);
    guids.push_back(obj);
    net.publish(g.ids[wl.next_u64(g.ids.size())], obj);
  }

  std::size_t kills = 0;
  for (const Guid& obj : guids) {
    const NodeId root = net.surrogate_root(salted_guid(obj, 0));
    if (!net.registry().is_live(root)) continue;  // a prior kill got it
    const auto servers = net.servers_of(obj);
    if (std::find(servers.begin(), servers.end(), root) != servers.end())
      continue;  // root is the server: its death would lose the object
    net.fail(root);
    ++kills;
  }
  ASSERT_GT(kills, 0u);

  std::size_t locatable = 0;
  for (const Guid& obj : guids) {
    const auto servers = net.servers_of(obj);
    // A root killed above may have been this object's server; the object
    // is legitimately gone then, not a replication loss.
    if (servers.empty() || !net.registry().is_live(servers[0])) continue;
    ++locatable;
    NodeId client = servers[0];
    for (const NodeId& id : g.ids) {  // a remote live client
      if (net.registry().is_live(id) && !(id == servers[0])) {
        client = id;
        break;
      }
    }
    EXPECT_TRUE(net.locate(client, obj).found)
        << "lost locate for " << obj.to_string();
  }
  ASSERT_GT(locatable, 0u);
}

/// Live ids other than `anchor` and those in `taken`, sorted by (distance
/// to `anchor`, id) — the brute-force holder order.
std::vector<NodeId> by_distance_from(const Network& net, const NodeId& anchor,
                                     const std::vector<NodeId>& taken) {
  std::vector<NodeId> ids;
  for (const NodeId& id : net.node_ids())
    if (!(id == anchor) &&
        std::find(taken.begin(), taken.end(), id) == taken.end())
      ids.push_back(id);
  std::sort(ids.begin(), ids.end(), [&](const NodeId& a, const NodeId& b) {
    const double da = net.registry().distance(anchor, a);
    const double db = net.registry().distance(anchor, b);
    if (da != db) return da < db;
    return a < b;
  });
  return ids;
}

/// Holder sets are exactly the k live nodes nearest to the root under
/// (distance, id), and a dead holder's replacement is the live node
/// nearest to it that the set did not already hold.
TEST(QuorumReplication, HolderSetsAreKNearestLive) {
  const auto params = replicated_params();
  auto g = test::static_ring_network(96, 23, params);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);
  const std::size_t k = params.replication.k;

  std::vector<Guid> salted;
  Rng wl(8);
  for (std::size_t i = 0; i < 12; ++i) {
    const Guid obj = test::make_guid(net, 300 + i);
    net.publish(g.ids[wl.next_u64(g.ids.size())], obj);
    salted.push_back(salted_guid(obj, 0));
  }
  for (const Guid& s : salted) {
    const auto* holders = repl->holders(s);
    ASSERT_NE(holders, nullptr);
    std::vector<NodeId> want = by_distance_from(net, net.surrogate_root(s), {});
    want.resize(k);
    EXPECT_EQ(*holders, want) << s.to_string();
  }

  // Fail one holder of each of four sets, a different position each time.
  for (std::size_t i = 0; i < 4; ++i) {
    const std::vector<NodeId> before = *repl->holders(salted[i]);
    ASSERT_EQ(before.size(), k);
    const std::size_t pos = i % k;
    const NodeId victim = before[pos];
    std::vector<NodeId> want = before;
    want[pos] = by_distance_from(net, victim, before).front();
    net.fail(victim);
    EXPECT_EQ(*repl->holders(salted[i]), want)
        << "replacement for " << victim.to_string();
  }
}

/// publish_batch mirrors every root deposit exactly as the serial publish
/// loop does: same holder sets, same replica areas, same messages, and a
/// locate still resolves after each object's root is killed.
TEST(QuorumReplication, PublishBatchMirrorsLikeSerialPublish) {
  const auto params = replicated_params();
  auto serial = test::static_ring_network(256, 61, params);
  auto batch = test::static_ring_network(256, 61, params);
  ASSERT_EQ(serial.ids, batch.ids);
  std::vector<ObjectDirectory::PublishRequest> reqs;
  Rng wl(62);
  for (std::size_t i = 0; i < 32; ++i)
    reqs.push_back({serial.ids[wl.next_u64(serial.ids.size())],
                    test::make_guid(*serial.net, 700 + i)});
  Trace ts, tb;
  for (const auto& r : reqs) serial.net->publish(r.server, r.guid, &ts);
  batch.net->publish_batch(reqs, /*workers=*/4, &tb);
  EXPECT_EQ(ts.messages(), tb.messages());

  QuorumReplicator* ra = serial.net->directory().replicator();
  QuorumReplicator* rb = batch.net->directory().replicator();
  for (const auto& r : reqs) {
    const Guid salted = salted_guid(r.guid, 0);
    ASSERT_NE(ra->holders(salted), nullptr);
    ASSERT_NE(rb->holders(salted), nullptr);
    EXPECT_EQ(*ra->holders(salted), *rb->holders(salted));
  }
  EXPECT_EQ(ra->stats().replica_writes, rb->stats().replica_writes);
  for (const NodeId& id : serial.ids) {
    const MemoryStore& sa = ra->replicas_at(id);
    const MemoryStore& sb = rb->replicas_at(id);
    EXPECT_EQ(sa.size(), sb.size()) << id.to_string();
    for (const auto& r : reqs) {
      const auto a = sa.find_all(salted_guid(r.guid, 0));
      const auto b = sb.find_all(salted_guid(r.guid, 0));
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(record_eq(a[i], b[i]));
    }
  }

  // Kill each object's root unless it serves the object; no republish runs.
  for (auto* net : {serial.net.get(), batch.net.get()}) {
    for (const auto& r : reqs) {
      const NodeId root = net->surrogate_root(salted_guid(r.guid, 0));
      const auto servers = net->servers_of(r.guid);
      if (!net->registry().is_live(root) ||
          std::find(servers.begin(), servers.end(), root) != servers.end())
        continue;
      net->fail(root);
    }
  }
  std::size_t locatable = 0;
  for (const auto& r : reqs) {
    const auto servers = serial.net->servers_of(r.guid);
    if (servers.empty() || !serial.net->registry().is_live(servers[0]))
      continue;
    ++locatable;
    NodeId client = serial.ids[0];
    for (const NodeId& id : serial.ids)
      if (serial.net->registry().is_live(id) && !(id == servers[0])) {
        client = id;
        break;
      }
    EXPECT_TRUE(serial.net->locate(client, r.guid).found);
    EXPECT_TRUE(batch.net->locate(client, r.guid).found)
        << "batch lost " << r.guid.to_string();
  }
  EXPECT_GT(locatable, 0u);
}

// ------------------------------------------------------------------
// Holder sets read off the root's routing table equal the registry scan
// ------------------------------------------------------------------

std::unique_ptr<MetricSpace> holder_space(const std::string& kind,
                                          std::size_t n, Rng& rng) {
  if (kind == "ring") return std::make_unique<RingMetric>(n, rng);
  if (kind == "torus") return std::make_unique<Torus2D>(n, rng);
  if (kind == "transit-stub")
    return std::make_unique<TransitStubMetric>(n, rng);
  if (kind == "euclid6d") return std::make_unique<HighDimEuclidean>(n, 6, rng);
  return std::make_unique<TwoClusterMetric>(n, rng);
}

test::GrownNetwork static_overlay(const std::string& kind, std::size_t n,
                                  std::uint64_t seed,
                                  const TapestryParams& params) {
  test::GrownNetwork g;
  Rng rng(seed);
  g.space = holder_space(kind, n, rng);
  g.net = std::make_unique<Network>(*g.space, params, seed ^ 0xabcdef);
  for (std::size_t i = 0; i < n; ++i) g.ids.push_back(g.net->insert_static(i));
  g.net->rebuild_static_tables();
  return g;
}

/// Publishes one object per live node, named by the node's own id so the
/// node is its root, and expects every holder set formed to be the k
/// nearest live nodes under (distance, id) — the scan's answer.
void expect_holders_match_scan(Network& net, const std::string& label) {
  const QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);
  const std::size_t k = net.params().replication.k;
  for (const NodeId& root : net.node_ids()) {
    const Guid obj(net.params().id, root.value());
    net.publish(root, obj);
    const auto* holders = repl->holders(obj);
    ASSERT_NE(holders, nullptr) << label;
    std::vector<NodeId> want = by_distance_from(net, root, {});
    want.resize(std::min(want.size(), k));
    EXPECT_EQ(*holders, want) << label << " root " << root.to_string();
  }
}

/// Static overlays satisfy Property 2 exactly, so the table walk proves
/// every set on its own; after a fail-and-repair wave of 5% of the nodes
/// the sets still equal the scan.  The wave runs on one worker: the
/// replicated backend's node stores are unlocked MemoryStores.
TEST(QuorumReplication, TableHoldersEqualScanOnStaticAndRepairedOverlays) {
  for (const std::string kind :
       {"ring", "torus", "transit-stub", "euclid6d", "two-cluster"}) {
    auto fresh = static_overlay(kind, 240, 41, replicated_params());
    expect_holders_match_scan(*fresh.net, kind);
    EXPECT_EQ(fresh.net->directory().replicator()->stats().holder_scans, 0u)
        << kind;

    auto repaired = static_overlay(kind, 240, 41, replicated_params());
    std::vector<NodeId> victims;
    Rng pick(43);
    for (const NodeId& id : repaired.ids)
      if (pick.next_u64(20) == 0) victims.push_back(id);
    ASSERT_FALSE(victims.empty());
    repaired.net->fail_and_repair_bulk(victims, 1);
    expect_holders_match_scan(*repaired.net, kind + " after repair");
  }
}

TEST(QuorumReplication, TableHoldersEqualScanOnGrownOverlay) {
  auto g = test::grow_ring_network(160, 47, replicated_params());
  expect_holders_match_scan(*g.net, "grown");
}

/// Unrepaired fail() corpses: a full slot holding one bounds the classes
/// it may hide.  Killing every node of one root's table up to the
/// farthest member of the slot of its nearest neighbour leaves that root
/// no live candidate inside the bound, so its walk must fall back; roots
/// whose corpses sit far away keep their table-derived sets.
TEST(QuorumReplication, TableHoldersEqualScanAroundCorpses) {
  auto g = static_overlay("ring", 240, 53, replicated_params());
  Network& net = *g.net;
  const TapestryNode& root = net.node(g.ids[7]);
  const RoutingTable& table = root.table();
  auto dist_to_root = [&](const NodeId& id) {
    return net.registry().distance(root.id(), id);
  };
  const NodeId nearest = by_distance_from(net, root.id(), {}).front();
  const unsigned level = root.id().common_prefix_len(nearest);
  const NeighborSet slot = table.at(level, nearest.digit(level));
  ASSERT_EQ(slot.size(), slot.capacity());
  double reach = 0.0;
  for (const NeighborEntry& e : slot.entries())
    reach = std::max(reach, dist_to_root(e.id));
  for (const NodeId& id : table.all_neighbors())
    if (dist_to_root(id) <= reach) net.fail(id);

  // Roots whose table holds a corpse in a full slot: the walk bounds them.
  std::size_t bounded = 0;
  for (const NodeId& id : net.node_ids()) {
    const RoutingTable& t = net.node(id).table();
    bool found = false;
    for (unsigned l = 0; l < t.levels() && !found; ++l)
      for (unsigned j = 0; j < t.radix() && !found; ++j) {
        const NeighborSet s = t.at(l, j);
        if (j == id.digit(l) || s.size() < s.capacity()) continue;
        for (const NeighborEntry& e : s.entries())
          if (!net.registry().is_live(e.id)) found = true;
      }
    if (found) ++bounded;
  }

  expect_holders_match_scan(net, "corpses");
  const std::size_t scans =
      net.directory().replicator()->stats().holder_scans;
  EXPECT_GE(scans, 1u);       // the root above cannot prove its set
  EXPECT_LT(scans, bounded);  // others prove theirs despite corpses
}

/// Dynamic joins keep Property 2 only approximately: a close node can list
/// the root in its table while the root's own slot lacks it.  The root's
/// backpointers still name that node, so the walk finds it.
TEST(QuorumReplication, TableHoldersIncludeBackpointerHolders) {
  auto g = static_overlay("ring", 240, 71, replicated_params());
  Network& net = *g.net;
  const NodeId root = g.ids[5];
  const NodeId nearest = by_distance_from(net, root, {}).front();
  const unsigned level = root.common_prefix_len(nearest);
  RoutingTable& table = net.node(root).table();
  ASSERT_TRUE(table.has_backpointer(level, nearest));
  ASSERT_TRUE(table.remove(level, nearest.digit(level), nearest));

  expect_holders_match_scan(net, "asymmetric link");
  EXPECT_EQ(net.directory().replicator()->stats().holder_scans, 0u);
}

/// A pinned member (a §4.4 insertion in flight) sits outside its slot's
/// capacity, so the slot bounds nothing and the set comes from the scan.
TEST(QuorumReplication, PinnedSlotFallsBackToScan) {
  auto g = static_overlay("ring", 240, 67, replicated_params());
  Network& net = *g.net;
  const NodeId root = g.ids[3];
  RoutingTable& table = net.node(root).table();
  const NodeId inserting = by_distance_from(net, root, {}).back();
  const unsigned level = root.common_prefix_len(inserting);
  table.pin(level, inserting.digit(level), inserting,
            net.registry().distance(root, inserting));

  expect_holders_match_scan(net, "pinned");
  EXPECT_EQ(net.directory().replicator()->stats().holder_scans, 1u);
}

/// k = 4 > R = 3: the k nearest need not all sit in the table, so every
/// set comes from the scan.
TEST(QuorumReplication, HolderSetsFallBackToScanWhenKExceedsR) {
  auto params = replicated_params();
  params.replication = ReplicationParams{4, 3, 2};
  auto g = static_overlay("euclid6d", 240, 59, params);
  expect_holders_match_scan(*g.net, "k=4");
  EXPECT_EQ(g.net->directory().replicator()->stats().holder_scans,
            g.ids.size());
}

/// A holder death re-replicates: the dead holder is replaced by the next
/// nearest live node and the surviving copies are merged onto it.
TEST(QuorumReplication, HolderDeathReReplicatesOntoReplacement) {
  const auto params = replicated_params();
  auto g = test::grow_ring_network(64, 19, params);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);

  const Guid obj = test::make_guid(net, 33);
  const NodeId server = g.ids[3];
  net.publish(server, obj);
  const Guid salted = salted_guid(obj, 0);
  const auto* holders = repl->holders(salted);
  ASSERT_NE(holders, nullptr);
  const std::vector<NodeId> before = *holders;
  ASSERT_EQ(before.size(), params.replication.k);

  const NodeId victim = before[0];
  net.fail(victim);

  const auto* after = repl->holders(salted);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->size(), params.replication.k);
  EXPECT_EQ(std::find(after->begin(), after->end(), victim), after->end());
  EXPECT_GE(repl->stats().rereplications, 1u);
  // The replacement (the one id not in the old set) holds the record.
  for (const NodeId& h : *after) {
    if (std::find(before.begin(), before.end(), h) != before.end()) continue;
    EXPECT_TRUE(repl->replicas_at(h).find(salted, server).has_value())
        << "replacement " << h.to_string() << " missing the mirrored record";
  }
}

/// A mirror naming a dead server dies where the replicator next reads it.
/// (a) The only server of an object dies, then one of its holders: the
/// holder's death finds no mirror naming a live server, so it drops the
/// set and re-replicates nothing.  (b) One of two servers dies and the
/// other unpublishes: the dead server's mirror does not keep the set.
/// Either way the set goes with its mirrors.
TEST(QuorumReplication, MirrorsNamingADeadServerDieWhereRead) {
  const auto params = replicated_params();
  ASSERT_EQ(params.replication.k, 3u);
  auto g = test::static_ring_network(128, 37, params);
  Network& net = *g.net;
  QuorumReplicator* repl = net.directory().replicator();
  ASSERT_NE(repl, nullptr);
  auto listed = [](const std::vector<NodeId>& v, const NodeId& x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  auto mirrored = [&](const Guid& salted, const std::vector<NodeId>& hs) {
    std::size_t n = 0;
    for (const NodeId& h : hs)
      if (net.registry().is_live(h))
        n += repl->replicas_at(h).find_all(salted).size();
    return n;
  };

  // (a)
  const Guid a = test::make_guid(net, 71);
  const Guid salted_a = salted_guid(a, 0);
  const NodeId server = g.ids[11];
  net.publish(server, a);
  ASSERT_NE(repl->holders(salted_a), nullptr);
  const std::vector<NodeId> holders_a = *repl->holders(salted_a);
  ASSERT_FALSE(listed(holders_a, server));
  net.fail(server);
  ASSERT_NE(repl->holders(salted_a), nullptr)
      << "a server's death walks no holder set";
  const std::size_t rereplications = repl->stats().rereplications;
  net.fail(holders_a[0]);
  EXPECT_EQ(repl->holders(salted_a), nullptr);
  EXPECT_EQ(repl->stats().rereplications, rereplications);
  EXPECT_EQ(mirrored(salted_a, holders_a), 0u);

  // (b)
  const Guid b = test::make_guid(net, 72);
  const Guid salted_b = salted_guid(b, 0);
  const NodeId dying = g.ids[21];
  const NodeId staying = g.ids[31];
  net.publish(dying, b);
  net.publish(staying, b);
  ASSERT_NE(repl->holders(salted_b), nullptr);
  const std::vector<NodeId> holders_b = *repl->holders(salted_b);
  ASSERT_FALSE(listed(holders_b, dying));
  ASSERT_EQ(mirrored(salted_b, holders_b), 2 * holders_b.size());
  net.fail(dying);
  ASSERT_NE(repl->holders(salted_b), nullptr);
  net.unpublish(staying, b);
  EXPECT_EQ(repl->holders(salted_b), nullptr);
  EXPECT_EQ(mirrored(salted_b, holders_b), 0u);
}

}  // namespace
}  // namespace tap
