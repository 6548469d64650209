// Object-pointer storage: the abstract per-node soft-state directory
// (paper §2.2, §6.5) and its reference in-memory backend.
//
// Publishing deposits, at every node on the path from a storage server to
// the object's root, a pointer  GUID -> server.  Unlike PRR, Tapestry keeps
// a pointer for *every* replica of a GUID (paper §2.4), so records are
// keyed by (salted GUID, server).
//
// Each record carries:
//   * last_hop — the previous node on the publish path, required by the
//     OPTIMIZEOBJECTPTRS / DELETEPOINTERSBACKWARD procedures of Figure 9;
//   * the routing level (and past-hole flag) at which this node processed
//     the publish, so the node can recompute its next hop for the pointer
//     (the paper's NEXTHOP(objPtr, level));
//   * a soft-state expiry deadline (§6.5): pointers are republished at
//     regular intervals and vanish if their publisher stops refreshing.
//
// The paper treats this per-node store as an abstract directory; here it is
// the ObjectStoreBackend interface, with the implementations selected per
// overlay through TapestryParams::store_backend (see make_object_store):
//
//   MemoryStore      unordered_map, the conformance reference and the only
//                    record container: every other backend keeps its
//                    records in MemoryStores (object_store.cc);
//   ShardedStore     sixteen {mutex, MemoryStore} stripes, each allocated
//                    at its first record, so batch drains and expiry
//                    sweeps may hit one node's store from several threads
//                    (sharded_store.{h,cc});
//   PersistentStore  MemoryStore mirror + append-only WAL and compacting
//                    snapshot on disk; recover() rebuilds identical visible
//                    state after a restart (persistent_store.{h,cc}).
//
// The replicated backends are not a fourth storage discipline: they give
// each node a MemoryStore ("replicated") or a PersistentStore
// ("replicated+persist") and switch on the quorum replication protocol,
// whose QuorumReplicator keeps the records mirrored to each holder in
// replica areas of its own, outside the holder's store
// (replicated_store.{h,cc}; docs/stores.md has the k/W/R semantics).
//
// A backend implements eight primitives — upsert, find, for_each_of,
// remove, remove_expired, size, for_each, stats — plus flush() when it
// holds durable state.  find_all, find_live and snapshot are defined once,
// on top of for_each_of / for_each.
//
// Visible-state contract (what the conformance suite in
// tests/test_object_store.cc pins down): after any single-threaded op
// sequence, all backends agree on size(), find(), find_all()/find_live()
// (per-guid record order = first-insertion order of each (guid, server)
// pair), and on snapshot() up to global ordering.  A record is live while
// `now <= expires_at` — the deadline itself is inclusive, matching
// remove_expired() which drops strictly-past records only.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/tapestry/id.h"

namespace tap {

struct TapestryParams;

struct PointerRecord {
  NodeId server{};
  std::optional<NodeId> last_hop{};  ///< absent at the storage server itself
  unsigned level = 0;                ///< routing level on arrival
  bool past_hole = false;            ///< PRR-like routing state on arrival
  double expires_at = std::numeric_limits<double>::infinity();
};

/// Counters a backend exposes for benchmarks and churn reports.  The WAL
/// fields cover the store's lifetime and are zero for non-persistent
/// backends.
struct StoreStats {
  const char* backend = "";   ///< "memory" | "sharded" | "persist" (the
                              ///< replicated backends report their node
                              ///< store: "memory" or "persist")
  std::size_t records = 0;    ///< live records (== size())
  std::size_t stripes = 1;    ///< internal lock stripes (1 = unsynchronized)
  std::size_t wal_records = 0;   ///< WAL entries since the last compaction
  std::size_t wal_bytes = 0;     ///< bytes appended to the WAL (lifetime)
  std::size_t compactions = 0;   ///< snapshot rewrites performed
};

/// Abstract per-node object-pointer store.  Single ops are not required to
/// be thread-safe unless the backend says so (stats().stripes > 1); all
/// implementations must satisfy the visible-state contract above.
class ObjectStoreBackend {
 public:
  using Visitor = std::function<void(const Guid&, const PointerRecord&)>;

  virtual ~ObjectStoreBackend() = default;

  /// Inserts or replaces the record for (guid, record.server).
  virtual void upsert(const Guid& guid, const PointerRecord& record) = 0;

  /// Record for a specific (guid, server) pair, if present.
  [[nodiscard]] virtual std::optional<PointerRecord> find(
      const Guid& guid, const NodeId& server) const = 0;

  /// All records for a guid (possibly several replicas); empty if none.
  [[nodiscard]] std::vector<PointerRecord> find_all(const Guid& guid) const;

  /// Non-expired records for a guid at simulated time `now`.
  [[nodiscard]] std::vector<PointerRecord> find_live(const Guid& guid,
                                                     double now) const;

  /// Visits every record of `guid` without materializing a vector — the
  /// locate hot path reads through this (see ObjectDirectory).  The
  /// callback must not mutate this store.
  virtual void for_each_of(const Guid& guid, const Visitor& fn) const = 0;

  /// Removes the record for (guid, server).  Returns true if present.
  virtual bool remove(const Guid& guid, const NodeId& server) = 0;

  /// Drops every record whose deadline has strictly passed; returns how
  /// many.  A record with expires_at == now survives (it is still live).
  virtual std::size_t remove_expired(double now) = 0;

  /// Total records held (the per-node directory load in Table 1 terms).
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Visits every (guid, record) pair.  The callback must not mutate this
  /// store; callers snapshot first when they need to modify during
  /// iteration (see snapshot()).
  virtual void for_each(const Visitor& fn) const = 0;

  /// Copy of all (guid, record) pairs — safe to iterate while mutating.
  [[nodiscard]] std::vector<std::pair<Guid, PointerRecord>> snapshot() const;

  /// Counters (see StoreStats).
  [[nodiscard]] virtual StoreStats stats() const = 0;

  /// Pushes buffered durable state to disk.  No-op for volatile backends.
  virtual void flush() {}
};

/// The reference backend: exactly the pre-refactor ObjectStore.  Also the
/// record container of every other backend — ShardedStore's stripes,
/// PersistentStore's mirror — and of QuorumReplicator's replica areas.
class MemoryStore : public ObjectStoreBackend {
 public:
  void upsert(const Guid& guid, const PointerRecord& record) override;
  [[nodiscard]] std::optional<PointerRecord> find(
      const Guid& guid, const NodeId& server) const override;
  void for_each_of(const Guid& guid, const Visitor& fn) const override;
  bool remove(const Guid& guid, const NodeId& server) override;
  std::size_t remove_expired(double now) override;
  [[nodiscard]] std::size_t size() const noexcept override { return count_; }
  void for_each(const Visitor& fn) const override;
  [[nodiscard]] StoreStats stats() const override;

 private:
  std::unordered_map<Guid, std::vector<PointerRecord>> map_;
  std::size_t count_ = 0;
};

/// Builds the store `params.store_backend` selects for the node `id`: a
/// MemoryStore for "replicated", a PersistentStore for
/// "replicated+persist".  PersistentStore requires params.store_dir; the
/// node's files live at <store_dir>/<id-hex>.{wal,snap} and recover
/// automatically when present.
[[nodiscard]] std::unique_ptr<ObjectStoreBackend> make_object_store(
    const TapestryParams& params, const NodeId& id);

}  // namespace tap
