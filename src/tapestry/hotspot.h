// Demand-aware locate acceleration: per-node pointer/hop caches and a
// query-rate-driven replica placement policy.
//
// Neither structure appears in the Tapestry paper itself; both implement
// the paper's locality story (§2.2, §3) for skewed workloads, where a hot
// object would otherwise pay the full O(log n) surrogate walk on every
// query while its root region absorbs the entire load.
//
//   * LocateCache — a bounded per-node LRU of "where was this object's
//     pointer found last time".  Entries are *hints*, never answers: a hit
//     jumps the query one message to the remembered pointer holder, where
//     the real store is re-read (pick_live_replica) before resolving.  A
//     holder that no longer has a live record — unpublish, pointer expiry,
//     §4.2 reroute moved it, replica crashed — fails the verification and
//     the query resumes the ordinary surrogate walk, so a cached locate
//     agrees with the uncached one on found/not-found by construction.  A
//     hint naming a dead holder or replica is dropped when it is read, so
//     a death costs only the corpse's own LRU.
//
//   * HotspotManager — exponentially decayed per-object query-rate
//     estimates, fed by the traffic drivers from locate completions.
//     Sustained demand publishes extra replicas at the querying nodes
//     (content replication where the demand is); decayed demand withdraws
//     them again through the ordinary unpublish machinery.  A replica
//     host that died is dropped where the object's replica list is next
//     read, so a death walks no hotspot state either.
//
// Both components are RNG-free, so enabling them cannot perturb a driver's
// workload random stream — replay determinism is preserved verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/tapestry/id.h"
#include "src/tapestry/params.h"

namespace tap {

class NodeRegistry;
class ObjectDirectory;
class Trace;

/// Bounded per-node LRU cache of locate results, keyed by base guid.  One
/// instance serves the whole overlay (the directory owns it); each overlay
/// node gets an independent LRU of at most `capacity` entries, touched only
/// by queries that pass through that node — the state a real node would
/// keep locally.
///
/// Layout: each node's hints sit in one flat slot array.  A slot holds the
/// base guid, the salted target, the holder and the server as bare 8-byte
/// values under the overlay's IdSpec (every call checks an id's spec, as
/// RoutingTable does), the expiry, and 16-bit prev/next links that thread
/// the LRU order through the array.  A per-node open-addressing index of
/// 16-bit slot numbers, keyed by the base guid and at most half full,
/// finds a slot; evicted and erased slots go on a free list for reuse.
/// The array grows by small steps up to `capacity`, so a hint costs about
/// 53 bytes at a full 128-entry node (heap_bytes()), and an insert or a
/// lookup at a node whose array is warm allocates nothing.
class LocateCache {
 public:
  /// A remembered resolution: the salted root name the pointer was filed
  /// under, the node the pointer was found on, the replica it named, and
  /// the instant the hint stops being trustworthy (never later than the
  /// underlying record's soft-state deadline, so a hint can't outlive the
  /// pointer_ttl guarantees of §6.5).
  struct Entry {
    Guid target{};
    NodeId holder{};
    NodeId server{};
    double expires = 0.0;
  };

  struct Stats {
    std::size_t hits = 0;        ///< lookups that returned an entry
    std::size_t misses = 0;      ///< lookups with nothing usable
    std::size_t expired = 0;     ///< entries dropped at lookup for age
    std::size_t fallbacks = 0;   ///< hits whose holder verification failed
    std::size_t insertions = 0;  ///< upserts (refreshes included)
    /// Entries drop_node dropped with a corpse's LRU, and hints lookup
    /// dropped for naming a dead holder or server.
    std::size_t invalidated = 0;
  };

  /// Whether a node is alive; ObjectDirectory binds the registry's.
  using Liveness = std::function<bool(const NodeId&)>;

  /// The most hints one node can hold: slot numbers, links and the count
  /// are 16-bit, and all stay below the nil mark 0xFFFF.
  static constexpr std::size_t kMaxCapacity = 65534;

  /// `capacity` == 0 disables the cache entirely (every call is a no-op and
  /// lookups never hit); above kMaxCapacity it throws CheckError.  Every
  /// id the cache is handed must be under `spec`.  Without `is_live` every
  /// node counts as alive.
  LocateCache(IdSpec spec, std::size_t capacity, Liveness is_live = nullptr);

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// Returns node `at`'s freshest entry for `base`, refreshing its LRU
  /// position.  An entry whose holder or server is dead, or whose
  /// deadline has passed, is dropped on the spot and the lookup counts as
  /// a miss.
  std::optional<Entry> lookup(const NodeId& at, const Guid& base, double now);

  /// Upserts an entry into node `at`'s LRU, evicting the stalest entry
  /// past capacity.  An entry already at or past its deadline is dropped.
  void insert(const NodeId& at, const Guid& base, Entry entry, double now);

  /// Drops node `at`'s entry for `base` (failed verification).
  void erase(const NodeId& at, const Guid& base);

  /// Drops the dead or departed node's own LRU (§5).  Hints elsewhere
  /// that name it as pointer holder or replica stay until lookup reads
  /// them, or the LRU evicts them.
  void drop_node(const NodeId& dead);

  /// Records a hit whose holder verification failed (the caller fell back
  /// to the surrogate walk).
  void note_fallback() noexcept {
    ++stats_.fallbacks;
    metrics::cache_fallbacks_total().inc();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Total entries across all nodes (tests audit the LRU bound with
  /// entries_at).
  [[nodiscard]] std::size_t entries() const noexcept;
  [[nodiscard]] std::size_t entries_at(const NodeId& at) const;
  /// Heap bytes the cache holds: each container's capacity times its
  /// element size (RoutingTable::heap_bytes' convention).
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

 private:
  static constexpr std::uint16_t kNil = 0xFFFF;

  struct Slot {
    std::uint64_t base;
    std::uint64_t target;
    std::uint64_t holder;
    std::uint64_t server;
    double expires;
    std::uint16_t prev;  ///< toward the most recently used
    std::uint16_t next;  ///< toward the stalest; a free slot's list link
  };

  struct PerNode {
    std::vector<Slot> slots;
    std::vector<std::uint16_t> index;  ///< slot numbers; kNil = empty cell
    std::uint16_t head = kNil;         ///< most recently used
    std::uint16_t tail = kNil;         ///< stalest: the eviction victim
    std::uint16_t free = kNil;         ///< first reusable slot
    std::uint16_t size = 0;            ///< hints held

    /// The slot holding `base`, or kNil.
    [[nodiscard]] std::uint16_t find(std::uint64_t base) const;
    /// The index cell holding `base`, or the empty cell ending its probe.
    [[nodiscard]] std::size_t cell(std::uint64_t base) const;
    /// A slot for a new hint: the free list's first, else one more array
    /// slot (the array grows by a step, never past `capacity`).
    std::uint16_t take(std::size_t capacity);
    void link_front(std::uint16_t s);
    void unlink(std::uint16_t s);
    /// Drops slot `s`'s hint: out of the LRU and the index, onto the free
    /// list.
    void remove(std::uint16_t s);
  };

  void check_spec(const Id& id) const {
    TAP_CHECK(id.spec() == spec_, "id's IdSpec differs from the cache's");
  }
  [[nodiscard]] Entry entry_of(const Slot& s) const {
    return Entry{Id::unchecked(spec_, s.target), Id::unchecked(spec_, s.holder),
                 Id::unchecked(spec_, s.server), s.expires};
  }

  IdSpec spec_;
  std::size_t capacity_;
  Liveness is_live_;
  std::unordered_map<std::uint64_t, PerNode> nodes_;
  Stats stats_{};
};

/// Tracks decayed per-object query rates and converts sustained demand
/// into extra replicas near the clients generating it.  Fed explicitly by
/// the traffic driver (record_query from each locate completion); runs a
/// recurring decay/demotion tick on the event queue between start()/stop().
class HotspotManager {
 public:
  struct Stats {
    std::size_t promotions = 0;  ///< extra replicas published
    std::size_t demotions = 0;   ///< extra replicas withdrawn
    std::size_t tracked = 0;     ///< objects with live demand state
    std::size_t extra_live = 0;  ///< extra replicas currently registered
    std::size_t cold_evictions = 0;  ///< tracked states evicted at the cap
    std::size_t track_drops = 0;     ///< queries untracked (cap, no victim)
    std::size_t extra_pruned = 0;    ///< dead hosts dropped from, or
                                     ///< still listed in, `extra`
  };

  /// `synchronous` selects publish() over publish_async() for promotions
  /// (ChurnDriver promotes through events; standalone callers need not run
  /// the queue).  `trace` (if any) absorbs the replication traffic and
  /// must outlive the manager.
  HotspotManager(NodeRegistry& registry, ObjectDirectory& directory,
                 EventQueue& events, HotspotParams params, bool synchronous,
                 Trace* trace = nullptr);

  HotspotManager(const HotspotManager&) = delete;
  HotspotManager& operator=(const HotspotManager&) = delete;

  /// Starts the recurring decay/demotion tick (check_interval <= 0
  /// disables it; tick() can still be driven manually).
  void start();
  void stop();

  /// One completed locate for `base` issued by `client`.  Promotion
  /// happens inline when the decayed rate crosses the threshold.
  void record_query(const Guid& base, const NodeId& client, bool found);

  /// Decayed demand estimate for `base` as of the event clock.
  [[nodiscard]] double demand(const Guid& base) const;

  /// One decay/demotion pass over all tracked objects (also reclaims
  /// states whose demand decayed to noise).
  void tick();

  [[nodiscard]] Stats stats() const;

 private:
  /// A demand site: one client's decayed share of an object's queries.
  struct Site {
    NodeId client{};
    double weight = 0.0;
  };
  struct ObjState {
    double weight = 0.0;  ///< decayed query count as of `stamp`
    double stamp = 0.0;
    std::vector<Site> sites;   ///< top querying clients (bounded)
    std::vector<NodeId> extra; ///< replicas this manager published
  };

  [[nodiscard]] double decay_factor(double age) const;
  void consider_promote(const Guid& base, ObjState& s);
  void demote_last(const Guid& base, ObjState& s);
  /// Reclaims the coldest tracked state that owns no extra replicas; false
  /// when every tracked object still holds replicas (nothing evictable).
  bool evict_coldest();
  /// Drops the dead hosts from `s.extra`.  Every reader of `extra` calls
  /// it first, so a death walks no hotspot state.
  void prune_dead_extras(ObjState& s);

  NodeRegistry& reg_;
  ObjectDirectory& dir_;
  EventQueue& events_;
  HotspotParams hp_;
  bool synchronous_;
  Trace* trace_;

  std::unordered_map<Guid, ObjState> states_;
  std::size_t promotions_ = 0;
  std::size_t demotions_ = 0;
  std::size_t cold_evictions_ = 0;
  std::size_t track_drops_ = 0;
  std::size_t extra_pruned_ = 0;
  Timer tick_timer_;
};

}  // namespace tap
