// Tunable parameters of the Tapestry overlay (paper §2-§4).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "src/tapestry/id.h"

namespace tap {

/// Which per-node object-store backend the overlay's nodes use (see
/// src/tapestry/object_store.h for the contract and the implementations).
enum class StoreBackend {
  kMemory,      ///< unordered_map; the conformance reference
  kSharded,     ///< striped internal locks; concurrent batch/expiry drains
  kPersistent,  ///< WAL + compacting snapshot; survives node restarts
  kReplicated,  ///< memory store + quorum-replicated mirrors at the root's
                ///< k-nearest neighbor set (replicated_store.{h,cc})
  kReplicatedPersistent,  ///< the same replication over persistent node
                          ///< stores; needs `store_dir` like kPersistent
};

/// How inter-node messages travel (see src/tapestry/transport.h and
/// docs/transport.md for the wire format and the selection contract).
enum class TransportKind {
  kDirect,    ///< plain function calls; byte-identical to the pre-seam build
  kLoopback,  ///< every message encoded to Datagram bytes, then decoded
};

/// Which localized surrogate-routing variant to use (paper §2.3).
enum class RoutingMode {
  /// "Tapestry Native Routing": on a hole, route to the next filled entry
  /// in the same level, wrapping around digit values.
  kTapestryNative,
  /// "Distributed PRR-like Routing": before the first hole route exactly;
  /// at and after the first hole prefer digits matching in the most
  /// significant bits, breaking ties toward numerically higher digits.
  kPrrLike,
};

/// Knobs of the demand-driven replica placement policy (see
/// src/tapestry/hotspot.h).  All rates are exponentially decayed query
/// counts; time constants are in simulated time units.
struct HotspotParams {
  /// Half-life of the per-object demand estimate: a query contributes
  /// half its weight this long after it completed.
  double half_life = 4.0;
  /// Decayed query count at which the first extra replica is published;
  /// replica k+1 requires (k+1) times this, spacing promotions out as
  /// demand keeps climbing.
  double promote_threshold = 12.0;
  /// Decayed query count below which the newest extra replica is
  /// withdrawn again (one per decay tick, so flash crowds drain
  /// gradually).  Must be below promote_threshold or replicas thrash.
  double demote_threshold = 2.0;
  /// Cap on extra replicas per object (beyond those the workload
  /// published).
  unsigned max_extra_replicas = 2;
  /// Period of the recurring decay/demotion tick; <= 0 disables it.
  double check_interval = 2.0;
  /// Upper bound on concurrently tracked objects; demand for objects
  /// beyond it goes unrecorded until states decay away.
  std::size_t max_tracked = 4096;
};

/// Knobs of the quorum-replicated pointer store (see
/// src/tapestry/replicated_store.h).  N = k holders per object; the
/// DistHash-style intersection property needs w + r > k so every quorum
/// read overlaps every acknowledged write.
struct ReplicationParams {
  /// Replica holders per published object: the k live nodes nearest to
  /// the object's root (excluding the root itself).
  unsigned k = 3;
  /// Replica writes that must succeed for a publish to count as
  /// replicated (the write quorum W).
  unsigned w = 2;
  /// Holder responses a quorum read gathers before merging (the read
  /// quorum R).
  unsigned r = 2;
};

struct TapestryParams {
  IdSpec id{};

  /// R (paper §2.1): each neighbor set N_{β,j} keeps at most `redundancy`
  /// members — the closest ones.  R > 1 provides the backup links used for
  /// fault-resilience (§2.4: current implementation keeps two backups, so
  /// R = 3 overall).
  unsigned redundancy = 3;

  /// k (paper §3): length of the per-level closest-node lists maintained
  /// while building a neighbor table: k = ceil(k_scale * log2(n)) clamped
  /// to [k_min, n], following Theorem 3's k = O(log n).
  double k_scale = 3.0;
  unsigned k_min = 8;

  /// |R_psi| (paper §2.2, Observation 2): number of roots per object.
  unsigned root_multiplicity = 1;

  RoutingMode routing = RoutingMode::kTapestryNative;

  /// Soft-state TTL for object pointers in simulated time units (§6.5).
  /// Infinity disables expiry (static experiments).
  double pointer_ttl = std::numeric_limits<double>::infinity();

  /// Simulated transmission delay per unit of metric distance for the
  /// event-driven (async) operations: a hop across distance d occupies
  /// d * hop_delay_scale units on the EventQueue before the next step
  /// fires.  Cost accounting (hop counts, latency statistics) always uses
  /// the raw distances and is unaffected.  Kept small by default so that
  /// individual operations are fast relative to soft-state timers — the
  /// paper's model treats per-message delay as negligible against TTLs.
  double hop_delay_scale = 1e-3;

  /// Capacity of each node's locate cache (src/tapestry/hotspot.h): the
  /// per-node LRU of guid -> (pointer holder, replica) hints consulted by
  /// locate before routing onward.  0 (the default) disables caching —
  /// the locate path is then byte-identical to the uncached build.
  std::size_t locate_cache_size = 0;

  /// §2.4: "PRR searches on the primary and secondary neighbors before
  /// taking an additional hop towards the object root."  When set, a
  /// query that misses locally probes the secondary members of the slot
  /// it is about to route through (2 messages each) before hopping —
  /// PRR's object-location behaviour; off (Tapestry behaviour) queries
  /// only primaries.
  bool prr_secondary_search = false;

  /// Observation 1: with root_multiplicity > 1 and independent root
  /// names, a query that misses on one root retries the others, giving
  /// fault tolerance against root failures without waiting for soft
  /// state.  Off, locate tries a single randomly drawn root (the paper's
  /// base behaviour).
  bool retry_all_roots = false;

  /// Object-store backend every node of the overlay instantiates (via
  /// make_object_store).  kPersistent and kReplicatedPersistent
  /// additionally need `store_dir`.
  StoreBackend store_backend = StoreBackend::kMemory;

  /// Wire layer every inter-node message of the overlay travels through
  /// (via make_transport).  kDirect preserves today's call semantics;
  /// kLoopback serializes each message through the Datagram format.
  TransportKind transport = TransportKind::kDirect;

  /// Quorum knobs of the replicated backends; ignored by the others.
  ReplicationParams replication{};

  /// Directory holding the per-node WAL/snapshot files of the persistent
  /// backend (scenario-named by the drivers; ignored by other backends).
  std::string store_dir{};

  [[nodiscard]] unsigned effective_k(std::size_t n) const {
    const double lg = std::log2(static_cast<double>(n < 2 ? 2 : n));
    const auto k = static_cast<unsigned>(std::ceil(k_scale * lg));
    const auto clamped = k < k_min ? k_min : k;
    return n == 0 ? clamped
                  : static_cast<unsigned>(
                        std::min<std::size_t>(clamped, n));
  }
};

}  // namespace tap
