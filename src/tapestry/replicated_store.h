// QuorumReplicator: quorum-replicated pointer records over the root's
// k-nearest neighbor set (the DistHash direction in PAPERS.md — robust
// replicated objects in a DHT).
//
// In the paper a single root node owns every pointer record of an object:
// a root crash costs availability for each of its objects until the §6.5
// soft-state republish backstop refreshes the records at the new
// surrogate root.  This subsystem closes that window:
//
//   * Every record that a publish deposits at a root is mirrored across
//     the root's k nearest live neighbors (its holder set, chosen
//     deterministically per salted guid by network distance — the same
//     nearest-neighbor notion the §3 construction optimizes for).  The
//     root reads them off its own routing table: by Property 2 each slot
//     holds the R closest nodes of its prefix class, so with k <= R the k
//     nearest all sit in the table.  Its backpointers join the candidates,
//     because dynamic joins keep Property 2 only approximately.  When
//     corpses, pins or k > R leave the walk unable to prove its answer, a
//     scan of the registry picks the set.
//   * A publish counts as replicated once W of the k holders acknowledged
//     the mirrored write (ReplicationParams::w; the write quorum).
//   * A locate that reaches a root with no record — the new surrogate
//     after a root death, typically — performs an R-of-N quorum read over
//     the holder set, merges the freshest live copy per server, repairs
//     stale/missing responder copies (read-repair) and installs the
//     merged records at the root, so the locate resolves exactly as if
//     the root had never lost them.
//   * When a holder dies (reported through ObjectDirectory's node-death
//     seam), a replacement holder is chosen and the surviving copies are
//     merged onto it (re-replication), keeping N holders ahead of further
//     failures.
//   * A mirror naming a dead server dies where it is read: a holder's
//     death re-replicates only the mirrors naming a live server, and a
//     set with none left goes, mirrors and all, at that death, at an
//     unpublish of its guid or at an expiry sweep.  A server's own death
//     walks no holder set.
//
// With w + r > k (default k=3, W=2, R=2) every quorum read intersects
// every acknowledged write, so losing the root or any single holder
// between a publish and a locate loses zero locates — no republish
// needed.
//
// QuorumReplicator is the overlay-level coordinator, owned by
// ObjectDirectory and constructed only when a replicated backend is
// selected (absent otherwise, leaving the default paths byte-identical).
// It owns all of the protocol's state: the holder sets, and one
// MemoryStore replica area per holder for the records mirrored to it on
// behalf of roots elsewhere.  A node's own store never sees its mirrors,
// so size()/find()/snapshot() of any backend stay what object_store.h
// says; the replicated backends differ from memory and persist only in
// switching this coordinator on.  ObjectDirectory::expire_pointers sweeps
// the live holders' areas beside their stores, so mirrors obey §6.5 soft
// state.  Areas are volatile even under replicated+persist: after a full
// restart the recovered primary stores serve every locate, and the next
// republish round rebuilds the mirrors.
//
// All choices (holder selection, merge order, replacement hunt) are
// deterministic functions of registry state, so ChurnDriver replay stays
// seed-deterministic with replication enabled.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/tapestry/object_store.h"
#include "src/tapestry/transport.h"

namespace tap {

class NodeRegistry;
class TapestryNode;
class Trace;
struct TapestryParams;

/// Overlay-level replication coordinator (one per ObjectDirectory).
class QuorumReplicator {
 public:
  /// Local operation counters, mirrored into the tapestry_replica_*
  /// metric family (src/sim/metrics.cc) as they grow.
  struct Stats {
    std::size_t replica_writes = 0;   ///< acknowledged mirror writes
    std::size_t quorum_reads = 0;     ///< quorum reads attempted at roots
    std::size_t read_repairs = 0;     ///< stale/missing copies repaired
    std::size_t rereplications = 0;   ///< holder replacements completed
    /// Holder sets chosen by the registry scan because the root's table
    /// could not prove its k nearest (local only; no metric mirrors it).
    std::size_t holder_scans = 0;
  };

  /// `registry` and `params` must outlive the replicator (both live on
  /// Network).
  QuorumReplicator(NodeRegistry& registry, const TapestryParams& params);

  /// Wires the transport every mirror write, quorum probe and read-repair
  /// push travels through (forwarded from ObjectDirectory::bind_transport).
  void bind_transport(Transport* transport) noexcept {
    transport_ = transport;
  }

  /// A publish reached `root` for `target`: mirror `rec` to every live
  /// reachable holder (choosing the holder set on first contact).
  /// Returns the acknowledged write count; the caller may compare it to
  /// ReplicationParams::w.
  std::size_t mirror_publish(const TapestryNode& root, const Guid& target,
                             const PointerRecord& rec, Trace* trace);

  /// An unpublish reached `root`: withdraw server's mirrored record.  The
  /// guid's holder set goes, mirrors and all, once no holder mirrors a
  /// record of it naming a live server.
  void mirror_remove(const TapestryNode& root, const Guid& target,
                     const NodeId& server, Trace* trace);

  /// R-of-N quorum read at `root` after a definitive locate miss.
  /// Contacts holders in set order until R respond, merges the freshest
  /// live record per server, read-repairs responder copies that are
  /// stale or missing, and returns the merged records (empty = genuine
  /// miss).  The caller installs them at the root.
  std::vector<PointerRecord> quorum_read(const TapestryNode& root,
                                         const Guid& target, double now,
                                         Trace* trace);

  /// `dead` just died or departed: for every holder set containing it,
  /// pick a replacement holder and merge onto it the surviving copies
  /// that name a live server; a set left with none goes.  The dead node's
  /// own replica area is dropped (ids are never reused).
  void on_node_death(const NodeId& dead);

  /// Drops every expired mirror from the live holders' areas: mirrors are
  /// §6.5 soft state too (ObjectDirectory::expire_pointers calls this).
  /// Then drops every holder set none of whose holders mirrors a record
  /// naming a live server.
  void remove_expired(double now);

  /// The records mirrored to `holder` for roots elsewhere, created empty
  /// on first contact.  Never part of the holder's own store.
  [[nodiscard]] MemoryStore& replicas_at(const NodeId& holder) {
    return areas_[holder];
  }

  /// Holder set of `target` (tests/benches).  A set forms at the first
  /// mirror and goes once an unpublish, an expiry sweep or a holder's
  /// death finds no holder mirroring a record of it that names a live
  /// server.
  [[nodiscard]] const std::vector<NodeId>* holders(const Guid& target) const;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Existing holder set, or a fresh one: the k live nodes nearest to
  /// `root` (excluding it), ties broken by id — deterministic given the
  /// membership.  A fresh set comes from nearest_in_table, or from the
  /// nearest_live scan when the walk cannot prove its answer.
  std::vector<NodeId>& holder_set(const TapestryNode& root,
                                  const Guid& target);
  using HolderSets = std::map<Guid, std::vector<NodeId>>;

  /// Whether some holder's area holds a record of `target` naming a live
  /// server.
  [[nodiscard]] bool held(const Guid& target,
                          const std::vector<NodeId>& holders) const;
  /// Erases `it`'s holder set and every mirror of its guid from the
  /// holders' areas; returns the next set.
  HolderSets::iterator drop_set(HolderSets::iterator it);
  /// The k live nodes nearest to `root` under (distance, id), read off
  /// the root's own routing table: every slot except the root's own-digit
  /// one per row, plus the backpointer holders that differ from the root
  /// at their level, distances recomputed from registry locations.  Exact
  /// under Property 2 when k <= R.  Returns nullopt — the caller scans —
  /// when k > R, when fewer than k live candidates turn up, when a slot
  /// holds a pin, or when a full slot holds a corpse and its farthest
  /// member is not strictly farther than the k-th candidate.
  [[nodiscard]] std::optional<std::vector<NodeId>> nearest_in_table(
      const TapestryNode& root, std::size_t k) const;
  /// The (up to) k live nodes nearest to `anchor`'s location under
  /// (distance, id), nearest first, skipping `anchor` and every id in
  /// `taken`: one pass over the registry.  Serves the holder-selection
  /// fallback and the death-time replacement hunt.
  [[nodiscard]] std::vector<NodeId> nearest_live(
      const TapestryNode& anchor, std::size_t k,
      const std::vector<NodeId>& taken) const;

  NodeRegistry& reg_;
  const TapestryParams& params_;
  Transport* transport_ = nullptr;
  // Ordered by guid so death-time scans visit sets in a deterministic
  // order regardless of insertion history.
  HolderSets holder_sets_;
  // Replica area per holder (see replicas_at).
  std::unordered_map<NodeId, MemoryStore> areas_;
  Stats stats_;
};

}  // namespace tap
