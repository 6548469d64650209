// PersistentStore: object pointers surviving node restarts (the DistHash
// direction in PAPERS.md — replicated/persistent object records).
//
// A MemoryStore mirror serves every read; each mutation is appended to a
// per-node write-ahead log before control returns.  When the log grows
// past a multiple of the live record count, the store compacts: it writes
// the mirror to a snapshot file (atomically, via tmp + rename) and starts
// a fresh log.  recover() — run automatically at construction — loads the
// snapshot and replays the log, rebuilding the exact visible state,
// including per-guid record order and bit-identical expiry deadlines
// (doubles round-trip through 17 significant digits).
//
// Files live under the scenario-named directory handed to the constructor:
//     <dir>/<node-id-hex>.snap     last compaction snapshot
//     <dir>/<node-id-hex>.wal      mutations since that snapshot
//
// Both files carry a header `H <digit_bits> <num_digits> <generation>`.
// The generation fences crash windows during compaction: a log is replayed
// only if its generation is newer than the snapshot's, so a crash between
// "snapshot renamed" and "log truncated" cannot double-apply the old log.
//
// Log records (text, one per line; doubles as %.17g, inf allowed):
//     U <guid> <server> <has_last_hop> <last_hop> <level> <past_hole> <expires>
//     R <guid> <server>                  remove
//     X <now>                            remove_expired sweep
//
// Replay accepts only what these writers produce: every field parses
// whole, ids fit the IdSpec, level <= num_digits, flags are 0 or 1, and
// times are never NaN.  Any other line ends a log replay, which cuts the
// log there like a torn tail; in a snapshot it is corruption and recovery
// fails loudly.
//
// Durability model: appends are buffered; flush() (or destruction) pushes
// them to the OS.  The simulator's kill-and-resume experiments flush at
// checkpoint epochs — see ObjectDirectory::checkpoint.
#pragma once

#include <cstdio>
#include <string>

#include "src/tapestry/object_store.h"

namespace tap {

class PersistentStore : public ObjectStoreBackend {
 public:
  /// Opens (creating `dir` if needed) the files of node `id` and recovers
  /// whatever state they hold.  `spec` must match the ids in the files.
  PersistentStore(std::string dir, NodeId id, IdSpec spec);
  ~PersistentStore() override;

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  void upsert(const Guid& guid, const PointerRecord& record) override;
  [[nodiscard]] std::optional<PointerRecord> find(
      const Guid& guid, const NodeId& server) const override {
    return mirror_.find(guid, server);
  }
  void for_each_of(const Guid& guid, const Visitor& fn) const override {
    mirror_.for_each_of(guid, fn);
  }
  bool remove(const Guid& guid, const NodeId& server) override;
  std::size_t remove_expired(double now) override;
  [[nodiscard]] std::size_t size() const noexcept override {
    return mirror_.size();
  }
  void for_each(const Visitor& fn) const override { mirror_.for_each(fn); }
  [[nodiscard]] StoreStats stats() const override;
  void flush() override;

  /// Discards the mirror and rebuilds it from disk (snapshot + log
  /// replay).  Called by the constructor; exposed so tests can prove the
  /// round trip on a live store.  In-place recovery flushes the open log
  /// first, so every accepted mutation survives — the clean-restart path.
  /// Crash semantics (unflushed tail lost, torn final record truncated)
  /// apply when a *new* store opens files whose writer never flushed or
  /// closed; see the kill tests in tests/test_object_store.cc.
  void recover();

 private:
  void append_record(const char* line);
  void maybe_compact();
  void open_wal_for_append();
  void replay_file(const std::string& path, bool is_wal,
                   std::uint64_t snap_gen);

  std::string dir_;
  NodeId id_;
  IdSpec spec_;
  std::string wal_path_;
  std::string snap_path_;

  MemoryStore mirror_;
  std::FILE* wal_ = nullptr;
  std::uint64_t gen_ = 0;  ///< generation of the open log
  std::size_t wal_records_ = 0;
  std::size_t compact_backoff_ = 0;  ///< retry floor after a failed compact
  std::size_t wal_bytes_ = 0;
  std::size_t compactions_ = 0;
};

}  // namespace tap
