// ShardedStore: sixteen MemoryStores, each behind its own lock, each
// allocated when its first record arrives.
//
// Guids hash onto kStripeCount independent stripes, each a {mutex,
// MemoryStore} pair; every operation locks its guid's stripe and calls the
// MemoryStore method, and the record count is a relaxed atomic.  Two
// threads touching *different guids* of one node's store may therefore
// run concurrently — this is what lets ObjectDirectory::publish_batch
// drain pointer deposits per (node group x guid stripe) instead of
// serializing each node group's stores behind a single worker.
//
// Memory: a stripe is a heap object the store points to, installed by
// the first upsert into it (a compare-exchange; the loser of two racing
// first writes deletes its copy) and freed with the store.  Every read,
// removal and sweep treats a missing stripe as empty.  Most nodes of a
// large overlay hold no record, so an untouched store is its pointer
// array and count (144 bytes), not sixteen mutexes and maps (1,808).
//
// Determinism: all ordered state is per (guid, server) and a guid lives in
// one stripe's MemoryStore, so per-guid first-insertion order is
// MemoryStore's, and any schedule that serializes same-guid operations
// (the batch drain does, by keying its partition on the stripe) produces
// the same visible state as the serial execution.  Whole-store iteration
// (for_each / snapshot) walks stripes in index order; the global order
// differs from a single MemoryStore's but the multiset of records is
// identical.
#pragma once

#include <array>
#include <atomic>
#include <mutex>

#include "src/tapestry/object_store.h"

namespace tap {

class ShardedStore : public ObjectStoreBackend {
 public:
  static constexpr unsigned kStripeCount = 16;

  ShardedStore() = default;
  ~ShardedStore() override;
  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  /// Stripe a guid maps to; ObjectDirectory::publish_batch keys its
  /// concurrent drain partition on this, so it must stay a pure function
  /// of the guid.
  [[nodiscard]] static unsigned stripe_of(const Guid& guid) noexcept {
    // Multiplicative mix of the raw bits: guids that share long prefixes
    // (salted variants, adversarial test patterns) still spread.
    return static_cast<unsigned>((guid.value() * 0x9e3779b97f4a7c15ull) >>
                                 60) &
           (kStripeCount - 1);
  }

  void upsert(const Guid& guid, const PointerRecord& record) override;
  [[nodiscard]] std::optional<PointerRecord> find(
      const Guid& guid, const NodeId& server) const override;
  void for_each_of(const Guid& guid, const Visitor& fn) const override;
  bool remove(const Guid& guid, const NodeId& server) override;
  std::size_t remove_expired(double now) override;
  [[nodiscard]] std::size_t size() const noexcept override {
    return count_.load(std::memory_order_relaxed);
  }
  void for_each(const Visitor& fn) const override;
  [[nodiscard]] StoreStats stats() const override;

 private:
  struct Stripe {
    mutable std::mutex mu;
    MemoryStore store;  // guarded by mu
  };

  /// Stripe `i`, or null while no record has reached it.
  [[nodiscard]] Stripe* stripe(unsigned i) const noexcept {
    return stripes_[i].load(std::memory_order_acquire);
  }

  std::array<std::atomic<Stripe*>, kStripeCount> stripes_{};
  std::atomic<std::size_t> count_{0};
};

}  // namespace tap
