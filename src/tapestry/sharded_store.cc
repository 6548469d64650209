#include "src/tapestry/sharded_store.h"

namespace tap {

void ShardedStore::upsert(const Guid& guid, const PointerRecord& record) {
  Stripe& s = stripes_[stripe_of(guid)];
  std::lock_guard<std::mutex> lock(s.mu);
  const std::size_t before = s.store.size();
  s.store.upsert(guid, record);
  if (s.store.size() != before)
    count_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<PointerRecord> ShardedStore::find(const Guid& guid,
                                                const NodeId& server) const {
  const Stripe& s = stripes_[stripe_of(guid)];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.store.find(guid, server);
}

void ShardedStore::for_each_of(const Guid& guid, const Visitor& fn) const {
  const Stripe& s = stripes_[stripe_of(guid)];
  std::lock_guard<std::mutex> lock(s.mu);
  s.store.for_each_of(guid, fn);
}

bool ShardedStore::remove(const Guid& guid, const NodeId& server) {
  Stripe& s = stripes_[stripe_of(guid)];
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.store.remove(guid, server)) return false;
  count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::size_t ShardedStore::remove_expired(double now) {
  std::size_t removed = 0;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    removed += s.store.remove_expired(now);
  }
  count_.fetch_sub(removed, std::memory_order_relaxed);
  return removed;
}

void ShardedStore::for_each(const Visitor& fn) const {
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.store.for_each(fn);
  }
}

StoreStats ShardedStore::stats() const {
  StoreStats st;
  st.backend = "sharded";
  st.records = size();
  st.stripes = kStripeCount;
  return st;
}

}  // namespace tap
