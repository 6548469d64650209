#include "src/tapestry/sharded_store.h"

namespace tap {

ShardedStore::~ShardedStore() {
  for (auto& s : stripes_) delete s.load(std::memory_order_relaxed);
}

void ShardedStore::upsert(const Guid& guid, const PointerRecord& record) {
  std::atomic<Stripe*>& slot = stripes_[stripe_of(guid)];
  Stripe* s = slot.load(std::memory_order_acquire);
  if (s == nullptr) {
    // First record of this stripe: install one; a racing first write that
    // got there before us wins, and ours goes.
    auto* fresh = new Stripe;
    if (slot.compare_exchange_strong(s, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      s = fresh;
    else
      delete fresh;
  }
  std::lock_guard<std::mutex> lock(s->mu);
  const std::size_t before = s->store.size();
  s->store.upsert(guid, record);
  if (s->store.size() != before)
    count_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<PointerRecord> ShardedStore::find(const Guid& guid,
                                                const NodeId& server) const {
  const Stripe* s = stripe(stripe_of(guid));
  if (s == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(s->mu);
  return s->store.find(guid, server);
}

void ShardedStore::for_each_of(const Guid& guid, const Visitor& fn) const {
  const Stripe* s = stripe(stripe_of(guid));
  if (s == nullptr) return;
  std::lock_guard<std::mutex> lock(s->mu);
  s->store.for_each_of(guid, fn);
}

bool ShardedStore::remove(const Guid& guid, const NodeId& server) {
  Stripe* s = stripe(stripe_of(guid));
  if (s == nullptr) return false;
  std::lock_guard<std::mutex> lock(s->mu);
  if (!s->store.remove(guid, server)) return false;
  count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::size_t ShardedStore::remove_expired(double now) {
  std::size_t removed = 0;
  for (unsigned i = 0; i < kStripeCount; ++i) {
    Stripe* s = stripe(i);
    if (s == nullptr) continue;
    std::lock_guard<std::mutex> lock(s->mu);
    removed += s->store.remove_expired(now);
  }
  count_.fetch_sub(removed, std::memory_order_relaxed);
  return removed;
}

void ShardedStore::for_each(const Visitor& fn) const {
  for (unsigned i = 0; i < kStripeCount; ++i) {
    const Stripe* s = stripe(i);
    if (s == nullptr) continue;
    std::lock_guard<std::mutex> lock(s->mu);
    s->store.for_each(fn);
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
