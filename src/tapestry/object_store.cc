#include "src/tapestry/object_store.h"

#include <cmath>

#include "src/common/assert.h"
#include "src/tapestry/params.h"
#include "src/tapestry/persistent_store.h"
#include "src/tapestry/sharded_store.h"

namespace tap {

std::vector<PointerRecord> ObjectStoreBackend::find_all(
    const Guid& guid) const {
  std::vector<PointerRecord> out;
  for_each_of(guid, [&](const Guid&, const PointerRecord& r) {
    out.push_back(r);
  });
  return out;
}

std::vector<PointerRecord> ObjectStoreBackend::find_live(const Guid& guid,
                                                         double now) const {
  std::vector<PointerRecord> out;
  for_each_of(guid, [&](const Guid&, const PointerRecord& r) {
    if (r.expires_at >= now) out.push_back(r);
  });
  return out;
}

std::vector<std::pair<Guid, PointerRecord>> ObjectStoreBackend::snapshot()
    const {
  std::vector<std::pair<Guid, PointerRecord>> out;
  out.reserve(size());
  for_each([&](const Guid& g, const PointerRecord& r) {
    out.emplace_back(g, r);
  });
  return out;
}

void MemoryStore::upsert(const Guid& guid, const PointerRecord& record) {
  TAP_CHECK(guid.valid() && record.server.valid(),
            "upsert needs valid guid and server");
  // A NaN deadline is never live and never expires, and a level past the
  // last digit names no routing step; PersistentStore's replay refuses
  // both, so no backend may accept them.
  TAP_CHECK(!std::isnan(record.expires_at) &&
                record.level <= guid.spec().num_digits,
            "upsert needs a non-NaN deadline and level <= num_digits");
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

std::optional<PointerRecord> MemoryStore::find(const Guid& guid,
                                               const NodeId& server) const {
  auto it = map_.find(guid);
  if (it == map_.end()) return std::nullopt;
  for (const auto& r : it->second)
    if (r.server == server) return r;
  return std::nullopt;
}

void MemoryStore::for_each_of(const Guid& guid, const Visitor& fn) const {
  auto it = map_.find(guid);
  if (it == map_.end()) return;
  for (const auto& r : it->second) fn(guid, r);
}

bool MemoryStore::remove(const Guid& guid, const NodeId& server) {
  auto it = map_.find(guid);
  if (it == map_.end()) return false;
  auto& vec = it->second;
  for (auto r = vec.begin(); r != vec.end(); ++r) {
    if (r->server == server) {
      vec.erase(r);
      --count_;
      if (vec.empty()) map_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t MemoryStore::remove_expired(double now) {
  std::size_t removed = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    auto& vec = it->second;
    for (auto r = vec.begin(); r != vec.end();) {
      if (r->expires_at < now) {
        r = vec.erase(r);
        ++removed;
        --count_;
      } else {
        ++r;
      }
    }
    it = vec.empty() ? map_.erase(it) : std::next(it);
  }
  return removed;
}

void MemoryStore::for_each(const Visitor& fn) const {
  for (const auto& [guid, vec] : map_)
    for (const auto& r : vec) fn(guid, r);
}

StoreStats MemoryStore::stats() const {
  StoreStats s;
  s.backend = "memory";
  s.records = count_;
  return s;
}

std::unique_ptr<ObjectStoreBackend> make_object_store(
    const TapestryParams& params, const NodeId& id) {
  switch (params.store_backend) {
    case StoreBackend::kMemory:
    case StoreBackend::kReplicated:
      return std::make_unique<MemoryStore>();
    case StoreBackend::kSharded:
      return std::make_unique<ShardedStore>();
    case StoreBackend::kPersistent:
    case StoreBackend::kReplicatedPersistent:
      TAP_CHECK(!params.store_dir.empty(),
                "the persist and replicated+persist backends require "
                "params.store_dir");
      return std::make_unique<PersistentStore>(params.store_dir, id,
                                               params.id);
  }
  TAP_CHECK(false,
            "unknown StoreBackend (valid: memory, sharded, persist, "
            "replicated, replicated+persist)");
  return nullptr;  // unreachable
}

}  // namespace tap
