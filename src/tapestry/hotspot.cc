#include "src/tapestry/hotspot.h"

#include <algorithm>
#include <cmath>

#include "src/sim/metrics.h"
#include "src/tapestry/object_directory.h"
#include "src/tapestry/registry.h"

namespace tap {

// ---------------------------------------------------------------------
// LocateCache
// ---------------------------------------------------------------------

std::optional<LocateCache::Entry> LocateCache::lookup(const NodeId& at,
                                                      const Guid& base,
                                                      double now) {
  if (!enabled()) return std::nullopt;
  auto nit = nodes_.find(at.value());
  if (nit == nodes_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  PerNode& pn = nit->second;
  auto it = pn.index.find(base);
  if (it == pn.index.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  // A hint naming a dead holder or replica leads nowhere; it dies here,
  // where it is read, not at the death.  The cache is also one instant
  // stricter than the store, which still treats now == expires_at as live:
  // a hint dies at its deadline, so it can never name a pointer the
  // holder's store no longer returns.
  const Entry& e = it->second->second;
  const bool stale = is_live_ && !(is_live_(e.holder) && is_live_(e.server));
  if (stale || e.expires <= now) {
    ++(stale ? stats_.invalidated : stats_.expired);
    pn.lru.erase(it->second);
    pn.index.erase(it);
    ++stats_.misses;
    return std::nullopt;
  }
  pn.lru.splice(pn.lru.begin(), pn.lru, it->second);  // refresh LRU position
  ++stats_.hits;
  metrics::cache_hits_total().inc();
  return it->second->second;
}

void LocateCache::insert(const NodeId& at, const Guid& base, Entry entry,
                         double now) {
  if (!enabled()) return;
  if (entry.expires <= now) return;  // born dead; nothing worth remembering
  PerNode& pn = nodes_[at.value()];
  ++stats_.insertions;
  if (auto it = pn.index.find(base); it != pn.index.end()) {
    it->second->second = entry;
    pn.lru.splice(pn.lru.begin(), pn.lru, it->second);
    return;
  }
  pn.lru.emplace_front(base, entry);
  pn.index.emplace(base, pn.lru.begin());
  if (pn.lru.size() > capacity_) {
    pn.index.erase(pn.lru.back().first);
    pn.lru.pop_back();
  }
}

void LocateCache::erase(const NodeId& at, const Guid& base) {
  auto nit = nodes_.find(at.value());
  if (nit == nodes_.end()) return;
  PerNode& pn = nit->second;
  auto it = pn.index.find(base);
  if (it == pn.index.end()) return;
  pn.lru.erase(it->second);
  pn.index.erase(it);
}

void LocateCache::drop_node(const NodeId& dead) {
  if (auto nit = nodes_.find(dead.value()); nit != nodes_.end()) {
    stats_.invalidated += nit->second.lru.size();
    nodes_.erase(nit);
  }
}

std::size_t LocateCache::entries() const noexcept {
  std::size_t n = 0;
  for (const auto& [node, pn] : nodes_) n += pn.lru.size();
  return n;
}

std::size_t LocateCache::entries_at(const NodeId& at) const {
  auto nit = nodes_.find(at.value());
  return nit == nodes_.end() ? 0 : nit->second.lru.size();
}

// ---------------------------------------------------------------------
// HotspotManager
// ---------------------------------------------------------------------

namespace {

/// How many distinct querying clients to remember per object — promotion
/// places the replica at the heaviest remembered one.
constexpr std::size_t kDemandSites = 8;

}  // namespace

HotspotManager::HotspotManager(NodeRegistry& registry,
                               ObjectDirectory& directory, EventQueue& events,
                               HotspotParams params, bool synchronous,
                               Trace* trace)
    : reg_(registry), dir_(directory), events_(events), hp_(params),
      synchronous_(synchronous), trace_(trace) {
  TAP_CHECK(hp_.half_life > 0.0, "hotspot half_life must be positive");
  TAP_CHECK(hp_.demote_threshold < hp_.promote_threshold,
            "hotspot demote_threshold must sit below promote_threshold");
}

double HotspotManager::decay_factor(double age) const {
  return age <= 0.0 ? 1.0 : std::exp2(-age / hp_.half_life);
}

void HotspotManager::start() {
  stop();
  if (hp_.check_interval > 0.0)
    tick_timer_.every(events_, hp_.check_interval, [this] { tick(); });
}

void HotspotManager::stop() { tick_timer_.stop(); }

void HotspotManager::record_query(const Guid& base, const NodeId& client,
                                  bool found) {
  auto it = states_.find(base);
  if (it == states_.end()) {
    // At the tracking cap, reclaim the coldest entry that holds no extra
    // replicas rather than silently ignoring the newcomer — a flash crowd
    // on a fresh guid after warm-up must still be able to earn replicas.
    if (states_.size() >= hp_.max_tracked && !evict_coldest()) {
      ++track_drops_;
      return;
    }
    it = states_.emplace(base, ObjState{}).first;
  }
  ObjState& s = it->second;
  const double now = events_.now();
  const double f = decay_factor(now - s.stamp);
  s.weight = s.weight * f + 1.0;
  s.stamp = now;
  for (Site& site : s.sites) site.weight *= f;

  auto sit = std::find_if(s.sites.begin(), s.sites.end(),
                          [&](const Site& x) { return x.client == client; });
  if (sit != s.sites.end()) {
    sit->weight += 1.0;
  } else if (s.sites.size() < kDemandSites) {
    s.sites.push_back(Site{client, 1.0});
  } else {
    // Full: displace the lightest remembered site if the newcomer's single
    // query already outweighs it (deterministic: first minimum wins).
    auto lightest = std::min_element(
        s.sites.begin(), s.sites.end(),
        [](const Site& a, const Site& b) { return a.weight < b.weight; });
    if (lightest->weight < 1.0) *lightest = Site{client, 1.0};
  }

  // Promotion needs a live replica to copy from — a miss proves nothing is
  // fetchable right now, so only successful queries can trigger it.
  if (found) consider_promote(base, s);
}

bool HotspotManager::evict_coldest() {
  const double now = events_.now();
  auto coldest = states_.end();
  double coldest_w = 0.0;
  for (auto it = states_.begin(); it != states_.end(); ++it) {
    ObjState& s = it->second;
    prune_dead_extras(s);
    if (!s.extra.empty()) continue;  // owns replicas; demotion reclaims it
    const double w = s.weight * decay_factor(now - s.stamp);
    // Min by (decayed weight, guid) so the victim is independent of
    // unordered_map iteration order.
    if (coldest == states_.end() || w < coldest_w ||
        (w == coldest_w && it->first < coldest->first)) {
      coldest = it;
      coldest_w = w;
    }
  }
  if (coldest == states_.end()) return false;
  states_.erase(coldest);
  ++cold_evictions_;
  return true;
}

void HotspotManager::prune_dead_extras(ObjState& s) {
  auto tail = std::remove_if(s.extra.begin(), s.extra.end(),
                             [&](const NodeId& n) { return !reg_.is_live(n); });
  extra_pruned_ += static_cast<std::size_t>(s.extra.end() - tail);
  s.extra.erase(tail, s.extra.end());
}

void HotspotManager::consider_promote(const Guid& base, ObjState& s) {
  // Replica slots must name live hosts: an extra whose node crashed since
  // promotion would otherwise pin the max_extra_replicas cap forever while
  // serving nothing, blocking re-promotion of a still-hot object.
  prune_dead_extras(s);
  while (s.extra.size() < hp_.max_extra_replicas &&
         s.weight >= hp_.promote_threshold *
                         static_cast<double>(s.extra.size() + 1)) {
    // Place the replica at the heaviest live demand site that is not
    // already serving the object (ties: first in insertion order).  The
    // `extra` list is checked too: an async publish may not have
    // registered with servers_of yet.
    const auto servers = dir_.servers_of(base);
    const Site* best = nullptr;
    for (const Site& site : s.sites) {
      if (!reg_.is_live(site.client)) continue;
      if (std::find(servers.begin(), servers.end(), site.client) !=
              servers.end() ||
          std::find(s.extra.begin(), s.extra.end(), site.client) !=
              s.extra.end())
        continue;
      if (best == nullptr || site.weight > best->weight) best = &site;
    }
    if (best == nullptr) return;  // nowhere useful to put one
    if (synchronous_)
      dir_.publish(best->client, base, trace_);
    else
      dir_.publish_async(best->client, base, trace_);
    s.extra.push_back(best->client);
    ++promotions_;
    metrics::hotspot_promotions_total().inc();
  }
}

void HotspotManager::demote_last(const Guid& base, ObjState& s) {
  const NodeId victim = s.extra.back();
  s.extra.pop_back();
  // A crashed extra replica needs no withdrawal: its pointers die with the
  // soft state and servers_of already ignores it.
  if (reg_.is_live(victim)) dir_.unpublish(victim, base, trace_);
  ++demotions_;
  metrics::hotspot_demotions_total().inc();
}

void HotspotManager::tick() {
  const double now = events_.now();
  // Snapshot and sort the keys so the demotion (and its unpublish traffic)
  // order is independent of hash-map iteration order.
  std::vector<Guid> keys;
  keys.reserve(states_.size());
  for (const auto& [g, s] : states_) keys.push_back(g);
  std::sort(keys.begin(), keys.end());
  for (const Guid& g : keys) {
    ObjState& s = states_[g];
    s.weight *= decay_factor(now - s.stamp);
    s.stamp = now;
    prune_dead_extras(s);
    if (!s.extra.empty() && s.weight < hp_.demote_threshold)
      demote_last(g, s);  // one per tick: flash crowds drain gradually
    if (s.extra.empty() && s.weight < 1e-3) states_.erase(g);
  }
}

double HotspotManager::demand(const Guid& base) const {
  auto it = states_.find(base);
  if (it == states_.end()) return 0.0;
  return it->second.weight * decay_factor(events_.now() - it->second.stamp);
}

HotspotManager::Stats HotspotManager::stats() const {
  Stats st;
  st.promotions = promotions_;
  st.demotions = demotions_;
  st.tracked = states_.size();
  st.cold_evictions = cold_evictions_;
  st.track_drops = track_drops_;
  st.extra_pruned = extra_pruned_;
  // A dead host still listed counts as pruned: it goes when `extra` is
  // next read.
  for (const auto& [g, s] : states_)
    for (const NodeId& n : s.extra) {
      if (reg_.is_live(n))
        ++st.extra_live;
      else
        ++st.extra_pruned;
    }
  return st;
}

}  // namespace tap
