// Store-at-root — the "power of indirection" ablation (paper §6.1).
//
// Same locality-optimal prefix mesh as Tapestry (static PRR construction),
// but objects follow plain DHT semantics: the mapping lives *only at the
// root node*, with no pointer trail along the publish path.  §6.1 argues
// that in hop-count terms this costs "only one additional hop", yet in
// *stretch* terms it is drastically different: a query must travel all the
// way to the root even when the replica is next door, because there is no
// intermediate pointer for it to meet.  Comparing this scheme against full
// Tapestry on the same mesh isolates the value of maintaining pointers
// within the network.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/baselines/scheme.h"
#include "src/tapestry/network.h"

namespace tap {

class RootStoreOverlay final : public LocationScheme {
 public:
  RootStoreOverlay(const MetricSpace& space, TapestryParams params,
                   std::uint64_t seed)
      : net_(std::make_unique<Network>(space, params, seed)) {}

  [[nodiscard]] std::string name() const override { return "root-store"; }

  std::size_t add_node(Location loc, Trace* /*trace*/) override {
    const NodeId id = net_->insert_static(loc);
    handles_.push_back(id);
    handle_of_.emplace(id, handles_.size() - 1);
    return handles_.size() - 1;
  }

  void finalize() override { net_->rebuild_static_tables(); }

  [[nodiscard]] std::size_t size() const override { return handles_.size(); }

  void publish(std::size_t server, std::uint64_t key, Trace* trace) override {
    const Guid g = key_to_guid(key);
    // Route to the root and deposit the mapping there — nowhere else.
    const RouteResult rr = net_->route_to_root(handles_.at(server), g, trace);
    auto& replicas = directory_[rr.root.value()][key];
    for (const std::size_t s : replicas)
      if (s == server) return;
    replicas.push_back(server);
  }

  SchemeLocate locate(std::size_t client, std::uint64_t key,
                      Trace* trace) override {
    SchemeLocate res;
    const Guid g = key_to_guid(key);
    // The walk's own hops (RouteResult leaves lazy repair out), then the
    // fetch hop.
    const RouteResult rr = net_->route_to_root(handles_.at(client), g, trace);
    res.hops = rr.hops;
    res.latency = rr.latency;
    const auto dir = directory_.find(rr.root.value());
    if (dir != directory_.end()) {
      const auto obj = dir->second.find(key);
      if (obj != dir->second.end() && !obj->second.empty()) {
        // Fetch from the replica closest to the client.
        std::size_t best = obj->second.front();
        for (const std::size_t s : obj->second)
          if (net_->distance(handles_[client], handles_[s]) <
              net_->distance(handles_[client], handles_[best]))
            best = s;
        const double fetch = net_->distance(rr.root, handles_[best]);
        if (trace != nullptr) trace->hop(fetch);
        ++res.hops;
        res.latency += fetch;
        res.found = true;
        res.server = best;
      }
    }
    return res;
  }

  [[nodiscard]] std::size_t total_state() const override {
    std::size_t n = net_->total_table_entries();
    for (const auto& [root, objects] : directory_)
      for (const auto& [key, replicas] : objects) n += replicas.size();
    return n;
  }

  [[nodiscard]] bool dynamic_insert() const override { return false; }

 private:
  [[nodiscard]] Guid key_to_guid(std::uint64_t key) const {
    const IdSpec spec = net_->params().id;
    return Guid(spec, splitmix64(key ^ 0x7a9e5) & spec.mask());
  }

  std::unique_ptr<Network> net_;
  std::vector<NodeId> handles_;
  std::unordered_map<NodeId, std::size_t> handle_of_;
  // root-id value -> key -> replica handles (the root-resident directory).
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, std::vector<std::size_t>>>
      directory_;
};

}  // namespace tap
