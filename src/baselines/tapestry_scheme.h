// LocationScheme adapter over the Tapestry core, so the comparison harness
// drives Tapestry through the same interface as the baselines.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/baselines/scheme.h"
#include "src/tapestry/network.h"

namespace tap {

class TapestryScheme final : public LocationScheme {
 public:
  TapestryScheme(const MetricSpace& space, TapestryParams params,
                 std::uint64_t seed)
      : net_(std::make_unique<Network>(space, params, seed)) {}

  [[nodiscard]] std::string name() const override { return "tapestry"; }

  std::size_t add_node(Location loc, Trace* trace) override {
    const NodeId id = handles_.empty() ? net_->bootstrap(loc)
                                       : net_->join(loc, std::nullopt, trace);
    handles_.push_back(id);
    handle_of_.emplace(id, handles_.size() - 1);
    return handles_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const override { return handles_.size(); }

  void publish(std::size_t server, std::uint64_t key, Trace* trace) override {
    net_->publish(handles_.at(server), key_to_guid(key), trace);
  }

  SchemeLocate locate(std::size_t client, std::uint64_t key,
                      Trace* trace) override {
    const LocateResult r =
        net_->locate(handles_.at(client), key_to_guid(key), trace);
    SchemeLocate out;
    out.found = r.found;
    out.hops = r.hops;
    out.latency = r.latency;
    if (r.found) out.server = handle_of_.at(r.server);
    return out;
  }

  [[nodiscard]] std::size_t total_state() const override {
    return net_->total_table_entries() + net_->total_object_pointers();
  }

  [[nodiscard]] bool dynamic_insert() const override { return true; }

  /// The wrapped network, for experiments needing Tapestry-only features.
  [[nodiscard]] Network& network() noexcept { return *net_; }

 private:
  [[nodiscard]] Guid key_to_guid(std::uint64_t key) const {
    const IdSpec spec = net_->params().id;
    return Guid(spec, splitmix64(key ^ 0x7a9e5) & spec.mask());
  }

  std::unique_ptr<Network> net_;
  std::vector<NodeId> handles_;
  std::unordered_map<NodeId, std::size_t> handle_of_;
};

}  // namespace tap
