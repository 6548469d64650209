// TapestryNode: one overlay participant — its identifier, its pin to a
// location in the underlying metric space, its routing table and its object
// pointer store, plus the transient state used while it is inserting
// itself (paper §4.3, Figure 10).
//
// Nodes are passive data holders; the distributed algorithms live in
// Network (each Network method corresponds to the RPC handler that would
// run on a node in a real deployment — the mapping is documented at each
// method).
#pragma once

#include <memory>
#include <optional>

#include "src/metric/metric_space.h"
#include "src/tapestry/object_store.h"
#include "src/tapestry/params.h"
#include "src/tapestry/routing_table.h"

namespace tap {

class TapestryNode {
 public:
  TapestryNode(NodeId id, Location loc, const TapestryParams& params)
      : id_(id), loc_(loc), table_(params.id, id, params.redundancy),
        store_(make_object_store(params, id)) {}

  [[nodiscard]] const NodeId& id() const noexcept { return id_; }
  [[nodiscard]] Location location() const noexcept { return loc_; }
  void set_location(Location loc) noexcept { loc_ = loc; }  // §6.4 drift

  [[nodiscard]] RoutingTable& table() noexcept { return table_; }
  [[nodiscard]] const RoutingTable& table() const noexcept { return table_; }
  [[nodiscard]] ObjectStoreBackend& store() noexcept { return *store_; }
  [[nodiscard]] const ObjectStoreBackend& store() const noexcept {
    return *store_;
  }

  /// False once the node has failed (§5.2) or left (§5.1).  Dead nodes stay
  /// allocated as tombstones: id, location and store for good, the table
  /// while a live node links with it, so lazy repair can discover it (it
  /// is freed once none does; registry.h).  Written only at quiescent
  /// points, like the registry: a wave marks its victims dead in its
  /// serial preamble, so its worker threads read the flag without a lock.
  bool alive = true;

  /// True from registration until the insertion completes (§4.3): requests
  /// for objects the node does not hold are bounced to its surrogate.
  bool inserting = false;

  /// The primary surrogate contacted during insertion (Figure 7); valid
  /// while `inserting` is set.
  std::optional<NodeId> psurrogate{};

 private:
  NodeId id_;
  Location loc_;
  RoutingTable table_;
  std::unique_ptr<ObjectStoreBackend> store_;
};

}  // namespace tap
