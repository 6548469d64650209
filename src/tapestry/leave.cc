// Voluntary delete (paper §5.1, Figure 12): the departing node notifies
// every backpointer holder, attaching replacement candidates for the slot
// it is vacating (the secondaries of its own-digit slot at that level —
// nodes sharing one more digit of its ID); holders re-route object pointers
// whose paths crossed the leaver; objects the leaver *served* are withdrawn
// (the application layer would migrate the data; the overlay's duty is
// pointer hygiene); objects the leaver *rooted* migrate to their new
// surrogates as a side effect of the holders' pointer re-routing.
//
// The involuntary-delete path (§5.2) — fail(), lazy repair, the heartbeat
// sweep — lives in maintenance.cc.
#include "src/tapestry/maintenance.h"

#include <algorithm>

namespace tap {

void MaintenanceEngine::leave(NodeId id, Trace* trace) {
  TapestryNode& a = reg_.live(id);

  // 0. Withdraw replicas this node serves (walks the publish paths while
  //    the node still routes normally).
  for (const Guid& g : dir_.guids_served_by(id)) dir_.unpublish(id, g, trace);

  // From here on the node is gone for routing purposes: repairs and
  // replacement searches must not hand it back out.  (The unpublishes
  // above already dropped every cached hint naming this node as replica;
  // this sweeps its own LRU and any hint naming it as pointer holder.)
  reg_.mark_dead(a);
  dir_.invalidate_node_cache(id);

  // 1. Notify every backpointer holder, level by level, with replacement
  //    candidates: the secondaries of our own-digit slot at that level
  //    share one more digit of our ID and are exactly what the holder's
  //    vacated slot requires.
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l < digits; ++l) {
    std::vector<NodeId> hints;
    for (const auto& e : a.table().at(l, a.id().digit(l)).entries())
      if (!(e.id == id) && reg_.is_live(e.id)) hints.push_back(e.id);

    const std::vector<NodeId> holders = a.table().backpointers(l);
    for (const NodeId& holder : holders) {
      if (!reg_.is_live(holder)) continue;
      TapestryNode& b = reg_.live(holder);
      reg_.acct(trace, a, b, 1);  // LEAVINGNETWORK notification with hints
      const auto before = dir_.snapshot_pointer_hops(b);
      unlink(b, l, id);
      for (const NodeId& h : hints)
        if (!(h == holder) && reg_.is_live(h)) link(b, l, reg_.live(h));
      if (b.table().slot_empty(l, id.digit(l))) {
        if (auto rep = find_replacement(b, l, id.digit(l), trace);
            rep.has_value())
          link(b, l, reg_.live(*rep));
      }
      // Re-route local pointers that used to travel through the leaver —
      // including those the leaver *rooted*, which now flow onward to
      // their new surrogate roots.
      dir_.reroute_changed_pointers(b, before, trace);
    }
  }

  // 2. REMOVELINK: retract our own forward links so no one holds a
  //    backpointer to a ghost.
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      const auto members = a.table().at(l, j).entries();  // copy
      for (const auto& e : members) {
        if (e.id == id) continue;
        if (TapestryNode* other = reg_.find(e.id); other != nullptr) {
          reg_.acct(trace, a, *other, 1);
          other->table().remove_backpointer(l, id);
        }
        a.table().remove(l, j, e.id);
      }
    }
  }
}

}  // namespace tap
