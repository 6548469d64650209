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
// sweep — and the thread-parallel waves live in maintenance.cc; leave_bulk
// runs depart() below on every victim at once.
#include "src/tapestry/maintenance.h"

namespace tap {

void MaintenanceEngine::leave(NodeId id, Trace* trace) {
  TapestryNode& a = reg_.live(id);

  // 0. Withdraw replicas this node serves (walks the publish paths while
  //    the node still routes normally).
  for (const Guid& g : dir_.guids_served_by(id)) dir_.unpublish(id, g, trace);

  // From here on the node is gone for routing purposes: repairs and
  // replacement searches must not hand it back out.  (The unpublishes
  // above already dropped every cached hint naming this node as replica;
  // fail() sweeps its own LRU and any hint naming it as pointer holder.)
  fail(id);
  depart(a, trace, nullptr);
}

void MaintenanceEngine::depart(TapestryNode& a, Trace* trace,
                               const NodeLockTable* locks) {
  const NodeId id = a.id();
  const unsigned digits = params_.id.num_digits;

  // 1. Notify every backpointer holder, level by level, with replacement
  //    candidates: the secondaries of our own-digit slot at that level
  //    share one more digit of our ID and are exactly what the holder's
  //    vacated slot requires.  Both lists are read when their level comes
  //    up: repairs at lower levels may already have dropped holders.
  std::vector<NodeId> hints;
  std::vector<NodeId> holders;
  for (unsigned l = 0; l < digits; ++l) {
    const unsigned digit = id.digit(l);
    hints.clear();
    {
      NodeLockTable::Guard g(locks, id);
      for (const auto& e : a.table().at(l, digit).entries())
        if (!(e.id == id) && reg_.is_live(e.id)) hints.push_back(e.id);
      holders = a.table().backpointers(l);
    }
    for (const NodeId& holder : holders) {
      if (!reg_.is_live(holder)) continue;
      TapestryNode& b = reg_.live(holder);
      reg_.acct(trace, a, b, 1);  // LEAVINGNETWORK notification with hints
      const auto before = dir_.snapshot_pointer_hops(b, locks);
      unlink(reg_, b, l, id, locks);
      for (const NodeId& h : hints)
        if (!(h == holder) && reg_.is_live(h))
          link(reg_, b, l, reg_.live(h), locks);
      // An own-digit slot drained to ourselves carries no hint; the
      // holder's search then finds any live node that fits.
      refill_slot(b, l, digit, trace, locks);
      // Re-route local pointers that used to travel through the leaver —
      // including those the leaver *rooted*, which now flow onward to
      // their new surrogate roots.
      dir_.reroute_changed_pointers(b, before, trace, locks);
    }
  }

  // 2. REMOVELINK: retract our own forward links so no one holds a
  //    backpointer to a ghost.
  std::vector<NodeId> members;
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      members.clear();
      {
        NodeLockTable::Guard g(locks, id);
        for (const auto& e : a.table().at(l, j).entries())
          members.push_back(e.id);
      }
      for (const NodeId& m : members) {
        if (m == id) continue;
        TapestryNode* other = reg_.find(m);
        if (other != nullptr) reg_.acct(trace, a, *other, 1);
        NodeLockTable::Guard g(locks, id, m);
        if (other != nullptr) other->table().remove_backpointer(l, id);
        a.table().remove(l, j, m);
      }
    }
  }
}

}  // namespace tap
