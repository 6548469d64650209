// Oracle construction of PRR/Tapestry tables from global knowledge — the
// static preprocessing the original PRR scheme assumes (paper §1, §4: "We
// would like the results of the insertion to be the same as if we had been
// able to build the network from static data").  Tests compare dynamically
// grown networks against this ground truth; benchmarks use it to stand up
// large overlays quickly when insertion cost is not what is being measured.
//
// The build parallelises in three phases, each deterministic for every
// worker count:
//   1. fresh tables     — per node, independent (table construction alone
//                         is levels * radix neighbor sets, a real cost at
//                         100k nodes);
//   2. forward tables   — per node, reading only the shared read-only
//                         candidate buckets; each slot keeps the R closest
//                         under the total order (distance, id), so the
//                         outcome does not depend on scan interleaving;
//   3. backpointers     — the inverse of the forward links, inserted into
//                         per-level sorted vectors under striped per-target
//                         locks; sorted order canonicalises whatever insert
//                         order the scheduler produced.
// Phases 2+3 replace the serial link() walk (which interleaves forward
// inserts with backpointer bookkeeping on *other* nodes and therefore
// cannot fan out); the final tables are identical because link() ends at
// exactly "backpointers = inverse of forward links".
#include "src/tapestry/maintenance.h"

#include <mutex>
#include <unordered_map>

#include "src/sim/thread_pool.h"

namespace tap {

void MaintenanceEngine::rebuild_static_tables(std::size_t workers) {
  const unsigned digits = params_.id.num_digits;
  const unsigned bits = params_.id.digit_bits;

  std::vector<TapestryNode*> live;
  live.reserve(reg_.live_count());
  for (const auto& n : reg_.nodes())
    if (n->alive) live.push_back(n.get());

  // Phase 1: fresh tables (drops any dynamically accumulated state).
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        live[i]->table() =
            RoutingTable(params_.id, live[i]->id(), params_.redundancy);
      },
      workers);

  // Bucket live nodes by (prefix length, prefix value) — read-only below.
  auto key = [&](unsigned len, std::uint64_t prefix) {
    return (static_cast<std::uint64_t>(len) << 56) | prefix;
  };
  std::unordered_map<std::uint64_t, std::vector<TapestryNode*>> buckets;
  for (TapestryNode* n : live)
    for (unsigned len = 1; len <= digits; ++len)
      buckets[key(len, n->id().prefix_value(len))].push_back(n);

  // Phase 2: every slot considers every qualifying node; NeighborSet
  // retains the R closest, which is Property 2 by construction, and no
  // slot with candidates stays empty, which is Property 1.  Each task
  // writes only its own node's table.
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        TapestryNode* n = live[i];
        for (unsigned l = 0; l < digits; ++l) {
          const std::uint64_t base = n->id().prefix_value(l) << bits;
          for (unsigned j = 0; j < params_.id.radix(); ++j) {
            auto it = buckets.find(key(l + 1, base | j));
            if (it == buckets.end()) continue;
            for (TapestryNode* cand : it->second) {
              if (cand->id() == n->id()) continue;
              n->table().consider(l, j, cand->id(), reg_.dist(*n, *cand));
            }
          }
        }
      },
      workers);

  // Phase 3: derive backpointers from the settled forward links.  Inserts
  // touch *other* nodes' tables, so they stripe-lock on the target; the
  // per-level sorted vector makes the result order-independent.
  constexpr std::size_t kStripes = 256;
  std::vector<std::mutex> stripes(kStripes);
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        TapestryNode* owner = live[i];
        for (unsigned l = 0; l < digits; ++l) {
          for (const NodeId& member : owner->table().row_members(l)) {
            if (member == owner->id()) continue;
            TapestryNode* target = reg_.find(member);
            TAP_ASSERT(target != nullptr);
            std::lock_guard<std::mutex> lock(
                stripes[splitmix64(member.value()) % kStripes]);
            target->table().add_backpointer(l, owner->id());
          }
        }
      },
      workers);
}

}  // namespace tap
