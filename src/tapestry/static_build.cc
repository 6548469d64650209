// Oracle construction of PRR/Tapestry tables from global knowledge — the
// static preprocessing the original PRR scheme assumes (paper §1, §4: "We
// would like the results of the insertion to be the same as if we had been
// able to build the network from static data").  Tests compare dynamically
// grown networks against this ground truth; benchmarks use it to stand up
// large overlays quickly when insertion cost is not what is being measured.
//
// The build parallelises in three phases, each deterministic for every
// worker count:
//   1. fresh tables     — per node, independent (four allocations each,
//                         a real cost at 100k nodes), plus each node's
//                         distance to one pivot (the first live node);
//   2. forward tables   — per node, reading only the shared read-only
//                         candidate buckets; each slot keeps the R closest
//                         under the total order (distance, id), so the
//                         outcome does not depend on scan order;
//   3. backpointers     — the inverse of the forward links, appended to
//                         per-level vectors under striped per-target locks,
//                         then sorted and sized per node; sorted order
//                         canonicalises whatever append order the scheduler
//                         produced.
// Phases 2+3 replace the serial link() walk (which interleaves forward
// inserts with backpointer bookkeeping on *other* nodes and therefore
// cannot fan out); the final tables are identical because link() ends at
// exactly "backpointers = inverse of forward links".
//
// Phase 2 is a pivot-ordered scan rather than an all-pairs one.  Each
// (prefix length, prefix) bucket is sorted by its members' pivot
// distance d(c, p).  Slot (l, j) of node x starts at d(x, p) in its
// bucket and walks outward, always to the side with the smaller gap
// |d(x, p) - d(c, p)|.  By the triangle inequality (MetricSpace's
// contract) that gap is a lower bound on d(x, c), and the walk visits
// gaps in nondecreasing order.  So once the next gap exceeds the slot's
// current R-th distance, every unvisited candidate is strictly farther
// than R members already held.  consider() would reject it, and the R-th
// distance only shrinks as the walk goes on.  The cutoff is padded by a
// slack of 1e-9 * (1 + the largest pivot distance): rounding in the three
// computed distances, and the absolute 1e-9 triangle excess
// tests/test_metric.cc tolerates, both stay below it.  The padding only
// widens the walk.  A visited candidate strictly farther than the R-th skips
// consider(); an equal one still reaches it, so the (distance, id)
// tiebreak decides exactly as it would over every candidate.
#include "src/tapestry/maintenance.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "src/sim/thread_pool.h"

namespace tap {

namespace {

/// A live node and its distance to the build's pivot.
struct Ranked {
  double pivot_dist;
  TapestryNode* node;
};

/// Fills slot (level, digit) of `owner` from `bucket` (the live nodes with
/// the slot's prefix, in ascending pivot distance) by the outward walk
/// the header describes.
void fill_slot(const NodeRegistry& reg, TapestryNode& owner, double dx,
               unsigned level, unsigned digit,
               const std::vector<Ranked>& bucket, double slack) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RoutingTable& table = owner.table();
  std::size_t hi = static_cast<std::size_t>(
      std::lower_bound(bucket.begin(), bucket.end(), dx,
                       [](const Ranked& r, double d) {
                         return r.pivot_dist < d;
                       }) -
      bucket.begin());
  std::size_t lo = hi;
  while (lo > 0 || hi < bucket.size()) {
    const double down = lo > 0 ? dx - bucket[lo - 1].pivot_dist : kInf;
    const double up = hi < bucket.size() ? bucket[hi].pivot_dist - dx : kInf;
    // A consider() shifts the table's member array: re-read the slot.
    const NeighborSet slot = table.at(level, digit);
    const double rth = slot.size() < slot.capacity()
                           ? kInf
                           : slot.entries().back().dist;
    if (std::min(down, up) > rth + slack) break;
    const bool step_down = hi == bucket.size() || (lo > 0 && down < up);
    TapestryNode* cand = step_down ? bucket[--lo].node : bucket[hi++].node;
    if (cand == &owner) continue;
    const double d = reg.dist(owner, *cand);
    if (d > rth) continue;
    table.consider(level, digit, cand->id(), d);
  }
}

}  // namespace

void MaintenanceEngine::rebuild_static_tables(std::size_t workers) {
  const unsigned digits = params_.id.num_digits;
  const unsigned bits = params_.id.digit_bits;

  std::vector<TapestryNode*> live;
  live.reserve(reg_.live_count());
  for (const auto& n : reg_.nodes())
    if (n->alive) live.push_back(n.get());
  if (live.empty()) return;

  // Phase 1: fresh tables (drops any dynamically accumulated state) and
  // pivot distances.
  const TapestryNode& pivot = *live.front();
  std::vector<double> pivot_dist(live.size());
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        live[i]->table() =
            RoutingTable(params_.id, live[i]->id(), params_.redundancy);
        pivot_dist[i] = reg_.dist(*live[i], pivot);
      },
      workers);

  // Bucket live nodes by (prefix length, prefix value), each bucket in
  // ascending pivot distance — read-only below.  Appending in one global
  // (pivot distance, id) order sorts every bucket at once.
  std::vector<std::size_t> order(live.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (pivot_dist[a] != pivot_dist[b]) return pivot_dist[a] < pivot_dist[b];
    return live[a]->id() < live[b]->id();
  });
  auto key = [&](unsigned len, std::uint64_t prefix) {
    return (static_cast<std::uint64_t>(len) << 56) | prefix;
  };
  std::unordered_map<std::uint64_t, std::vector<Ranked>> buckets;
  for (const std::size_t i : order)
    for (unsigned len = 1; len <= digits; ++len)
      buckets[key(len, live[i]->id().prefix_value(len))].push_back(
          Ranked{pivot_dist[i], live[i]});
  const double slack = 1e-9 * (1.0 + pivot_dist[order.back()]);

  // Phase 2: each slot walks its bucket outward from the owner's pivot
  // distance until the gap rules out every remaining candidate (header);
  // the slot retains the R closest, which is Property 2 by construction,
  // and no slot with candidates stays empty, which is Property 1.  A slot
  // therefore ends with min(R, |bucket|) members, so each table reserves
  // its exact member count first.  Each task writes only its own node's
  // table.
  struct SlotBucket {
    unsigned level;
    unsigned digit;
    const std::vector<Ranked>* bucket;
  };
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        TapestryNode* n = live[i];
        thread_local std::vector<SlotBucket> filled;
        filled.clear();
        std::size_t members = 0;
        for (unsigned l = 0; l < digits; ++l) {
          const std::uint64_t base = n->id().prefix_value(l) << bits;
          for (unsigned j = 0; j < params_.id.radix(); ++j) {
            auto it = buckets.find(key(l + 1, base | j));
            if (it == buckets.end()) continue;
            filled.push_back(SlotBucket{l, j, &it->second});
            members += std::min<std::size_t>(params_.redundancy,
                                             it->second.size());
          }
        }
        n->table().reserve_members(members);
        for (const SlotBucket& f : filled)
          fill_slot(reg_, *n, pivot_dist[i], f.level, f.digit, *f.bucket,
                    slack);
      },
      workers);

  // Phase 3: derive backpointers from the settled forward links.  Appends
  // touch *other* nodes' tables, so they stripe-lock on the target; each
  // table then sorts and sizes its own levels, which makes the result,
  // capacities included, independent of the append order.
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
            target->table().append_backpointer(l, owner->id());
          }
        }
      },
      workers);
  parallel_for(
      live.size(),
      [&](std::size_t i) { live[i]->table().settle_backpointers(); },
      workers);
}

}  // namespace tap
