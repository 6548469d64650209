// Per-layer cost ledger: each layer's public functions timed from
// outside on seeded fixtures (min of 5 interleaved repetitions), plus
// exact allocation counts and the layer counters each workload reports.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "benchmark/common.h"
#include "benchmark/workloads.h"

namespace tapbench {

using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// Runs the ledger against `w` — the traced workload, after its phase
/// `phase` — and, for layers `w` does not exercise, against the small
/// fixture variant of the workload that does.  Persistent-store scratch
/// goes under cfg.tmpdir, which is removed afterwards.
[[nodiscard]] LayerMetrics run_ledger(Workload& w, const PhaseResult& phase,
                                      const RunConfig& cfg);

}  // namespace tapbench
