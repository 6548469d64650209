// The five benchmark workloads.  Each builds its own overlay from a seed,
// runs a closed-loop op stream against it (single-threaded unless stated)
// and checks the outcome outside the timed phase.  See README.md for why
// each workload exists and which layers it isolates.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/common.h"
#include "src/tapestry/network.h"

namespace tapbench {

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  /// Builds space, overlay and initial objects from scratch (dropping any
  /// previous build); returns the wall seconds it took.
  virtual double setup() = 0;
  /// Untimed warm-up (5% of the ops), then the measured ops; `scale`
  /// multiplies the workload's reference op count.  `traced` records
  /// spans (spans.h) over the measured ops only.
  virtual PhaseResult run(double scale, bool traced) = 0;
  /// Correctness checks after the phase, outside any timing.
  virtual void check(PhaseResult& r) = 0;

  [[nodiscard]] virtual tap::Network& net() = 0;
  /// (guid, server) pairs the workload currently has published.
  [[nodiscard]] virtual std::vector<std::pair<tap::Guid, tap::NodeId>>
  objects() const = 0;
  /// True when every counter repeats exactly across same-seed runs.
  [[nodiscard]] virtual bool deterministic() const { return true; }
};

/// locate_read, write_mix, replicated_mix, churn_event, membership_waves.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// `mini` builds the small fixture variant the per-layer ledger uses when
/// the traced workload does not exercise a layer itself.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const RunConfig& cfg,
                                                      bool mini = false);

}  // namespace tapbench
