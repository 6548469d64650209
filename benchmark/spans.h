// Span tracing for the traced benchmark run, recorded entirely from the
// benchmark's side of the library boundary:
//
//   * op spans      around each benchmark call into Network (Scope);
//   * transport     inside SpanTransport, a Transport decorator bound in
//                   front of net.transport();
//   * repair        inside SpanRepair, a RepairHandler decorator bound in
//                   front of net.maintenance().
//
// Spans live in per-thread buffers (moved to a global list when their
// thread exits) and are written once, as Chrome trace-event JSON, after the
// traced phase.  A span's parent is the enclosing span on its own thread,
// or — for spans on pool worker threads — the op span the main thread has
// open, so a threaded wave's messages nest under the wave.
//
// Memory is bounded per op: an op that starts once kMaxSpans spans have
// been recorded is not traced at all (nor are its children), so every
// traced op is complete.
#pragma once

#include <cstdint>
#include <string>

#include "src/tapestry/network.h"

namespace tapbench::spans {

enum class Cat : std::uint8_t { kOp, kTransport, kRepair };

inline constexpr std::size_t kMaxSpans = 2'000'000;

/// Records one span from construction to destruction while recording is
/// on; a no-op otherwise.  Op scopes must be opened on the main thread.
class Scope {
 public:
  Scope(const char* name, Cat cat);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  Cat cat_;
  bool on_;
  std::int64_t start_ = 0;
  std::uint32_t id_ = 0, parent_ = 0, op_ = 0;
};

/// Starts recording (dropping anything recorded before).
void start();
/// Stops recording; what was recorded stays for write_and_analyse().
void stop();

struct Summary {
  /// Self time of each category as a share of all self time (pool-thread
  /// time included, so shares of a threaded wave are shares of busy time).
  double op = 0.0, transport = 0.0, repair = 0.0;
  std::uint64_t spans = 0;
  std::uint64_t ops_traced = 0, ops_total = 0;
};

/// Collects every buffer, computes self times (duration minus the union
/// of its children's intervals) and writes `path` in Chrome trace-event
/// format: the first `max_events` spans in (op, start) order.
Summary write_and_analyse(const std::string& path, std::size_t max_events);

/// Binds the span-recording decorators into every layer of `net` for its
/// lifetime, then restores the overlay's own transport and repair handler.
class TracedNetwork {
 public:
  explicit TracedNetwork(tap::Network& net);
  ~TracedNetwork();

  TracedNetwork(const TracedNetwork&) = delete;
  TracedNetwork& operator=(const TracedNetwork&) = delete;

 private:
  class SpanTransport final : public tap::Transport {
   public:
    explicit SpanTransport(tap::Transport& inner) : inner_(inner) {}
    [[nodiscard]] const char* name() const override { return inner_.name(); }
    [[nodiscard]] tap::Message deliver(const tap::Message& m) override;

   private:
    tap::Transport& inner_;
  };
  class SpanRepair final : public tap::RepairHandler {
   public:
    explicit SpanRepair(tap::RepairHandler& inner) : inner_(inner) {}
    void purge_dead_neighbor(tap::TapestryNode& at, tap::NodeId dead,
                             tap::Trace* trace) override;

   private:
    tap::RepairHandler& inner_;
  };

  void bind(tap::Transport* transport, tap::RepairHandler* repair);

  tap::Network& net_;
  SpanTransport transport_;
  SpanRepair repair_;
};

}  // namespace tapbench::spans
