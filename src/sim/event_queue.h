// Discrete-event simulation engine.
//
// Used wherever the *interleaving* of distributed events matters to the
// algorithms, not just their aggregate cost:
//   * the event-driven acknowledged multicast (paper §4.1/§4.4), where
//     simultaneous insertions race and the pinned-pointer/watch-list
//     machinery must observe genuinely interleaved message deliveries;
//   * soft-state timers (object-pointer expiry and periodic republish,
//     §6.5) driving the churn/availability experiments.
//
// Events at equal timestamps fire in scheduling order (a stable tiebreak on
// a monotone sequence number), which keeps every simulation deterministic.
//
// A simulated-time process (republish, expiry, heartbeats, the hotspot
// decay tick, ChurnDriver's workload and fault script) is a Timer: it
// holds at most one pending event, re-arming replaces it, and stopping or
// destroying the Timer cancels it, so an owner never keeps an EventId.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/common/assert.h"

namespace tap {

/// Handle returned by schedule(); can be used to cancel a pending event.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Current simulated time.  Starts at 0 and only moves forward.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules `action` to fire at absolute time `when` (>= now()).
  EventId schedule_at(double when, Action action);

  /// Schedules `action` to fire `delay` (>= 0) after the current time.
  EventId schedule_in(double delay, Action action) {
    TAP_CHECK(delay >= 0.0, "schedule_in: delay must be non-negative");
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancels a pending event and releases its action (and captures)
  /// immediately.  Returns false — with no state change — if the id is not
  /// currently pending: already fired, already cancelled, or never issued.
  bool cancel(EventId id);

  /// Fires the earliest pending event.  Returns false if the queue is
  /// empty.  Actions may schedule further events.
  bool step();

  /// Runs until the queue drains.  `max_events` guards against runaway
  /// event loops in tests.
  void run(std::size_t max_events = 100'000'000);

  /// Runs events with time <= t_end, then advances the clock to t_end.
  void run_until(double t_end);

  [[nodiscard]] std::size_t pending() const noexcept {
    return actions_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return actions_.empty(); }

  /// Total number of events fired over the queue's lifetime.
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

 private:
  struct Entry {
    double time;
    EventId id;
    // Ordered as a min-heap: earliest time first, scheduling order breaking
    // ties so same-time events are FIFO.
    bool operator>(const Entry& o) const noexcept {
      if (time != o.time) return time > o.time;
      return id > o.id;
    }
  };

  double now_ = 0.0;
  EventId next_id_ = 0;
  std::uint64_t fired_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  // Pending events only: an entry is erased (releasing the closure and its
  // captures) when the event fires or is cancelled, so retention is bounded
  // by the pending count, never by the lifetime event total.  A heap entry
  // with no map entry is a cancellation tombstone, skipped and popped
  // lazily; ids are never reused, so a tombstone cannot alias a live event.
  std::unordered_map<EventId, Action> actions_;
};

/// At most one pending event on a queue.  after() and every() re-arm it
/// (cancelling what is pending); stop() or destruction cancels it, so a
/// Timer must die before its queue.  A firing forgets its event, moves the
/// action out and runs it; only then does an every() series re-arm, so
/// events the action schedules keep lower ids than the next firing.  An
/// action that stops or re-arms its own Timer ends the series; it must not
/// destroy the Timer.  The queued closure captures only the Timer and fits
/// std::function's inline buffer; the Timer keeps the action.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { stop(); }

  /// Fires `action` once, `delay` (>= 0) from now.
  void after(EventQueue& queue, double delay, EventQueue::Action action);
  /// Fires `action` every `period` (> 0), first at now + period.
  void every(EventQueue& queue, double period, EventQueue::Action action);
  /// Cancels the pending event, if any, and releases the action.
  void stop();

 private:
  static constexpr EventId kIdle = ~EventId{0};

  void arm(double delay);
  void fire();

  EventQueue* queue_ = nullptr;
  EventId pending_ = kIdle;
  double period_ = 0.0;  ///< 0 = one-shot
  EventQueue::Action action_;
};

}  // namespace tap
