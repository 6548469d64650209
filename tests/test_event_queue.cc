// Property-style tests for the EventQueue itself: randomized schedules
// checked against a reference ordering (equal timestamps fire in
// scheduling order), cancellation edge cases (after fire, self-cancel,
// cancel from an earlier event), and run_until clock-advancement
// semantics.  test_sim.cc covers the basic API; these pin the properties
// every deterministic simulation above the queue depends on.  The Timer
// tests pin the one-pending-event contract every simulated-time process
// relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/assert.h"
#include "src/common/rng.h"
#include "src/sim/event_queue.h"

namespace tap {
namespace {

// ---------------------------------------------------------------- ordering

TEST(EventQueueProperty, RandomSchedulesFireInStableTimestampOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventQueue q;
    struct Rec {
      double t;
      std::size_t seq;
    };
    std::vector<Rec> scheduled;
    std::vector<Rec> fired;
    const std::size_t n = 200;
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct timestamps => many ties, the interesting case.
      const double t = 0.5 * static_cast<double>(rng.next_u64(10));
      scheduled.push_back({t, i});
      q.schedule_at(t, [&fired, t, i] { fired.push_back({t, i}); });
    }
    q.run();
    ASSERT_EQ(fired.size(), n);
    // Reference: sort by time, scheduling order breaking ties.
    std::vector<Rec> expect = scheduled;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Rec& a, const Rec& b) { return a.t < b.t; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fired[i].seq, expect[i].seq) << "seed " << seed << " pos " << i;
      EXPECT_EQ(fired[i].t, expect[i].t) << "seed " << seed << " pos " << i;
    }
  }
}

TEST(EventQueueProperty, SameTimeEventScheduledWhileFiringRunsAfterPeers) {
  EventQueue q;
  std::vector<char> order;
  q.schedule_at(1.0, [&] {
    order.push_back('A');
    // C shares timestamp 1.0 but is scheduled later than B, so it must
    // fire after B (scheduling order is the tiebreak, not insert order
    // relative to the running event).
    q.schedule_at(1.0, [&] { order.push_back('C'); });
  });
  q.schedule_at(1.0, [&] { order.push_back('B'); });
  q.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

// ------------------------------------------------------------ cancellation

TEST(EventQueueProperty, CancelAfterFireReturnsFalse) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(1.0, [&] { fired = true; });
  q.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(q.cancel(id)) << "cancelling an already-fired event is a no-op";
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueProperty, SelfCancelWhileFiringIsNoop) {
  EventQueue q;
  EventId self = 0;
  bool cancel_result = true;
  self = q.schedule_at(1.0, [&] { cancel_result = q.cancel(self); });
  q.run();
  EXPECT_FALSE(cancel_result) << "an event cannot cancel itself mid-fire";
}

TEST(EventQueueProperty, EarlierEventCancelsPendingLaterEvent) {
  EventQueue q;
  bool late_fired = false;
  const EventId late = q.schedule_at(1.0, [&] { late_fired = true; });
  bool cancelled = false;
  q.schedule_at(0.5, [&] { cancelled = q.cancel(late); });
  q.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueProperty, RandomCancellationSetNeverFires) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 101);
    EventQueue q;
    const std::size_t n = 300;
    std::vector<bool> fired(n, false);
    std::vector<EventId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = 1.0 + static_cast<double>(rng.next_u64(50)) * 0.25;
      ids.push_back(q.schedule_at(t, [&fired, i] { fired[i] = true; }));
    }
    std::vector<bool> cancelled(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.4)) {
        EXPECT_TRUE(q.cancel(ids[i]));
        cancelled[i] = true;
      }
    }
    const std::size_t expect_live =
        static_cast<std::size_t>(std::count(cancelled.begin(),
                                            cancelled.end(), false));
    EXPECT_EQ(q.pending(), expect_live);
    q.run();
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(fired[i], !cancelled[i]) << "seed " << seed << " event " << i;
  }
}

TEST(EventQueueProperty, CancelAfterFireLeavesNoTombstone) {
  // The queue used to track cancellations in a separate cancelled-id set
  // whose consistency with the heap pending() arithmetic rested entirely
  // on cancel's id-validation guard; the reclaiming-map rework removed
  // that set.  These tests pin the contract the rework must preserve:
  // rejected cancels (fired, double, bogus ids) leave no state behind,
  // and pending()/empty()/drain loops stay coherent afterwards.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.schedule_at(1.0 + i, [] {}));
  q.run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  for (const EventId id : ids) EXPECT_FALSE(q.cancel(id));
  // pending() must not underflow/wrap after the rejected cancels...
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  // ...and a drain loop over newly scheduled work still terminates.
  int fired = 0;
  q.schedule_in(1.0, [&] { ++fired; });
  EXPECT_EQ(q.pending(), 1u);
  while (!q.empty()) q.step();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueProperty, DoubleCancelSecondIsRejected) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id)) << "second cancel of the same id must reject";
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  q.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueProperty, BogusIdCancelIsRejectedWithoutStateChange) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(EventId{999'999})) << "never-issued id";
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------- retention

namespace {
/// External retention witness: counts captures alive inside the queue.  A
/// queue that releases actions on fire/cancel keeps exactly one of these
/// per pending event; a non-reclaiming implementation (the old
/// EventId-indexed vector) accumulates one per event ever scheduled.
struct Payload {
  explicit Payload(std::size_t& n) : live(n) { ++live; }
  ~Payload() { --live; }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  std::size_t& live;
};
}  // namespace

TEST(EventQueueProperty, SoakRetainsNothingProportionalToFiredEvents) {
  // Regression: actions_ was a vector indexed by the monotone EventId that
  // never shrank — every fired/cancelled closure (and its captures) was
  // retained for the queue's lifetime, so long churn soaks grew without
  // bound.  The live-payload count must track the *pending* count only,
  // through a soak that fires, cancels and reschedules far more events
  // than are ever outstanding.
  Rng rng(4242);
  std::size_t live_payloads = 0;
  EventQueue q;
  std::vector<EventId> live;
  std::size_t peak_pending = 0;
  const std::size_t kRounds = 50'000;
  for (std::size_t i = 0; i < kRounds; ++i) {
    {
      // Scoped so the queue's closure holds the only reference by the
      // time the retention assertion below runs.
      auto payload = std::make_shared<Payload>(live_payloads);
      live.push_back(q.schedule_in(
          static_cast<double>(1 + rng.next_u64(16)),
          [payload] { (void)payload; }));
    }
    if (rng.bernoulli(0.3) && !live.empty()) {
      const std::size_t pick = rng.next_u64(live.size());
      q.cancel(live[pick]);  // may already have fired: rejection is fine
      live[pick] = live.back();
      live.pop_back();
    }
    if (rng.bernoulli(0.5)) q.step();
    peak_pending = std::max(peak_pending, q.pending());
    ASSERT_EQ(live_payloads, q.pending())
        << "fired/cancelled actions must release their captures immediately";
  }
  EXPECT_GT(q.fired(), kRounds / 4) << "the soak must actually fire events";
  // Retention is bounded by what is genuinely outstanding, not by the
  // lifetime event count.
  EXPECT_LT(peak_pending, kRounds / 2);
  q.run();
  EXPECT_EQ(live_payloads, 0u);
  EXPECT_EQ(q.pending(), 0u);
}

// ---------------------------------------------------------------- run_until

TEST(EventQueueProperty, RunUntilChunksEquivalentToSingleRun) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto build = [&](EventQueue& q, std::vector<std::size_t>& order) {
      Rng rng(seed * 7);
      for (std::size_t i = 0; i < 120; ++i) {
        const double t = static_cast<double>(rng.next_u64(40)) * 0.5;
        q.schedule_at(t, [&order, i] { order.push_back(i); });
      }
    };
    EventQueue whole, chunked;
    std::vector<std::size_t> order_whole, order_chunked;
    build(whole, order_whole);
    build(chunked, order_chunked);
    whole.run();

    Rng step_rng(seed * 13);
    while (!chunked.empty()) {
      const double t_end =
          chunked.now() + 0.25 * static_cast<double>(1 + step_rng.next_u64(8));
      chunked.run_until(t_end);
      EXPECT_DOUBLE_EQ(chunked.now(), t_end)
          << "run_until must land the clock exactly on t_end";
    }
    EXPECT_EQ(order_whole, order_chunked) << "seed " << seed;
  }
}

TEST(EventQueueProperty, RunUntilAdvancesClockOnEmptyQueue) {
  EventQueue q;
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  q.run_until(3.5);
  EXPECT_DOUBLE_EQ(q.now(), 3.5);
  q.run_until(3.5);  // idempotent at the boundary
  EXPECT_DOUBLE_EQ(q.now(), 3.5);
  EXPECT_THROW(q.run_until(1.0), CheckError);  // never rewinds
}

TEST(EventQueueProperty, RunUntilExcludesStrictlyLaterEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  q.schedule_at(2.0 + 1e-12, [&] { ++fired; });
  q.run_until(2.0);  // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueProperty, FiredCountsEveryExecutedAction) {
  EventQueue q;
  const std::uint64_t before = q.fired();
  for (int i = 0; i < 25; ++i) q.schedule_at(1.0 + i, [] {});
  const EventId c = q.schedule_at(100.0, [] {});
  q.cancel(c);
  q.run();
  EXPECT_EQ(q.fired() - before, 25u) << "cancelled events never count";
}

// ------------------------------------------------------------------- Timer

TEST(Timer, AfterReplacesThePendingEvent) {
  EventQueue q;
  Timer t;
  std::vector<int> fired;
  t.after(q, 1.0, [&] { fired.push_back(1); });
  t.after(q, 2.0, [&] { fired.push_back(2); });
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(Timer, StopAndDestructionCancel) {
  EventQueue q;
  bool fired = false;
  Timer stopped;
  stopped.every(q, 1.0, [&] { fired = true; });
  {
    Timer scoped;
    scoped.after(q, 1.0, [&] { fired = true; });
    EXPECT_EQ(q.pending(), 2u);
  }
  EXPECT_EQ(q.pending(), 1u) << "destruction cancels";
  stopped.stop();
  EXPECT_EQ(q.pending(), 0u) << "stop cancels";
  stopped.stop();  // idle: a no-op
  q.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, EveryFiresAtPeriodMultiplesAfterWhatItsActionScheduled) {
  // Each firing schedules an event for the next firing's instant; having
  // the lower id, it runs first, as when a tick did its work and then
  // rescheduled itself.
  EventQueue q;
  Timer t;
  std::vector<std::pair<char, double>> order;
  t.every(q, 1.5, [&] {
    order.emplace_back('T', q.now());
    q.schedule_in(1.5, [&] { order.emplace_back('E', q.now()); });
  });
  q.run_until(4.5);
  t.stop();
  q.run();
  const std::vector<std::pair<char, double>> expect = {
      {'T', 1.5}, {'E', 3.0}, {'T', 3.0}, {'E', 4.5}, {'T', 4.5}, {'E', 6.0}};
  EXPECT_EQ(order, expect);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(Timer, ActionThatStopsOrReArmsItsTimerEndsTheSeries) {
  EventQueue q;
  Timer stops;
  int ticks = 0;
  stops.every(q, 1.0, [&] {
    if (++ticks == 2) stops.stop();
  });
  Timer rearms;
  std::vector<double> fired;
  rearms.every(q, 1.0, [&] {
    fired.push_back(q.now());
    rearms.after(q, 5.0, [&] { fired.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 6.0}));
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace tap
