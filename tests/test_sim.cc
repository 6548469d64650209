// Simulation substrate: event queue ordering/cancellation, trace
// accounting, thread-pool determinism, PRNG behaviour, statistics helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "src/common/assert.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sim/event_queue.h"
#include "src/sim/thread_pool.h"
#include "src/sim/trace.h"

namespace tap {
namespace {

// ----------------------------------------------------------------- events

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ActionsCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) q.schedule_in(1.0, chain);
  };
  q.schedule_in(1.0, chain);
  q.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  q.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CannotScheduleInThePast) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(4.0, [] {}), CheckError);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutLaterEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(10.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PendingExcludesCancelled) {
  EventQueue q;
  const EventId a = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunGuardsAgainstRunaway) {
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule_in(1.0, forever); };
  q.schedule_in(1.0, forever);
  EXPECT_THROW(q.run(100), CheckError);
}

// ------------------------------------------------------------------ trace

TEST(Trace, AccumulatesMessagesAndLatency) {
  Trace t;
  t.hop(1.5);
  t.hop(2.5);
  EXPECT_EQ(t.messages(), 2u);
  EXPECT_DOUBLE_EQ(t.latency(), 4.0);
}

TEST(Trace, AbsorbMergesSubOperation) {
  Trace outer;
  Trace inner;
  inner.hop(1.0);
  inner.hop(1.0);
  outer.hop(3.0);
  outer.absorb(inner);
  EXPECT_EQ(outer.messages(), 3u);
  EXPECT_DOUBLE_EQ(outer.latency(), 5.0);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, TrialResultsInOrder) {
  const auto out = run_trials<std::size_t>(
      100, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, SeededTrialsDeterministicAcrossWorkerCounts) {
  auto trial = [](std::size_t i) {
    Rng rng(i);
    double acc = 0;
    for (int k = 0; k < 100; ++k) acc += rng.next_double();
    return acc;
  };
  const auto serial = run_trials<double>(32, trial, 1);
  const auto parallel = run_trials<double>(32, trial, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(
                   16, [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedDrawsInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_u64(17), 17u);
  EXPECT_THROW((void)rng.next_u64(0), CheckError);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(7);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(8);
  const auto p = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (std::size_t v : p) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(9);
  Rng child = a.split();
  EXPECT_NE(a(), child());
}

// ------------------------------------------------------------------ stats

TEST(Summary, MomentsAndPercentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
  EXPECT_NEAR(s.stddev(), 29.011, 0.01);
}

TEST(Summary, EmptyQueriesThrow) {
  Summary s;
  EXPECT_THROW((void)s.mean(), CheckError);
  EXPECT_THROW((void)s.percentile(50), CheckError);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-3.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyDataStillHighR2) {
  Rng rng(10);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(5.0 + 3.0 * i + rng.uniform(-1.0, 1.0));
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.999);
}

}  // namespace
}  // namespace tap
