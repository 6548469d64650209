#include "src/sim/event_queue.h"

namespace tap {

EventId EventQueue::schedule_at(double when, Action action) {
  TAP_CHECK(when >= now_, "schedule_at: cannot schedule in the past");
  TAP_CHECK(static_cast<bool>(action), "schedule_at: empty action");
  const EventId id = next_id_++;
  actions_.emplace(id, std::move(action));
  heap_.push(Entry{when, id});
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Only ids with a live action are cancellable; an already-fired, already-
  // cancelled or never-issued id is rejected without leaving any tombstone
  // state behind (the stale heap entry, if one exists, is popped lazily).
  auto it = actions_.find(id);
  if (it == actions_.end()) return false;
  actions_.erase(it);  // release captured state eagerly
  return true;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    auto it = actions_.find(e.id);
    if (it == actions_.end()) {
      heap_.pop();  // cancellation tombstone
      continue;
    }
    heap_.pop();
    TAP_ASSERT(e.time >= now_);
    now_ = e.time;
    Action action = std::move(it->second);
    actions_.erase(it);
    ++fired_;
    action();
    return true;
  }
  return false;
}

void EventQueue::run(std::size_t max_events) {
  std::size_t n = 0;
  while (step()) {
    TAP_CHECK(++n <= max_events, "EventQueue::run exceeded max_events");
  }
}

void EventQueue::run_until(double t_end) {
  TAP_CHECK(t_end >= now_, "run_until: cannot rewind the clock");
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    if (actions_.find(e.id) == actions_.end()) {
      heap_.pop();  // cancellation tombstone
      continue;
    }
    if (e.time > t_end) break;
    step();
  }
  now_ = t_end;
}

void Timer::after(EventQueue& queue, double delay, EventQueue::Action action) {
  TAP_CHECK(static_cast<bool>(action), "Timer: empty action");
  stop();
  queue_ = &queue;
  action_ = std::move(action);
  arm(delay);
}

void Timer::every(EventQueue& queue, double period, EventQueue::Action action) {
  TAP_CHECK(period > 0.0, "Timer::every: period must be positive");
  after(queue, period, std::move(action));
  period_ = period;
}

void Timer::stop() {
  if (pending_ != kIdle) queue_->cancel(pending_);
  pending_ = kIdle;
  period_ = 0.0;
  action_ = nullptr;
}

void Timer::arm(double delay) {
  pending_ = queue_->schedule_in(delay, [this] { fire(); });
}

void Timer::fire() {
  pending_ = kIdle;
  EventQueue::Action action = std::move(action_);
  action_ = nullptr;
  action();
  // stop() inside the action zeroed period_, after() or every() armed a
  // new event: either ends this series.
  if (period_ > 0.0 && pending_ == kIdle) {
    action_ = std::move(action);
    arm(period_);
  }
}

}  // namespace tap
