#include "sim/event_queue.h"

#include <stdexcept>
#include <string>

namespace dmn::sim {

void EventQueue::check_future(TimeNs at) const {
  if (at < now_) {
    throw std::logic_error(
        "sim: cannot schedule into the past: at=" + std::to_string(at) +
        " ns < now=" + std::to_string(now_) + " ns (queue " +
        std::to_string(index_) + ")");
  }
}

std::uint32_t EventQueue::take_slot(EventFn fn, EventHandle::State* state) {
  std::uint32_t slot;
  if (!slot_free_.empty()) {
    slot = slot_free_.back();
    slot_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Entry& e = slab_[slot];
  e.fn = std::move(fn);
  e.state = state;
  return slot;
}

void EventQueue::heap_insert(Key k) {
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!k.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::heap_pop_top() {
  const Key moved = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(moved)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moved;
}

void EventQueue::push(TimeNs at, EventFn fn) {
  check_future(at);
  const std::uint32_t slot = take_slot(std::move(fn), nullptr);
  heap_insert(Key{at, 0, next_seq_++, slot});
}

EventHandle EventQueue::schedule(TimeNs at, EventFn fn) {
  check_future(at);  // validate before drawing from the pool
  EventHandle::State* state;
  if (!state_free_.empty()) {
    state = state_free_.back();
    state_free_.pop_back();
  } else {
    state = &state_slab_.emplace_back();
  }
  const std::uint32_t slot = take_slot(std::move(fn), state);
  heap_insert(Key{at, 0, next_seq_++, slot});
#ifndef NDEBUG
  return EventHandle(state, state->gen, alive_);
#else
  return EventHandle(state, state->gen);
#endif
}

bool EventQueue::run_one() {
  const Key top = heap_[0];
  Entry& e = slab_[top.slot];
  if (e.state != nullptr && e.state->cancelled) {
    // Reap a cancelled entry: recycle state + slot, count nothing.
    recycle_state(e.state);
    e.state = nullptr;
    e.fn = EventFn();
    slot_free_.push_back(top.slot);
    heap_pop_top();
    return false;
  }
  // Detach the callable and free the slot BEFORE invoking it — the event
  // may schedule new work, reallocating the slab and heap underneath us.
  EventFn fn = std::move(e.fn);
  EventHandle::State* state = e.state;
  e.state = nullptr;
  slot_free_.push_back(top.slot);
  heap_pop_top();
  now_ = top.at;
  // Advance the generation before running: outstanding handles read
  // "no longer pending" from inside the callback, and a cancel() issued
  // there (or any time later) cannot touch the recycled slot.
  if (state != nullptr) recycle_state(state);
  ++executed_;
  fn();
  return true;
}

std::uint64_t EventQueue::run_window(TimeNs last, std::uint64_t max_events,
                                     const std::atomic<bool>* interrupt) {
  std::uint64_t ran = 0;
  while (!heap_.empty() && !stop_requested_) {
    if (ran >= max_events) break;
    if (interrupt != nullptr && interrupt->load(std::memory_order_relaxed)) {
      break;
    }
    if (heap_[0].at > last) break;
    if (run_one()) ++ran;
  }
  return ran;
}

void EventQueue::inbox_put(CrossMsg msg) {
  const std::lock_guard<std::mutex> lock(inbox_mutex_);
  inbox_.push_back(std::move(msg));
  inbox_flag_.store(true, std::memory_order_release);
}

void EventQueue::drain_inbox() {
  if (!inbox_flag_.load(std::memory_order_acquire)) return;
  {
    const std::lock_guard<std::mutex> lock(inbox_mutex_);
    drain_scratch_.swap(inbox_);
    inbox_flag_.store(false, std::memory_order_release);
  }
  for (CrossMsg& m : drain_scratch_) {
    check_future(m.at);
    const std::uint32_t slot = take_slot(std::move(m.fn), nullptr);
    // The (src, seq) stamp IS the heap order — no drain-time sort, and the
    // merged order cannot depend on which barrier drained which message.
    heap_insert(Key{m.at, 1 + static_cast<std::uint64_t>(m.src), m.seq, slot});
  }
  drain_scratch_.clear();  // keeps capacity for the next barrier
}

}  // namespace dmn::sim
