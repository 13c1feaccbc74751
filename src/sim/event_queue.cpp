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

std::uint32_t EventQueue::insert(TimeNs at, std::uint64_t lane,
                                 std::uint64_t seq, EventFn&& fn) {
  check_future(at);
  if (lane >= kLaneLimit || seq >= kSeqLimit) {
    throw std::logic_error(
        "sim: event order key overflows its tie word: lane=" +
        std::to_string(lane) + " seq=" + std::to_string(seq) + " (queue " +
        std::to_string(index_) + ")");
  }
  std::uint32_t slot;
  if (!slot_free_.empty()) {
    slot = slot_free_.back();
    slot_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    pos_.push_back(0);
  }
  slab_[slot].fn = std::move(fn);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{at, lane << kSeqBits | seq, slot});
  return slot;
}

void EventQueue::sift_up(std::size_t i, Key k) {
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!k.before(heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, k);
}

void EventQueue::sift_down(std::size_t i, Key k) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(k)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, k);
}

void EventQueue::heap_remove(std::size_t i) {
  const Key moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the last key itself
  if (i > 0 && moved.before(heap_[(i - 1) >> 2])) {
    sift_up(i, moved);
  } else {
    sift_down(i, moved);
  }
}

void EventQueue::erase(std::uint32_t slot) {
  heap_remove(pos_[slot]);
  slab_[slot].fn = EventFn();
  release_slot(slot);
}

void EventQueue::push(TimeNs at, EventFn fn) {
  insert(at, 0, next_seq_, std::move(fn));
  ++next_seq_;
}

EventHandle EventQueue::schedule(TimeNs at, EventFn fn) {
  const std::uint32_t slot = insert(at, 0, next_seq_, std::move(fn));
  ++next_seq_;
#ifndef NDEBUG
  return EventHandle(this, slot, slab_[slot].gen, alive_);
#else
  return EventHandle(this, slot, slab_[slot].gen);
#endif
}

void EventQueue::run_one() {
  const Key top = heap_[0];
  // Detach the callable and free the slot BEFORE invoking it — the event
  // may schedule new work, reallocating the slab and heap underneath us.
  // Releasing the slot advances its generation first: outstanding handles
  // read "no longer pending" from inside the callback, and a cancel()
  // issued there (or any time later) cannot touch the recycled slot.
  EventFn fn = std::move(slab_[top.slot].fn);
  release_slot(top.slot);
  heap_remove(0);
  now_ = top.at;
  ++executed_;
  fn();
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
    run_one();
    ++ran;
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
    // The (src, seq) stamp IS the heap order — no drain-time sort, and the
    // merged order cannot depend on which barrier drained which message.
    insert(m.at, 1 + static_cast<std::uint64_t>(m.src), m.seq,
           std::move(m.fn));
  }
  drain_scratch_.clear();  // keeps capacity for the next barrier
}

}  // namespace dmn::sim
