#pragma once
// One partition's slice of the discrete-event kernel: a time-ordered event
// heap with its own clock, plus a mutex-protected inbox for events posted
// from other partitions.
//
// Events scheduled for the same tick run in FIFO order of scheduling
// (stable), which keeps protocol state machines deterministic. Cancellation
// is lazy: cancel() flags the event and the run loop skips flagged entries.
//
// The queue is allocation-free on the hot path:
//  * event callables live in fixed inline storage inside a slab entry
//    (EventFn below) — no heap allocation unless a capture exceeds the
//    inline capacity, which no call site in this codebase does;
//  * the heap itself is a 4-ary min-heap of 24-byte POD keys; callables sit
//    in a stable slab addressed by slot index, so sift operations move
//    small PODs instead of 100-byte entries with relocation callbacks;
//  * cancellation state is pooled: schedule() hands out generation-stamped
//    State slots from a per-queue free list, recycled the moment the event
//    runs or its cancelled corpse is popped — no shared_ptr, no allocation
//    after the pool warms up. post_at()/post_in() carry no state at all.
//
// Event order within a queue is the strict total order
//   (at, lane, seq)  with  lane 0 = locally scheduled events (seq = FIFO
//   push order) and lane 1+src = cross-partition messages (seq = per-source
//   send sequence).
// Putting the cross-partition (source, sequence) pair directly into the
// heap key — rather than assigning drain-time FIFO numbers — makes the
// merged order a pure function of the simulated computation, independent of
// which synchronization barrier happened to drain which message. That is
// what lets the adaptive window protocol (sim/simulator.h) merge or split
// barrier batches freely without perturbing results.
//
// Threading contract: a queue is only ever touched by one thread at a time —
// its owning worker during a synchronization window, the coordinator between
// windows. The sole exception is inbox_put(), which remote partitions may
// call concurrently (mutex-protected vector plus a lock-free "pending" flag
// that lets the barrier skip idle inboxes); drain_inbox() moves the
// accumulated messages into the heap at a window barrier.
//
// Lifetime contract: an EventHandle borrows pooled state owned by its
// queue, so handles must not be used after the owning Simulator is
// destroyed (they were previously shared_ptr-backed and outlived it; no
// call site relied on that). Debug builds enforce this: each handle carries
// a weak reference to its queue's liveness token, and pending()/cancel()
// assert on a dead owner. Release handles stay two raw words.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace dmn::sim {

/// Move-only `void()` callable with inline storage. Callables up to
/// kInlineCapacity bytes (every scheduling lambda in the simulator — the
/// largest captures a SignatureBurst by value) are stored in place; larger
/// ones fall back to a single heap allocation, preserving correctness.
class EventFn {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      relocate_ = [](void* dst, void* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      };
      destroy_ = [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); };
    } else {
      // Oversized capture: store a pointer in the buffer instead.
      Fn* heap = new Fn(std::forward<F>(f));
      ::new (static_cast<void*>(buf_)) Fn*(heap);
      invoke_ = [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); };
      relocate_ = [](void* dst, void* src) {
        Fn** s = std::launder(reinterpret_cast<Fn**>(src));
        ::new (dst) Fn*(*s);
      };
      destroy_ = [](void* p) {
        delete *std::launder(reinterpret_cast<Fn**>(p));
      };
    }
  }

  EventFn(EventFn&& other) noexcept
      : invoke_(other.invoke_),
        relocate_(other.relocate_),
        destroy_(other.destroy_) {
    if (relocate_ != nullptr) relocate_(buf_, other.buf_);
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      destroy_ = other.destroy_;
      if (relocate_ != nullptr) relocate_(buf_, other.buf_);
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
      other.destroy_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { invoke_(buf_); }
  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void reset() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void* dst, void* src) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// Handle to a scheduled event; may be used to cancel it. Backed by pooled,
/// generation-stamped state inside the owning queue: when the event runs
/// (or its cancelled entry is reaped) the slot's generation advances and
/// every outstanding handle to it becomes inert — pending() turns false and
/// cancel() a no-op — even after the slot is reused for a newer event.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not run, not cancelled).
  bool pending() const {
    assert_owner_alive();
    return state_ != nullptr && state_->gen == gen_ && !state_->cancelled;
  }

 private:
  friend class EventQueue;
  friend class Simulator;
  struct State {
    std::uint64_t gen = 0;
    bool cancelled = false;
  };
#ifndef NDEBUG
  EventHandle(State* s, std::uint64_t gen, std::weak_ptr<const void> alive)
      : state_(s), gen_(gen), alive_(std::move(alive)) {}
#else
  EventHandle(State* s, std::uint64_t gen) : state_(s), gen_(gen) {}
#endif
  /// Debug enforcement of the lifetime contract (file-top comment): trips
  /// when a handle is dereferenced after its owning queue — and hence its
  /// Simulator — was destroyed, instead of reading freed pool memory.
  void assert_owner_alive() const {
#ifndef NDEBUG
    assert((state_ == nullptr || !alive_.expired()) &&
           "EventHandle used after its owning Simulator was destroyed");
#endif
  }
  State* state_ = nullptr;
  std::uint64_t gen_ = 0;
#ifndef NDEBUG
  std::weak_ptr<const void> alive_;
#endif
};

/// "No pending event" sentinel for EventQueue::next_time().
inline constexpr TimeNs kTimeNever = std::numeric_limits<TimeNs>::max();

class EventQueue {
 public:
  explicit EventQueue(std::uint32_t index) : index_(index) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  std::uint32_t index() const { return index_; }
  TimeNs now() const { return now_; }
  void set_now(TimeNs t) { now_ = t; }
  bool empty() const { return heap_.empty(); }
  std::uint64_t executed() const { return executed_; }

  /// Timestamp of the earliest pending event, kTimeNever when empty.
  TimeNs next_time() const { return heap_.empty() ? kTimeNever : heap_[0].at; }

  /// Inserts a fire-and-forget event (no cancellation state). Throws
  /// std::logic_error when `at` lies in this queue's past — causality
  /// violations must be loud even in Release builds, where all benches run.
  void push(TimeNs at, EventFn fn);

  /// Inserts a cancellable event and returns its handle. The cancellation
  /// state comes from the queue's pooled free list — no allocation once the
  /// pool has warmed up. The handle borrows that pooled state: it must not
  /// be used after the owning Simulator is destroyed (asserted in debug
  /// builds).
  EventHandle schedule(TimeNs at, EventFn fn);

  /// Cancel a pending event; no-op if already run, reaped, or cancelled.
  static void cancel(EventHandle& h) {
    h.assert_owner_alive();
    if (h.state_ != nullptr && h.state_->gen == h.gen_) {
      h.state_->cancelled = true;
    }
  }

  /// Runs pending events with at <= last, in (at, lane, seq) order, until
  /// the heap drains past the bound, `max_events` have run, stop() was
  /// requested from inside an event, or the interrupt flag reads true.
  /// Returns the number of events executed.
  std::uint64_t run_window(TimeNs last, std::uint64_t max_events,
                           const std::atomic<bool>* interrupt);

  void request_stop() { stop_requested_ = true; }
  void clear_stop() { stop_requested_ = false; }

  /// A cross-partition event, ordered by (at, src queue, src sequence).
  struct CrossMsg {
    TimeNs at;
    std::uint32_t src;
    std::uint64_t seq;
    EventFn fn;
  };

  /// Appends a message from another partition (thread-safe) and raises the
  /// lock-free pending flag drain_inbox() checks first.
  void inbox_put(CrossMsg msg);

  /// Next per-source sequence number for cross-partition sends originating
  /// from THIS queue (called by the owning thread only).
  std::uint64_t next_cross_seq() { return cross_seq_++; }

  /// Moves accumulated inbox messages into the heap. Their (at, src, seq)
  /// execution order is encoded directly in the heap key, so the result is
  /// independent of which barrier drained which message. Barrier-only: the
  /// caller must be the queue's sole executor. Throws if a message lands in
  /// the past.
  void drain_inbox();


 private:
  friend class Simulator;

  /// Heap key: the strict total order (at, lane, seq). 4-ary layout — the
  /// shallower tree does fewer cache-missing compares per sift than the
  /// binary std::push_heap/pop_heap it replaces, and moves 24-byte PODs
  /// instead of full entries.
  struct Key {
    TimeNs at;
    std::uint64_t lane;  // 0 = local FIFO; 1 + src for cross messages
    std::uint64_t seq;
    std::uint32_t slot;  // index into slab_

    bool before(const Key& o) const {
      if (at != o.at) return at < o.at;
      if (lane != o.lane) return lane < o.lane;
      return seq < o.seq;
    }
  };
  struct Entry {
    EventFn fn;
    EventHandle::State* state = nullptr;  // null for post_at events
  };

  /// Pops and executes the earliest pending event; skips (without counting)
  /// a cancelled entry. The caller guarantees the heap is non-empty.
  /// Returns true when an event actually ran.
  bool run_one();
  void check_future(TimeNs at) const;
  std::uint32_t take_slot(EventFn fn, EventHandle::State* state);
  void heap_insert(Key k);
  /// Removes heap_[0]; the caller has already copied it.
  void heap_pop_top();
  void recycle_state(EventHandle::State* s) {
    ++s->gen;
    s->cancelled = false;
    state_free_.push_back(s);
  }

  std::uint32_t index_;
  std::vector<Key> heap_;
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> slot_free_;
  std::deque<EventHandle::State> state_slab_;  // stable addresses
  std::vector<EventHandle::State*> state_free_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
  std::uint64_t cross_seq_ = 0;
  std::mutex inbox_mutex_;
  std::vector<CrossMsg> inbox_;
  std::vector<CrossMsg> drain_scratch_;  // reused across drains, no alloc
  std::atomic<bool> inbox_flag_{false};
#ifndef NDEBUG
  // Liveness token for the debug-only EventHandle owner check; dies with
  // the queue, flipping every outstanding handle's weak reference.
  std::shared_ptr<const void> alive_ = std::make_shared<int>(0);
#endif
};

}  // namespace dmn::sim
