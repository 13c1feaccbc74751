#pragma once
// One partition's slice of the discrete-event kernel: a time-ordered event
// heap with its own clock, plus a mutex-protected inbox for events posted
// from other partitions.
//
// Events scheduled for the same tick run in FIFO order of scheduling
// (stable), which keeps protocol state machines deterministic. Cancellation
// is eager: cancel() removes the event's key from the heap at once, so the
// run loop only ever pops live events and next_time() is the earliest one.
//
// The queue is allocation-free on the hot path:
//  * event callables live in fixed inline storage inside a slab entry
//    (EventFn below) — no heap allocation unless a capture exceeds the
//    inline capacity, which no call site in this codebase does;
//  * the heap itself is a 4-ary min-heap of 24-byte POD keys; callables sit
//    in a stable slab addressed by slot index, so sift operations move
//    small PODs instead of 100-byte entries with relocation callbacks. A
//    compact slot -> heap index array (pos_) lets cancel() find a key and
//    sift its replacement into place;
//  * each slab entry carries a 64-bit generation that advances the moment
//    its event runs or is cancelled, so an EventHandle is just (queue,
//    slot, generation) — no shared_ptr, no pooled state, no allocation
//    after the slab warms up. post_at()/post_in() hand out no handle.
//
// Event order within a queue is the strict total order
//   (at, lane, seq)  with  lane 0 = locally scheduled events (seq = FIFO
//   push order) and lane 1+src = cross-partition messages (seq = per-source
//   send sequence).
// The key packs (lane, seq) into one tie word, lane << 48 | seq, so a
// compare is one 128-bit (at, tie) compare; a lane or sequence that does
// not fit its field throws std::logic_error instead of aliasing.
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
// accumulated messages into the heap at a window barrier. A cancel() edits
// the owning queue's heap, so it is only valid from that queue's own
// context (Simulator::cancel asserts this in debug builds).
//
// Lifetime contract: an EventHandle points into its queue's slab, so
// handles must not be used after the owning Simulator is destroyed. Debug
// builds enforce this: each handle carries a weak reference to its queue's
// liveness token, and pending()/cancel() assert on a dead owner.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
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
/// largest, a DOMINO AP's ACK, captures a 32-byte SignatureBurst and three
/// words, and domino_mac.cpp static_asserts that it fits) are stored in
/// place; larger ones fall back to a single heap allocation, preserving
/// correctness.
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

class EventQueue;

/// Handle to a scheduled event; may be used to cancel it. Names the owning
/// queue, the event's slab slot and that slot's generation: when the event
/// runs or is cancelled the slot's generation advances and every
/// outstanding handle to it becomes inert — pending() turns false and
/// cancel() a no-op — even after the slot is reused for a newer event. The
/// generation is 64 bits wide, so it cannot wrap around to a stale value.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not run, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  friend class Simulator;
#ifndef NDEBUG
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint64_t gen,
              std::weak_ptr<const void> alive)
      : queue_(q), slot_(slot), gen_(gen), alive_(std::move(alive)) {}
#else
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint64_t gen)
      : queue_(q), slot_(slot), gen_(gen) {}
#endif
  /// Debug enforcement of the lifetime contract (file-top comment): trips
  /// when a handle is dereferenced after its owning queue — and hence its
  /// Simulator — was destroyed, instead of reading freed slab memory.
  void assert_owner_alive() const {
#ifndef NDEBUG
    assert((queue_ == nullptr || !alive_.expired()) &&
           "EventHandle used after its owning Simulator was destroyed");
#endif
  }
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
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
  /// Number of pending events (cancelled ones have already left).
  std::size_t size() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Timestamp of the earliest pending event, kTimeNever when empty.
  TimeNs next_time() const { return heap_.empty() ? kTimeNever : heap_[0].at; }

  /// Inserts a fire-and-forget event (no handle). Throws std::logic_error
  /// when `at` lies in this queue's past — causality violations must be
  /// loud even in Release builds, where all benches run — or when the
  /// queue's sequence number outgrows its field of the tie word.
  void push(TimeNs at, EventFn fn);

  /// Inserts a cancellable event and returns its handle; throws like
  /// push(). The handle points into this queue's slab: it must not be used
  /// after the owning Simulator is destroyed (asserted in debug builds).
  EventHandle schedule(TimeNs at, EventFn fn);

  /// Cancels a pending event, removing it from its queue's heap; no-op if
  /// it already ran or was cancelled. Only valid from the owning queue's
  /// context (file-top threading contract).
  static void cancel(EventHandle& h) {
    h.assert_owner_alive();
    if (h.pending()) h.queue_->erase(h.slot_);
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
  /// caller must be the queue's sole executor. Throws std::logic_error if a
  /// message lands in the past or its (1 + src, seq) does not fit the tie
  /// word.
  void drain_inbox();

 private:
  friend class EventHandle;

  /// Tie word layout: lane << kSeqBits | seq.
  static constexpr unsigned kSeqBits = 48;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << kSeqBits;
  static constexpr std::uint64_t kLaneLimit = std::uint64_t{1}
                                              << (64 - kSeqBits);

  /// Heap key: the strict total order (at, lane, seq), with (lane, seq)
  /// packed into `tie`. 4-ary layout — the shallower tree does fewer
  /// cache-missing compares per sift than the binary std::push_heap/pop_heap
  /// it replaces, and moves 24-byte PODs instead of full entries.
  struct Key {
    TimeNs at;
    std::uint64_t tie;   // lane << kSeqBits | seq; lane 0 = local FIFO,
                         // lane 1 + src for cross messages
    std::uint32_t slot;  // index into slab_

    /// One branch-free 128-bit compare of (at, tie). Flipping the sign bit
    /// maps signed time onto unsigned order.
    bool before(const Key& o) const {
      __extension__ using Word = unsigned __int128;
      constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
      const Word a =
          Word{static_cast<std::uint64_t>(at) ^ kSign} << 64 | tie;
      const Word b =
          Word{static_cast<std::uint64_t>(o.at) ^ kSign} << 64 | o.tie;
      return a < b;
    }
  };
  static_assert(sizeof(Key) == 24, "heap keys are three words");
  struct Entry {
    EventFn fn;
    std::uint64_t gen = 0;  // advances when the event runs or is cancelled
  };

  /// Pops and executes the earliest pending event. The caller guarantees
  /// the heap is non-empty.
  void run_one();
  void check_future(TimeNs at) const;
  /// Validates `at` and (lane, seq), then files `fn` under a fresh slot and
  /// inserts its key. Returns the slot.
  std::uint32_t insert(TimeNs at, std::uint64_t lane, std::uint64_t seq,
                       EventFn&& fn);
  /// Retires a slot whose event ran or was cancelled: its generation
  /// advances (inerting outstanding handles) and it joins the free list.
  void release_slot(std::uint32_t slot) {
    ++slab_[slot].gen;
    slot_free_.push_back(slot);
  }
  /// Removes a cancelled event's key and callable.
  void erase(std::uint32_t slot);
  /// Removes heap_[i], sifting the last key into its place.
  void heap_remove(std::size_t i);
  void sift_up(std::size_t i, Key k);
  void sift_down(std::size_t i, Key k);
  void place(std::size_t i, const Key& k) {
    heap_[i] = k;
    pos_[k.slot] = static_cast<std::uint32_t>(i);
  }

  std::uint32_t index_;
  std::vector<Key> heap_;
  std::vector<std::uint32_t> pos_;  // slot -> index of its key in heap_
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> slot_free_;
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

inline bool EventHandle::pending() const {
  assert_owner_alive();
  return queue_ != nullptr && queue_->slab_[slot_].gen == gen_;
}

}  // namespace dmn::sim
