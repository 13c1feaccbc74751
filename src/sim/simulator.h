#pragma once
// Discrete-event simulation kernel.
//
// A Simulator owns one or more EventQueues, each with its own clock and
// time-ordered heap executing in strict (at, lane, seq) order, and one run
// loop that advances them in synchronization windows. A default-constructed
// Simulator has exactly one queue. No other queue can post to it, so no
// lookahead applies (lookahead() is kTimeNever) and each run_until() is a
// single window bounded only by the horizon.
//
// configure_partitions() turns it into a conservative parallel kernel
// (classic ns-3-distributed recipe): each partition of the topology (a
// union of its coupling components) gets its own EventQueue + clock, plus
// one extra "wired" queue for backbone-side logic (controllers). Queues
// advance in synchronization windows bounded by the lookahead L — the
// minimum cross-partition delivery latency (the backbone's min_latency
// floor). Per window:
//   * the wired queue runs first, on the coordinator thread, while every
//     node queue is parked at the barrier — so controller code may read
//     AP MAC state synchronously without a data race;
//   * node queues with work then run concurrently on the thread pool.
// Any event executing at time t can only send cross-partition work at
// >= t + lookahead, i.e. beyond every other queue's window bound, so no
// in-window event can affect another queue's current window: the merge of
// per-queue executions is equivalent to the sequential execution of a
// global heap over the same per-queue event streams.
//
// Window protocol v2 (adaptive). Let m1 = min over queues of next_time()
// after inbox drains, m2 = the second-smallest. Every window starts at m1 —
// empty stretches of simulated time are skipped outright (a "fast-forward
// jump" when m1 lies beyond the previous window's end). Each queue runs to
// its own bound:
//   * every queue:        m1 + L - 1   (the classic conservative window);
//   * the unique minimum: min(m2, m1 + L) + L - 1   when m2 > m1.
// The elongated bound is safe by induction: events on other queues all lie
// at >= m2, and any event the minimum queue itself executes at t sends
// cross-partition work landing at >= t + L >= m1 + L — so every message
// that can ever reach the minimum queue lands at >= min(m2, m1 + L) + L,
// strictly beyond its bound. (The tempting m2 + L - 1 bound is NOT safe
// across multiple windows: a remote queue may execute a freshly drained
// message at m1 + L and reply landing at m1 + 2L < m2 + L - 1 when
// m2 > m1 + L + 1.) Controller-peek staleness keeps its documented <= L
// bound under elongation. Setting DMN_SIM_FIXED_WINDOWS=1 (read at
// configure_partitions time) disables both optimizations and steps fixed
// [s, s+L) windows from 0 — the reference schedule. Message-passing
// schemes (DCF, DOMINO) match it byte-for-byte; a controller that peeks
// cross-queue state at barriers (CENTAUR's, the one left) observes node
// progress that depends on where the window boundaries fall, so its
// peeked values may differ between schedules within the same <= L bound.
//
// Per window only queues whose next event lies inside their bound are
// activated; active queues enter a single atomic work word (largest
// previous-window execution count first, LPT-style) packing generation,
// active count, and next index, which the coordinator and pool workers
// claim from by CAS until drained — bound check and claim are one atomic
// decision, so a straggler holding a stale word can never claim into a
// newer window. Both handoffs are adaptive bounded spin-then-wait: workers
// wait on the generation counter, the coordinator on the done count, so
// idle handoffs cost nanoseconds rather than condition-variable syscalls
// while a loaded box collapses the spin budgets and sleeps immediately.
//
// Cross-partition sends go through post_to_queue(), which appends to the
// destination's inbox stamped (time, source queue, source sequence); inboxes
// are drained at window barriers, and the stamp is encoded directly in the
// destination's heap order. Because that order is a pure function of the
// simulated computation — never of thread timing or of which barrier
// drained which message — results are byte-stable at any thread count for
// a fixed partition assignment and window schedule.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "util/time.h"

namespace dmn::sim {

/// Kernel telemetry for the run loop. Counters accumulate across
/// run_until() calls; all are coordinator-written except the wake counts,
/// which workers accumulate into the pool and the coordinator folds in.
/// Cheap enough to keep always-on. A one-queue simulator counts one window
/// per run_until() that executes anything and never activates a node queue
/// (its only queue is the wired one). The counts describe how a run was
/// scheduled, never what it computed: results carry them as telemetry only.
struct KernelStats {
  std::uint64_t windows = 0;            ///< synchronization windows executed
  std::uint64_t ff_jumps = 0;           ///< windows whose start skipped idle time
  std::uint64_t elongated_windows = 0;  ///< windows where the min queue ran past m1+L-1
  std::uint64_t activations = 0;        ///< total node-queue activations (sum over windows)
  /// activation_hist[k] = number of windows that activated exactly k node
  /// queues; sized queue_count().
  std::vector<std::uint64_t> activation_hist;
  std::uint64_t spin_wakes = 0;   ///< worker wakeups served by the spin loop
  std::uint64_t sleep_wakes = 0;  ///< worker wakeups that fell through to the cv
  /// Coordinator wall-clock spent publishing windows and waiting at the
  /// done-barrier, minus the time it spent executing events itself. Only
  /// accumulated for windows that used the pool.
  double barrier_seconds = 0.0;

  /// Median / maximum node queues activated per window (0 when no windows).
  std::uint32_t activated_p50() const;
  std::uint32_t activated_max() const;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Splits the kernel into `count` node partitions (queues 0..count-1)
  /// plus one wired queue (index count). `assignment[node]` maps each
  /// topology node to its partition. `lookahead` must be positive — it is
  /// the minimum latency of any cross-partition delivery, and becomes the
  /// synchronization window width. `threads` caps the worker pool (clamped
  /// to the partition count). Must be called before anything is scheduled;
  /// calling it again reconfigures from scratch — the worker pool and its
  /// telemetry are torn down so the next run matches the new settings.
  void configure_partitions(std::vector<std::uint32_t> assignment,
                            std::uint32_t count, TimeNs lookahead,
                            unsigned threads);

  /// Number of event queues: 1 by default, the node partitions plus the
  /// wired queue once partitioned. Per-queue state (RNG and counter lanes,
  /// mediums, auditors, timeline recorders) is sized by this and indexed by
  /// active_queue_index() / queue_of_node() / wired_queue_index().
  std::uint32_t queue_count() const {
    return static_cast<std::uint32_t>(queues_.size());
  }
  /// Minimum latency of any cross-queue delivery: the window width of a
  /// partitioned kernel, kTimeNever on one queue (nothing can cross).
  TimeNs lookahead() const { return lookahead_; }

  /// Queue carrying a node's events: its partition's queue. A node no
  /// partition claims — every node of a one-queue simulator — runs on the
  /// wired queue, which on one queue is the only queue.
  std::uint32_t queue_of_node(std::size_t node) const {
    return node < node_queue_.size() ? node_queue_[node]
                                     : wired_queue_index();
  }
  /// Queue carrying backbone-side logic: the last queue.
  std::uint32_t wired_queue_index() const { return queue_count() - 1; }
  /// Index of the queue the calling context schedules into right now.
  std::uint32_t active_queue_index() const { return active().index(); }

  /// Pins the queue that build-phase (outside run) scheduling lands in.
  /// The facade wraps component construction and traffic-source starts in a
  /// Scope so their initial self-scheduled events start on the right queue;
  /// events posted from inside a running event always follow the executing
  /// queue instead. On one queue every Scope pins queue 0.
  class Scope {
   public:
    Scope(Simulator& sim, std::uint32_t queue);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Simulator& sim_;
    std::uint32_t prev_;
  };

  /// Current simulation time (of the active queue).
  TimeNs now() const { return active().now(); }

  /// Schedule `fn` to run at absolute time `at` (>= now()) on the active
  /// queue. Throws std::logic_error when `at` lies in the past. The
  /// returned handle can cancel the event; if the handle is discarded,
  /// prefer post_at(), which skips the handle state entirely. Handles
  /// borrow pooled state owned by the kernel and must not be used after
  /// the Simulator is destroyed (debug builds assert on such use).
  EventHandle schedule_at(TimeNs at, EventFn fn);

  /// Schedule `fn` to run `delay` after now().
  EventHandle schedule_in(TimeNs delay, EventFn fn) {
    return schedule_at(now() + delay, std::move(fn));
  }

  /// Fire-and-forget scheduling: no cancellation handle, no allocation.
  void post_at(TimeNs at, EventFn fn);
  void post_in(TimeNs delay, EventFn fn) {
    post_at(now() + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `at` on queue `dst`. Falls back to
  /// post_at() when `dst` is the active queue (always so on one queue);
  /// otherwise appends to dst's inbox in (time, source queue, source seq)
  /// order. Cross-queue sends must respect the lookahead contract
  /// (`at >= now() + lookahead()`); violations throw std::logic_error.
  void post_to_queue(std::uint32_t dst, TimeNs at, EventFn fn);

  /// Cancel a pending event. No-op if already run or cancelled. Only valid
  /// for events on the caller's own queue.
  void cancel(EventHandle& h) { EventQueue::cancel(h); }

  /// Run until every queue drains or simulation time exceeds `until`.
  /// Events stamped exactly at `until` still run. On a normal return every
  /// clock reads `until` (unless it is kTimeNever); a run halted early by
  /// stop(), the interrupt flag or the event budget leaves each clock at its
  /// last executed event — the last-known progress.
  void run_until(TimeNs until);

  /// Run until every queue drains: run_until(kTimeNever).
  void run() { run_until(kTimeNever); }

  /// Request the run loop to stop after the current event. The active queue
  /// stops immediately and every other queue stops at the next window
  /// barrier — a deterministic point, since in-window executions are
  /// independent.
  void stop();

  /// Arms cooperative external interruption (the sweep watchdog hook).
  /// When `flag` is non-null the run loop polls it between events and stops
  /// at the next event boundary once it reads true. The flag may be set
  /// from another thread (e.g. the SweepRunner monitor); the simulator only
  /// ever reads it. Pass nullptr to disarm.
  void set_interrupt_flag(const std::atomic<bool>* flag) {
    interrupt_ = flag;
  }

  /// Caps the total number of executed events (summed across queues); once
  /// events_executed() reaches the budget with work left before the horizon,
  /// the run loop stops and reports interrupted(). The budget is re-checked
  /// at every window barrier and enforced deterministically in-window: each
  /// window lets every queue run at most (budget - total at window start)
  /// events, a per-queue cap that does not depend on other queues' progress.
  /// 0 disables the budget.
  void set_event_budget(std::uint64_t max_events) {
    event_budget_ = max_events;
  }

  /// True when the last run_until()/run() stopped early because of the
  /// interrupt flag or the event budget while events remained at or before
  /// the horizon (not because the queues drained, the horizon was reached,
  /// or stop() was called).
  bool interrupted() const { return interrupted_; }

  /// Number of events executed so far, summed across queues.
  std::uint64_t events_executed() const;

  /// Telemetry of the run loop.
  const KernelStats& kernel_stats() const { return stats_; }

 private:
  friend class Scope;
  struct Pool;

  EventQueue& active() const;
  /// Runs queue `q` for the current window on the calling thread, recording
  /// its executed count (LPT input) and trapping its error.
  void run_queue_window(std::uint32_t q, TimeNs last, std::uint64_t cap);
  /// Publishes the active set to the pool, pulls work alongside the
  /// workers, and waits for the done-barrier (accounting barrier time).
  void run_active_pooled(std::uint64_t cap);
  /// Claims active queues off the packed (gen | count | idx) work word
  /// until the window drains; a stale word claims nothing.
  void pull_windows(Pool& p, std::uint64_t gen);
  void ensure_pool();
  void worker_loop();
  void shutdown_pool();

  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<std::uint32_t> node_queue_;  // empty on one queue
  TimeNs lookahead_ = kTimeNever;
  unsigned threads_ = 1;
  bool fixed_windows_ = false;  // DMN_SIM_FIXED_WINDOWS=1 reference schedule
  std::uint32_t build_queue_ = 0;
  bool interrupted_ = false;
  std::atomic<bool> stop_all_{false};
  const std::atomic<bool>* interrupt_ = nullptr;
  std::uint64_t event_budget_ = 0;
  KernelStats stats_;
  std::vector<TimeNs> bounds_;          // per-queue window bound
  std::vector<std::uint32_t> active_;   // node queues activated this window
  std::vector<std::uint64_t> exec_delta_;  // events run last window, per queue
  std::vector<std::exception_ptr> errors_;
  std::unique_ptr<Pool> pool_;
};

}  // namespace dmn::sim
