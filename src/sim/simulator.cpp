#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace dmn::sim {

namespace {

// Which queue the current thread is executing events for. Keyed by the
// owning Simulator so nested/neighbouring simulators (tests build several)
// never observe each other's scope.
struct ActiveRef {
  const Simulator* sim = nullptr;
  EventQueue* queue = nullptr;
};
thread_local ActiveRef g_active;

// RAII run-phase scope: marks `queue` as the executing queue on this thread
// for the duration of a synchronization window.
class TlsScope {
 public:
  TlsScope(const Simulator* sim, EventQueue* queue) : prev_(g_active) {
    g_active = ActiveRef{sim, queue};
  }
  ~TlsScope() { g_active = prev_; }

 private:
  ActiveRef prev_;
};

// One busy-wait beat that is polite to hyper-threads and, on unknown ISAs,
// to the scheduler.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

std::uint32_t KernelStats::activated_p50() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : activation_hist) total += c;
  if (total == 0) return 0;
  const std::uint64_t target = (total + 1) / 2;
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < activation_hist.size(); ++k) {
    cum += activation_hist[k];
    if (cum >= target) return static_cast<std::uint32_t>(k);
  }
  return 0;
}

std::uint32_t KernelStats::activated_max() const {
  for (std::size_t k = activation_hist.size(); k-- > 0;) {
    if (activation_hist[k] != 0) return static_cast<std::uint32_t>(k);
  }
  return 0;
}

// Worker pool shared state. The coordinator publishes a window by writing
// the active list / bounds / cap, resetting done_count, storing the work
// word, and finally bumping `generation`; workers wait for the bump with an
// adaptive bounded spin before falling back to the condition variable.
//
// The work word packs (generation | active count | next index) into ONE
// atomic so the bound check and the claim are a single atomic decision:
//   work = (gen & kGenMask) << kGenShift | count << kCntShift | idx.
// A claim CASes the whole word it validated, so a straggler still holding a
// stale generation can never claim (or corrupt) a later window's index: the
// count it compares against comes from the same load its CAS commits, never
// from a separately-published (possibly newer) field. The generation tag is
// truncated to 32 bits in the word — a straggler would have to sleep
// through exactly k*2^32 windows while holding one stale load for the tag
// to alias, which cannot happen while its claim is required for the
// previous window's done-barrier to release the coordinator.
struct Simulator::Pool {
  static constexpr unsigned kIdxBits = 16;
  static constexpr unsigned kCntShift = 16;
  static constexpr unsigned kGenShift = 32;
  static constexpr std::uint64_t kIdxMask = (1u << kIdxBits) - 1;
  static constexpr std::uint64_t kGenMask = 0xffffffffull;
  static constexpr std::uint32_t kSpinInit = 256;
  static constexpr std::uint32_t kSpinMin = 16;
  static constexpr std::uint32_t kSpinMax = 8192;

  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> work{0};  // gen<<32 | count<<16 | next index
  std::atomic<std::uint32_t> done_count{0};
  const std::uint32_t* active = nullptr;  // into Simulator::active_
  const TimeNs* bounds = nullptr;         // into Simulator::bounds_
  std::uint64_t cap = 0;
  std::atomic<bool> shutdown{false};
  // Sleep path: only touched once a worker exhausts its spin budget.
  std::mutex m;
  std::condition_variable cv;
  std::atomic<std::uint32_t> sleepers{0};
  // Done-barrier sleep path: the coordinator parks here when a claimed
  // queue runs long; the worker finishing the window's last queue wakes it.
  std::condition_variable done_cv;
  std::atomic<bool> coord_sleeping{false};
  std::uint32_t coord_spin_budget = kSpinInit;  // coordinator-only
  // Telemetry (workers add, coordinator folds into KernelStats).
  std::atomic<std::uint64_t> spin_wakes{0};
  std::atomic<std::uint64_t> sleep_wakes{0};
  std::vector<std::thread> workers;
};

Simulator::Simulator() {
  queues_.push_back(std::make_unique<EventQueue>(0));
  stats_.activation_hist.assign(1, 0);
}

Simulator::~Simulator() { shutdown_pool(); }

Simulator::Scope::Scope(Simulator& sim, std::uint32_t queue)
    : sim_(sim), prev_(sim.build_queue_) {
  if (queue >= sim_.queues_.size()) {
    throw std::out_of_range("sim: Scope queue " + std::to_string(queue) +
                            " out of range");
  }
  sim_.build_queue_ = queue;
}

Simulator::Scope::~Scope() { sim_.build_queue_ = prev_; }

EventQueue& Simulator::active() const {
  if (g_active.sim == this && g_active.queue != nullptr) {
    return *g_active.queue;
  }
  return *queues_[build_queue_];
}

void Simulator::configure_partitions(std::vector<std::uint32_t> assignment,
                                     std::uint32_t count, unsigned threads) {
  if (count < 2) {
    throw std::invalid_argument(
        "sim: configure_partitions requires >= 2 partitions; keep one "
        "queue otherwise");
  }
  if (count >= Pool::kIdxMask) {
    throw std::invalid_argument(
        "sim: partition count exceeds the work-index capacity (" +
        std::to_string(Pool::kIdxMask) + ")");
  }
  for (std::uint32_t a : assignment) {
    if (a >= count) {
      throw std::invalid_argument("sim: partition assignment out of range");
    }
  }
  EventQueue& q0 = *queues_[0];
  if (!q0.empty() || q0.executed() != 0 || q0.now() != 0) {
    throw std::logic_error(
        "sim: configure_partitions must run before any scheduling");
  }
  // Reconfiguration: drop any pool sized for the previous configuration so
  // the worker count matches the new threads/partitions and its cumulative
  // wake counters don't leak into the freshly-reset stats below.
  shutdown_pool();
  node_queue_ = std::move(assignment);
  threads_ = std::max(1u, threads);
  stats_ = KernelStats{};
  stats_.activation_hist.assign(count + 1, 0);
  queues_.clear();
  for (std::uint32_t q = 0; q <= count; ++q) {  // + the wired queue
    queues_.push_back(std::make_unique<EventQueue>(q));
  }
}

void Simulator::add_cross_queue_channel(TimeNs min_latency) {
  if (min_latency <= 0) {
    throw std::invalid_argument(
        "sim: a cross-queue channel needs a positive latency floor");
  }
  // Inside an event (g_active names this simulator) an event has run by
  // definition; outside, no queue is running, so the counts are stable.
  if (g_active.sim == this || events_executed() != 0) {
    throw std::logic_error(
        "sim: cross-queue channels must be declared before the first event "
        "runs");
  }
  channel_floor_ = std::min(channel_floor_, min_latency);
}

EventHandle Simulator::schedule_at(TimeNs at, EventFn fn) {
  return active().schedule(at, std::move(fn));
}

void Simulator::post_at(TimeNs at, EventFn fn) {
  active().push(at, std::move(fn));
}

void Simulator::post_to_queue(std::uint32_t dst, TimeNs at, EventFn fn) {
  if (dst >= queues_.size()) {
    throw std::out_of_range("sim: post_to_queue destination " +
                            std::to_string(dst) + " out of range");
  }
  EventQueue& src = active();
  EventQueue& dq = *queues_[dst];
  if (&src == &dq) {
    src.push(at, std::move(fn));
    return;
  }
  // With no channel declared every queue runs to the horizon in one
  // window, so nothing may cross at all.
  if (channel_floor_ == kTimeNever) {
    throw std::logic_error(
        "sim: cross-queue send with no cross-queue channel declared");
  }
  // Conservative-lookahead contract: a cross-queue event must land beyond
  // every other queue's current window bound, otherwise the destination may
  // have already run past it in parallel. Written as a difference so that
  // no sum can overflow.
  if (at < src.now() || at - src.now() < channel_floor_) {
    throw std::logic_error(
        "sim: cross-partition event below the lookahead horizon: at=" +
        std::to_string(at) + " ns < now=" + std::to_string(src.now()) +
        " ns + lookahead=" + std::to_string(channel_floor_) + " ns");
  }
  dq.inbox_put(EventQueue::CrossMsg{at, src.index(), src.next_cross_seq(),
                                    std::move(fn)});
}

void Simulator::stop() {
  active().request_stop();
  stop_all_.store(true, std::memory_order_relaxed);
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& q : queues_) total += q->executed();
  return total;
}

void Simulator::run_queue_window(std::uint32_t q, TimeNs last,
                                 std::uint64_t cap) {
  TlsScope scope(this, queues_[q].get());
  try {
    exec_delta_[q] = queues_[q]->run_window(last, cap, interrupt_);
  } catch (...) {
    errors_[q] = std::current_exception();
  }
}

void Simulator::run_until(TimeNs until) {
  interrupted_ = false;
  stop_all_.store(false, std::memory_order_relaxed);
  for (auto& q : queues_) q->clear_stop();
  const std::uint32_t wired = wired_queue_index();
  const std::size_t nq = queues_.size();
  const TimeNs lookahead = this->lookahead();
  bounds_.assign(nq, 0);
  exec_delta_.assign(nq, 0);
  bool have_prev = false;
  TimeNs prev_end = 0;
  for (;;) {
    // Barrier start: fold the previous window's cross-partition sends into
    // their destination heaps. The lock-free inbox flag makes this a single
    // relaxed load per idle queue — no mutex sweep.
    for (auto& q : queues_) q->drain_inbox();
    if (stop_all_.load(std::memory_order_relaxed)) break;
    // m1 = earliest pending event anywhere; m2 = earliest on any OTHER
    // queue than m1's (== m1 on a tie). Both are pure simulation state.
    TimeNs m1 = kTimeNever;
    TimeNs m2 = kTimeNever;
    std::size_t argmin = 0;
    for (std::size_t i = 0; i < nq; ++i) {
      const TimeNs t = queues_[i]->next_time();
      if (t < m1) {
        m2 = m1;
        m1 = t;
        argmin = i;
      } else if (t < m2) {
        m2 = t;
      }
    }
    if (m1 == kTimeNever || m1 > until) break;
    // Work remains before the horizon: a watchdog stop here is early.
    if ((event_budget_ != 0 && events_executed() >= event_budget_) ||
        (interrupt_ != nullptr &&
         interrupt_->load(std::memory_order_relaxed))) {
      interrupted_ = true;
      break;
    }
    // The previous window ran to completion: advance every clock to its
    // bound so this window's inbox drains see a consistent "time has
    // passed" view. A halted window skips this, leaving each clock at its
    // last executed event.
    if (have_prev) {
      for (std::size_t i = 0; i < nq; ++i) {
        if (queues_[i]->now() < bounds_[i]) queues_[i]->set_now(bounds_[i]);
      }
    }
    // Window start: jump straight to the earliest event.
    const TimeNs start = m1;
    if (have_prev && m1 > prev_end + 1) ++stats_.ff_jumps;
    // No queue holds an event before `start`, so every clock may read
    // start - 1, across a fast-forward jump too.
    for (std::size_t i = 0; i < nq; ++i) {
      if (queues_[i]->now() < start - 1) queues_[i]->set_now(start - 1);
    }
    ++stats_.windows;
    // A lookahead of kTimeNever (one queue, or no channel declared) bounds
    // the window only by the horizon.
    const TimeNs horizon = (start > kTimeNever - lookahead)
                               ? kTimeNever
                               : start + lookahead;
    const TimeNs base_last = std::min(until, horizon - 1);
    TimeNs window_end = base_last;
    for (std::size_t i = 0; i < nq; ++i) bounds_[i] = base_last;
    // Elongation: when the minimum is unique, that queue alone may run to
    // min(m2, m1 + L) + L - 1 — every message that can ever reach it lands
    // at or beyond min(m2, m1 + L) + L (see the header-comment induction).
    if (m2 > m1) {
      const TimeNs e_start = std::min(m2, horizon);
      const TimeNs e_horizon = (e_start > kTimeNever - lookahead)
                                   ? kTimeNever
                                   : e_start + lookahead;
      const TimeNs e_last = std::min(until, e_horizon - 1);
      if (e_last > base_last) {
        bounds_[argmin] = e_last;
        window_end = e_last;
        ++stats_.elongated_windows;
      }
    }
    const std::uint64_t total = events_executed();
    const std::uint64_t cap =
        event_budget_ == 0
            ? std::numeric_limits<std::uint64_t>::max()
            : event_budget_ - total;
    errors_.assign(nq, nullptr);
    // Wired queue first, on the coordinator, while every node queue is
    // parked.
    if (queues_[wired]->next_time() <= bounds_[wired]) {
      run_queue_window(wired, bounds_[wired], cap);
    }
    if (errors_[wired] == nullptr) {
      // Sparse activation: only node queues with events inside their bound
      // enter the window at all; the rest just get their clocks advanced.
      active_.clear();
      for (std::uint32_t q = 0; q < wired; ++q) {
        if (queues_[q]->next_time() <= bounds_[q]) active_.push_back(q);
      }
      stats_.activations += active_.size();
      ++stats_.activation_hist[active_.size()];
      if (threads_ <= 1 || active_.size() <= 1) {
        // No handoff worth paying for: run inline on the coordinator.
        for (std::uint32_t q : active_) run_queue_window(q, bounds_[q], cap);
      } else {
        run_active_pooled(cap);
      }
    }
    have_prev = true;
    prev_end = window_end;
    for (auto& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }
  if (pool_) {
    stats_.spin_wakes = pool_->spin_wakes.load(std::memory_order_relaxed);
    stats_.sleep_wakes = pool_->sleep_wakes.load(std::memory_order_relaxed);
  }
  // Simulated until `until` (but not to run()'s infinite sentinel).
  if (!interrupted_ && !stop_all_.load(std::memory_order_relaxed) &&
      until != kTimeNever) {
    for (auto& q : queues_) {
      if (q->now() < until) q->set_now(until);
    }
  }
}

void Simulator::run_active_pooled(std::uint64_t cap) {
  ensure_pool();
  Pool& p = *pool_;
  using Clock = std::chrono::steady_clock;
  const auto window_begin = Clock::now();
  // LPT-style balance: longest (by last window's executed count) first, so
  // the heavy queue is claimed before the tail of light ones.
  std::sort(active_.begin(), active_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (exec_delta_[a] != exec_delta_[b]) {
                return exec_delta_[a] > exec_delta_[b];
              }
              return a < b;
            });
  const std::uint32_t count = static_cast<std::uint32_t>(active_.size());
  const std::uint64_t gen =
      p.generation.load(std::memory_order_relaxed) + 1;
  // Publish order matters: window data, then done_count, then the packed
  // work word (release), then the generation bump the workers wait on. A
  // worker that observes the new generation therefore observes everything
  // else. Until the work word is stored, stragglers see the previous
  // window's fully-drained word (idx == count) and claim nothing.
  p.active = active_.data();
  p.bounds = bounds_.data();
  p.cap = cap;
  p.done_count.store(0, std::memory_order_relaxed);
  p.work.store(((gen & Pool::kGenMask) << Pool::kGenShift) |
                   (static_cast<std::uint64_t>(count) << Pool::kCntShift),
               std::memory_order_release);
  p.generation.store(gen, std::memory_order_seq_cst);
  if (p.sleepers.load(std::memory_order_seq_cst) != 0) {
    // The empty critical section pins sleepers to one side of the predicate
    // re-check; seq_cst on the generation store and the sleepers counter
    // closes the classic lost-wakeup window.
    { const std::lock_guard<std::mutex> lock(p.m); }
    p.cv.notify_all();
  }
  // The coordinator is a puller too.
  const auto exec_begin = Clock::now();
  pull_windows(p, gen);
  const auto exec_end = Clock::now();
  // Done-barrier: adaptive spin-then-wait, mirroring the workers. A long
  // in-flight queue (or an oversubscribed box) must not pin the coordinator
  // to a core it could be lending to the very worker it waits on. The
  // seq_cst handshake on coord_sleeping vs done_count (worker side in
  // pull_windows) closes the lost-wakeup window the same way the sleepers
  // counter does for generation publishes.
  std::uint32_t spins = 0;
  bool slept = false;
  while (p.done_count.load(std::memory_order_acquire) < count) {
    if (spins < p.coord_spin_budget) {
      ++spins;
      cpu_relax();
      continue;
    }
    p.coord_sleeping.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(p.m);
      // seq_cst predicate load: paired with the seq_cst fetch_add +
      // coord_sleeping load on the worker side, the single total order
      // guarantees that whenever the last finisher saw coord_sleeping ==
      // false (and so skipped the notify), this pre-wait check sees its
      // increment — an acquire load could legally miss it and sleep with
      // no wakeup pending.
      p.done_cv.wait(lock, [&p, count] {
        return p.done_count.load(std::memory_order_seq_cst) >= count;
      });
    }
    p.coord_sleeping.store(false, std::memory_order_seq_cst);
    slept = true;
  }
  p.coord_spin_budget =
      slept ? std::max(p.coord_spin_budget / 2, Pool::kSpinMin)
            : std::min(p.coord_spin_budget * 2, Pool::kSpinMax);
  const auto window_close = Clock::now();
  stats_.barrier_seconds +=
      std::chrono::duration<double>(window_close - window_begin).count() -
      std::chrono::duration<double>(exec_end - exec_begin).count();
}

void Simulator::pull_windows(Pool& p, std::uint64_t gen) {
  std::uint64_t v = p.work.load(std::memory_order_acquire);
  for (;;) {
    if ((v >> Pool::kGenShift) != (gen & Pool::kGenMask)) {
      return;  // not this window any more
    }
    // Generation, bound, and index all come from the one word the CAS
    // commits — a stale load can never pass this window's bound check
    // against a newer window's count.
    const std::uint32_t count =
        static_cast<std::uint32_t>((v >> Pool::kCntShift) & Pool::kIdxMask);
    const std::uint32_t i = static_cast<std::uint32_t>(v & Pool::kIdxMask);
    if (i >= count) return;
    if (p.work.compare_exchange_weak(v, v + 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      const std::uint32_t q = p.active[i];
      run_queue_window(q, p.bounds[q], p.cap);
      const std::uint32_t done =
          p.done_count.fetch_add(1, std::memory_order_seq_cst) + 1;
      if (done == count &&
          p.coord_sleeping.load(std::memory_order_seq_cst)) {
        // Pin the coordinator to one side of its predicate re-check, then
        // wake it; only the window's last finisher can flip the predicate,
        // so earlier increments skip the lock entirely.
        { const std::lock_guard<std::mutex> lock(p.m); }
        p.done_cv.notify_one();
      }
      v = p.work.load(std::memory_order_acquire);
    }
    // CAS failure already reloaded v.
  }
}

void Simulator::ensure_pool() {
  if (pool_) return;
  pool_ = std::make_unique<Pool>();
  // The coordinator pulls work alongside the pool, so it counts as one of
  // the `threads_` execution lanes.
  const unsigned extra = std::min(threads_, wired_queue_index()) - 1;
  pool_->workers.reserve(extra);
  for (unsigned w = 0; w < extra; ++w) {
    pool_->workers.emplace_back([this] { worker_loop(); });
  }
}

void Simulator::worker_loop() {
  Pool& p = *pool_;
  std::uint64_t seen = 0;
  std::uint32_t spin_budget = Pool::kSpinInit;
  for (;;) {
    std::uint64_t gen = p.generation.load(std::memory_order_acquire);
    if (gen == seen) {
      // Adaptive spin-then-wait: windows usually follow each other within
      // microseconds, so a short spin avoids the syscall round trip; when
      // wakeups keep arriving via the cv instead (oversubscribed box), the
      // budget collapses so we sleep almost immediately.
      std::uint32_t spins = 0;
      bool slept = false;
      for (;;) {
        if (p.shutdown.load(std::memory_order_acquire)) return;
        gen = p.generation.load(std::memory_order_acquire);
        if (gen != seen) break;
        if (spins < spin_budget) {
          ++spins;
          cpu_relax();
          continue;
        }
        p.sleepers.fetch_add(1, std::memory_order_seq_cst);
        {
          std::unique_lock<std::mutex> lock(p.m);
          p.cv.wait(lock, [&p, seen] {
            return p.shutdown.load(std::memory_order_acquire) ||
                   p.generation.load(std::memory_order_acquire) != seen;
          });
        }
        p.sleepers.fetch_sub(1, std::memory_order_seq_cst);
        slept = true;
      }
      if (slept) {
        p.sleep_wakes.fetch_add(1, std::memory_order_relaxed);
        spin_budget = std::max(spin_budget / 2, Pool::kSpinMin);
      } else {
        p.spin_wakes.fetch_add(1, std::memory_order_relaxed);
        spin_budget = std::min(spin_budget * 2, Pool::kSpinMax);
      }
    }
    seen = gen;
    pull_windows(p, seen);
  }
}

void Simulator::shutdown_pool() {
  if (!pool_) return;
  pool_->shutdown.store(true, std::memory_order_seq_cst);
  { const std::lock_guard<std::mutex> lock(pool_->m); }
  pool_->cv.notify_all();
  for (std::thread& t : pool_->workers) t.join();
  stats_.spin_wakes = pool_->spin_wakes.load(std::memory_order_relaxed);
  stats_.sleep_wakes = pool_->sleep_wakes.load(std::memory_order_relaxed);
  pool_.reset();
}

}  // namespace dmn::sim
