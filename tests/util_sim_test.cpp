// Unit tests: units, RNG, and the discrete-event simulator kernel.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace dmn {
namespace {

TEST(Units, DbmMwRoundTrip) {
  for (double dbm : {-94.0, -55.0, 0.0, 20.0}) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-9);
  }
}

TEST(Units, KnownValues) {
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(10.0), 10.0, 1e-9);
  EXPECT_NEAR(dbm_to_mw(-30.0), 1e-3, 1e-12);
  EXPECT_NEAR(db_to_ratio(3.0103), 2.0, 1e-3);
  EXPECT_NEAR(ratio_to_db(100.0), 20.0, 1e-9);
}

TEST(Units, ZeroPowerIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(mw_to_dbm(0.0)));
  EXPECT_LT(mw_to_dbm(0.0), 0.0);
}

TEST(Time, Conversions) {
  EXPECT_EQ(usec(9), 9000);
  EXPECT_EQ(msec(1), 1000000);
  EXPECT_EQ(sec(1), 1000000000);
  EXPECT_DOUBLE_EQ(to_usec(usec(6.35)), 6.35);
  EXPECT_DOUBLE_EQ(to_sec(sec(50)), 50.0);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r(7);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    lo = lo || x == 0;
    hi = hi || x == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NormalMoments) {
  Rng r(9);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(285.0, 22.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 285.0, 1.0);
  EXPECT_NEAR(std::sqrt(var), 22.0, 1.0);
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child stream must not replay the parent stream.
  Rng parent2(5);
  (void)parent2.engine()();  // consumed by fork
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.uniform() == parent.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(usec(30), [&] { order.push_back(3); });
  sim.schedule_at(usec(10), [&] { order.push_back(1); });
  sim.schedule_at(usec(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, FifoWithinSameTick) {
  sim::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(usec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvances) {
  sim::Simulator sim;
  TimeNs seen = -1;
  sim.schedule_at(usec(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, usec(42));
}

TEST(Simulator, CancelPreventsExecution) {
  sim::Simulator sim;
  bool ran = false;
  auto h = sim.schedule_at(usec(10), [&] { ran = true; });
  sim.cancel(h);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  sim::Simulator sim;
  int count = 0;
  sim.schedule_at(usec(10), [&] { ++count; });
  sim.schedule_at(usec(20), [&] { ++count; });
  sim.schedule_at(usec(30), [&] { ++count; });
  sim.run_until(usec(20));
  EXPECT_EQ(count, 2);  // the 30us event must not run
  EXPECT_EQ(sim.now(), usec(20));
}

TEST(Simulator, EventsScheduleMoreEvents) {
  sim::Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(usec(1), chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), usec(4));
}

TEST(Simulator, StopHaltsLoop) {
  sim::Simulator sim;
  int count = 0;
  sim.schedule_at(usec(1), [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(usec(2), [&] { ++count; });
  sim.run_until(usec(10));
  EXPECT_EQ(count, 1);
}

TEST(Simulator, HandlePendingLifecycle) {
  sim::Simulator sim;
  auto h = sim.schedule_at(usec(1), [] {});
  EXPECT_TRUE(h.pending());
  sim.run();
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, StaleHandleCannotCancelRecycledState) {
  // After an event runs, its slab slot is recycled and the very next
  // schedule_at typically reuses it. A cancel through the old handle must
  // hit the slot's generation check, not the new event.
  sim::Simulator sim;
  bool first = false;
  bool second = false;
  auto h1 = sim.schedule_at(usec(1), [&] { first = true; });
  sim.run_until(usec(2));
  EXPECT_TRUE(first);
  EXPECT_FALSE(h1.pending());
  auto h2 = sim.schedule_at(usec(3), [&] { second = true; });
  sim.cancel(h1);  // stale: must be a no-op
  EXPECT_TRUE(h2.pending());
  sim.run_until(usec(4));
  EXPECT_TRUE(second);
  EXPECT_FALSE(h2.pending());
}

TEST(Simulator, CancelledEventsLeaveTheQueueAtOnce) {
  sim::Simulator sim;
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    auto h = sim.schedule_at(usec(10 + i), [&] { ++ran; });
    if (i % 2 == 0) sim.cancel(h);
  }
  sim.run();
  EXPECT_EQ(ran, 50);
  EXPECT_EQ(sim.events_executed(), 50u);

  // The same through one queue: a cancel removes the event's key at once,
  // so the next event time is always live and cancelling everything
  // empties the queue before anything runs.
  sim::EventQueue q(0);
  std::vector<sim::EventHandle> hs;
  for (int i = 0; i < 100; ++i) {
    hs.push_back(q.schedule(usec(10 + i), [&] { ++ran; }));
  }
  for (int i = 0; i < 100; i += 2) sim::EventQueue::cancel(hs[i]);
  EXPECT_EQ(q.size(), 50u);
  EXPECT_EQ(q.next_time(), usec(11));
  for (int i = 1; i < 100; i += 2) sim::EventQueue::cancel(hs[i]);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), sim::kTimeNever);
  EXPECT_EQ(q.run_window(sim::kTimeNever, ~std::uint64_t{0}, nullptr), 0u);
  EXPECT_EQ(ran, 50);
}

TEST(Simulator, CancelRemovesTheTopTheLastAndAMiddleKey) {
  // Keys scheduled in ascending time into an empty heap stay where they
  // land, so the newest sits in the heap's last position and the oldest at
  // its top; each cancel must leave exactly the other events, in order.
  sim::EventQueue q(0);
  std::vector<int> order;
  std::vector<sim::EventHandle> hs;
  for (int i = 0; i < 9; ++i) {
    hs.push_back(q.schedule(usec(i), [&order, i] { order.push_back(i); }));
  }
  sim::EventQueue::cancel(hs[8]);  // the last key
  EXPECT_EQ(q.size(), 8u);
  sim::EventQueue::cancel(hs[0]);  // the top key
  EXPECT_EQ(q.next_time(), usec(1));
  sim::EventQueue::cancel(hs[4]);  // a middle key
  sim::EventQueue::cancel(hs[4]);  // twice: a no-op
  EXPECT_EQ(q.size(), 6u);
  q.run_window(sim::kTimeNever, ~std::uint64_t{0}, nullptr);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 6, 7}));
  for (const sim::EventHandle& h : hs) EXPECT_FALSE(h.pending());
}

TEST(Simulator, CrossQueueCancelIsAContractViolation) {
  // A cancel edits the owning queue's heap, which may be running on another
  // thread: debug builds stop a cancel issued from any other queue. (Here
  // nothing runs, so a release build's removal is still safe.)
  sim::Simulator sim;
  sim.configure_partitions({0, 1}, 2, 1);
  sim::EventHandle h;
  {
    const sim::Simulator::Scope scope(sim, 1);
    h = sim.schedule_at(usec(5), [] {});
  }
  EXPECT_DEBUG_DEATH(sim.cancel(h), "another queue");
}

TEST(Simulator, TieWordOverflowIsLoud) {
  sim::EventQueue q(0);
  bool ran = false;
  // The largest sequence and lane that fit their packed fields.
  q.inbox_put({usec(1), 0, (std::uint64_t{1} << 48) - 1, [&] { ran = true; }});
  q.inbox_put({usec(2), 0xfffe, 0, [] {}});
  q.drain_inbox();
  EXPECT_EQ(q.size(), 2u);
  q.inbox_put({usec(3), 0, std::uint64_t{1} << 48, [] {}});
  EXPECT_THROW(q.drain_inbox(), std::logic_error);
  sim::EventQueue lanes(1);
  lanes.inbox_put({usec(3), 0xffff, 0, [] {}});  // lane 1 + src = 1 << 16
  EXPECT_THROW(lanes.drain_inbox(), std::logic_error);
  q.run_window(usec(1), ~std::uint64_t{0}, nullptr);
  EXPECT_TRUE(ran);
}

// Differential oracle for the event kernel. Random schedule / post /
// cancel sequences and cross-queue messages (inbox_put + drain_inbox) drive
// one EventQueue and, in lockstep, a reference std::map keyed by the
// documented order (at, lane, seq). Callbacks themselves schedule, post and
// cancel. Cancels hit the earliest live key, the newest event (which sits
// in the heap's last position unless it sifted up), random middle keys, and
// stale handles whose slots were already reused. Every executed event must
// be the reference's earliest, and after every operation the queue must
// hold exactly the live events, with next_time() the earliest of them.
class KernelOracle {
 public:
  explicit KernelOracle(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const std::int64_t op = rng_.uniform_int(0, 9);
      if (op <= 2) {
        add_local(true);
      } else if (op == 3) {
        add_local(false);
      } else if (op <= 5) {
        cancel_some();
      } else if (op == 6) {
        cancel_stale();
      } else if (op == 7) {
        cross();
      } else {
        run_some();
      }
      check();
    }
    q_.run_window(sim::kTimeNever, ~std::uint64_t{0}, nullptr);
    check();
    EXPECT_TRUE(ref_.empty());
    EXPECT_GT(executed_, 0u);
    EXPECT_GT(cancelled_, 0u);
  }

 private:
  using RefKey = std::tuple<TimeNs, std::uint64_t, std::uint64_t>;

  TimeNs draw_at() {
    // Narrow spread: many same-tick ties, decided by (lane, seq).
    return q_.now() + rng_.uniform_int(0, 40);
  }

  int track(RefKey key, sim::EventHandle h, bool cancellable) {
    const int id = static_cast<int>(key_of_.size());
    key_of_.push_back(key);
    handle_of_.push_back(h);
    cancellable_.push_back(cancellable);
    ref_.emplace(key, id);
    return id;
  }

  sim::EventFn body(int id) {
    return [this, id] { on_run(id); };
  }

  void add_local(bool cancellable) {
    const TimeNs at = draw_at();
    const RefKey key{at, 0, local_seq_++};
    const int id = static_cast<int>(key_of_.size());
    if (cancellable) {
      sim::EventHandle h = q_.schedule(at, body(id));
      track(key, h, true);
      newest_ = id;
    } else {
      q_.push(at, body(id));
      track(key, sim::EventHandle{}, false);
    }
  }

  void cancel_id(int id) {
    sim::EventHandle& h = handle_of_[static_cast<std::size_t>(id)];
    ASSERT_TRUE(h.pending());
    sim::EventQueue::cancel(h);
    EXPECT_FALSE(h.pending());
    ref_.erase(key_of_[static_cast<std::size_t>(id)]);
    dead_.push_back(h);
    ++cancelled_;
  }

  void cancel_some() {
    if (ref_.empty()) return;
    const std::int64_t which = rng_.uniform_int(0, 2);
    if (which == 0) {
      // The earliest live key, when it is cancellable: the heap's top.
      const int id = ref_.begin()->second;
      if (handle_of_[static_cast<std::size_t>(id)].pending()) cancel_id(id);
    } else if (which == 1) {
      if (newest_ >= 0 &&
          handle_of_[static_cast<std::size_t>(newest_)].pending()) {
        cancel_id(newest_);
      }
    } else {
      auto it = ref_.begin();
      std::advance(it, rng_.uniform_int(0, static_cast<std::int64_t>(
                                               ref_.size() - 1)));
      if (handle_of_[static_cast<std::size_t>(it->second)].pending()) {
        cancel_id(it->second);
      }
    }
  }

  void cancel_stale() {
    if (dead_.empty()) return;
    sim::EventHandle h = dead_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(dead_.size() - 1)))];
    const std::size_t before = q_.size();
    EXPECT_FALSE(h.pending());
    sim::EventQueue::cancel(h);  // its slot may hold a newer event now
    EXPECT_EQ(q_.size(), before);
  }

  void cross() {
    // Sends from three sources, stamped out of key order; the drain must
    // file each under (at, 1 + src, seq) whatever the arrival order.
    const std::int64_t n = rng_.uniform_int(1, 4);
    for (std::int64_t k = 0; k < n; ++k) {
      const auto src = static_cast<std::uint32_t>(rng_.uniform_int(1, 3));
      const std::uint64_t seq = cross_seq_[src]++;
      const TimeNs at = draw_at();
      const int id = track(RefKey{at, 1 + src, seq}, sim::EventHandle{}, false);
      q_.inbox_put({at, src, seq, body(id)});
    }
    q_.drain_inbox();
  }

  void run_some() {
    const TimeNs last = q_.now() + rng_.uniform_int(0, 30);
    const auto cap = static_cast<std::uint64_t>(rng_.uniform_int(1, 8));
    const std::uint64_t before = executed_;
    const std::uint64_t ran = q_.run_window(last, cap, nullptr);
    EXPECT_EQ(ran, executed_ - before);
    EXPECT_LE(ran, cap);
  }

  void on_run(int id) {
    ASSERT_FALSE(ref_.empty());
    EXPECT_EQ(ref_.begin()->second, id) << "out of (at, lane, seq) order";
    EXPECT_EQ(q_.now(), std::get<0>(ref_.begin()->first));
    ref_.erase(ref_.begin());
    ++executed_;
    sim::EventHandle& self = handle_of_[static_cast<std::size_t>(id)];
    EXPECT_FALSE(self.pending());
    if (cancellable_[static_cast<std::size_t>(id)]) dead_.push_back(self);
    // From inside the callback: cancel itself (a no-op), cancel others,
    // and schedule or post more work.
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        sim::EventQueue::cancel(self);
        break;
      case 1:
        cancel_some();
        break;
      case 2:
        add_local(true);
        break;
      case 3:
        add_local(false);
        break;
      default:
        break;
    }
  }

  void check() {
    EXPECT_EQ(q_.size(), ref_.size());
    EXPECT_EQ(q_.empty(), ref_.empty());
    EXPECT_EQ(q_.next_time(), ref_.empty()
                                  ? sim::kTimeNever
                                  : std::get<0>(ref_.begin()->first));
    for (const auto& entry : ref_) {
      const auto i = static_cast<std::size_t>(entry.second);
      if (cancellable_[i]) {
        EXPECT_TRUE(handle_of_[i].pending());
      }
    }
  }

  Rng rng_;
  sim::EventQueue q_{0};
  std::map<RefKey, int> ref_;  // live events -> id
  std::vector<RefKey> key_of_;
  std::vector<sim::EventHandle> handle_of_;  // default for handle-free events
  std::vector<bool> cancellable_;
  std::vector<sim::EventHandle> dead_;       // ran or cancelled
  std::uint64_t local_seq_ = 0;
  std::uint64_t cross_seq_[4] = {};
  int newest_ = -1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

TEST(Simulator, KernelMatchesReferenceOrderedSet) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    KernelOracle(seed).run(4000);
  }
}

TEST(Simulator, StatePoolSurvivesManyScheduleRunCycles) {
  // Drive many schedule/run/cancel cycles through a single queue so slab
  // slots are recycled over and over; handle semantics must hold at every
  // generation, including cancels through long-stale handles.
  sim::Simulator sim;
  sim::EventHandle stale;
  std::uint64_t ran = 0;
  for (int i = 0; i < 1000; ++i) {
    auto h = sim.schedule_at(sim.now() + usec(1), [&] { ++ran; });
    EXPECT_TRUE(h.pending());
    if (i == 0) stale = h;
    if (i > 0) sim.cancel(stale);  // long-stale handle: must stay a no-op
    sim.run_until(sim.now() + usec(1));
    EXPECT_FALSE(h.pending());
  }
  EXPECT_EQ(ran, 1000u);
  EXPECT_EQ(sim.events_executed(), 1000u);
}

// Self-rescheduling event chains, the event loop's churn workload: 64
// chains with 40-byte captures run to a 5 ms horizon, each event folding
// its payload into an order-sensitive checksum (so a same-tick reorder
// shows, not only a lost or extra event). The three ways of scheduling the
// same chains must agree with each other and with the pinned pair:
// cancellable events through schedule_in, handle-free events through
// post_in, and post_in with a capture padded past EventFn's inline buffer
// (the heap fallback).
enum class ChainPath { kHandle, kPost, kHeapFallback };

struct ChainRun {
  struct Payload {
    std::uint64_t a, b, c;
  };
  /// The heap-fallback callable: the same capture plus padding.
  struct Padded {
    ChainRun* run;
    TimeNs step;
    Payload p;
    unsigned char pad[sim::EventFn::kInlineCapacity] = {};
    void operator()() { run->tick(step, p); }
  };
  static_assert(sizeof(Padded) > sim::EventFn::kInlineCapacity);

  ChainRun(ChainPath path, TimeNs horizon) : path(path), horizon(horizon) {}

  sim::Simulator sim;
  ChainPath path;
  TimeNs horizon;
  std::uint64_t checksum = 0;

  void schedule(TimeNs delay, TimeNs step, Payload p) {
    switch (path) {
      case ChainPath::kHandle:
        sim.schedule_in(delay, [this, step, p] { tick(step, p); });
        break;
      case ChainPath::kPost:
        sim.post_in(delay, [this, step, p] { tick(step, p); });
        break;
      case ChainPath::kHeapFallback:
        sim.post_in(delay, Padded{this, step, p});
        break;
    }
  }

  void tick(TimeNs step, Payload p) {
    checksum = checksum * 1099511628211ULL + (p.a ^ (p.b << 1) ^ (p.c << 2));
    if (sim.now() + step <= horizon) {
      schedule(step, step, Payload{p.a + 1, p.b + 3, p.c + 5});
    }
  }

  std::pair<std::uint64_t, std::uint64_t> run(int chains) {
    for (int c = 0; c < chains; ++c) {
      schedule(c % 13, 997 + (c % 7) * 101,
               Payload{static_cast<std::uint64_t>(c), 2, 3});
    }
    sim.run();
    return {sim.events_executed(), checksum};
  }
};

TEST(Simulator, HandleFreeAndHeapFallbackPathsAgree) {
  const std::pair<std::uint64_t, std::uint64_t> pinned{253470,
                                                       8689350023374965893ULL};
  for (const ChainPath path :
       {ChainPath::kHandle, ChainPath::kPost, ChainPath::kHeapFallback}) {
    ChainRun run(path, 5'000'000);
    EXPECT_EQ(run.run(64), pinned) << "path " << static_cast<int>(path);
  }
}

}  // namespace
}  // namespace dmn
