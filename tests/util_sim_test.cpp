// Unit tests: units, RNG, and the discrete-event simulator kernel.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
  // Handle state is pooled: after an event runs, its state slot is recycled
  // and the very next schedule_at typically reuses it. A cancel through the
  // old handle must hit the generation check, not the new event.
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

TEST(Simulator, CancelledEntriesAreReapedWithoutCounting) {
  sim::Simulator sim;
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    auto h = sim.schedule_at(usec(10 + i), [&] { ++ran; });
    if (i % 2 == 0) sim.cancel(h);
  }
  sim.run();
  EXPECT_EQ(ran, 50);
  EXPECT_EQ(sim.events_executed(), 50u);
}

TEST(Simulator, StatePoolSurvivesManyScheduleRunCycles) {
  // Drive many schedule/run/cancel cycles through a single queue so state
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
