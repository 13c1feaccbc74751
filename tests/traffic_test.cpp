// Unit tests: packet queues and their CBR arrival processes (against an
// eager per-packet-event reference), flow statistics (Jain), the wired
// backbone and the simplified TCP Reno.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/simulator.h"
#include "traffic/flow_stats.h"
#include "traffic/queue.h"
#include "traffic/tcp_reno.h"
#include "util/rng.h"
#include "wired/backbone.h"

namespace dmn::traffic {
namespace {

Packet make_packet(PacketId id, topo::NodeId dst = 1) {
  Packet p;
  p.id = id;
  p.flow = 0;
  p.src = 0;
  p.dst = dst;
  return p;
}

TEST(Queue, FifoOrder) {
  PacketQueue q(10);
  q.push(make_packet(1));
  q.push(make_packet(2));
  q.push(make_packet(3));
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 3u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Queue, DropTailAtCapacity) {
  PacketQueue q(2);
  EXPECT_TRUE(q.push(make_packet(1)));
  EXPECT_TRUE(q.push(make_packet(2)));
  EXPECT_FALSE(q.push(make_packet(3)));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(Queue, PerDestinationAccess) {
  PacketQueue q(10);
  q.push(make_packet(1, 7));
  q.push(make_packet(2, 8));
  q.push(make_packet(3, 7));
  EXPECT_EQ(q.count_for(7), 2u);
  EXPECT_EQ(q.front_for(8)->id, 2u);
  EXPECT_EQ(q.pop_for(7)->id, 1u);  // first for that destination
  EXPECT_EQ(q.count_for(7), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.pop_for(99).has_value());
}

/// Per-destination counts are kept incrementally: after every operation of
/// a seeded random mix, count_for must equal a scan of a plain deque that
/// mirrors the queue, and only destinations with packets keep an entry.
TEST(Queue, PerDestinationCountsMatchScanUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    PacketQueue q(12);
    std::deque<Packet> model;
    std::set<topo::NodeId> seen;
    PacketId next_id = 0;
    auto random_dst = [&] {
      return static_cast<topo::NodeId>(rng.uniform_int(0, 5));
    };
    auto model_count = [&](topo::NodeId d) {
      return static_cast<std::size_t>(
          std::count_if(model.begin(), model.end(),
                        [d](const Packet& p) { return p.dst == d; }));
    };
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const topo::NodeId d = random_dst();
      seen.insert(d);
      switch (rng.uniform_int(0, 5)) {
        case 0:
        case 1: {  // push, dropping at capacity
          const Packet p = make_packet(++next_id, d);
          const bool fits = model.size() < q.capacity();
          EXPECT_EQ(q.push(p), fits);
          if (fits) model.push_back(p);
          break;
        }
        case 2: {
          const auto got = q.pop();
          ASSERT_EQ(got.has_value(), !model.empty());
          if (got) {
            EXPECT_EQ(got->id, model.front().id);
            model.pop_front();
          }
          break;
        }
        case 3: {
          const auto got = q.pop_for(d);
          const auto it =
              std::find_if(model.begin(), model.end(),
                           [d](const Packet& p) { return p.dst == d; });
          ASSERT_EQ(got.has_value(), it != model.end());
          if (got) {
            EXPECT_EQ(got->id, it->id);
            model.erase(it);
          }
          break;
        }
        case 4: {  // extract, sometimes keeping an in-flight head
          std::optional<PacketId> exclude;
          if (!model.empty() && rng.chance(0.5)) exclude = model.front().id;
          const std::vector<Packet> got = q.extract_for(d, exclude);
          std::vector<PacketId> want;
          for (auto it = model.begin(); it != model.end();) {
            if (it->dst == d && (!exclude || it->id != *exclude)) {
              want.push_back(it->id);
              it = model.erase(it);
            } else {
              ++it;
            }
          }
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i]);
          }
          break;
        }
        default: {
          const topo::NodeId to = random_dst();
          seen.insert(to);
          std::size_t n = 0;
          for (Packet& p : model) {
            if (p.dst == d) {
              p.dst = to;
              ++n;
            }
          }
          EXPECT_EQ(q.retarget(d, to), n);
          break;
        }
      }
      ASSERT_EQ(q.size(), model.size());
      std::set<topo::NodeId> present;
      for (const Packet& p : model) present.insert(p.dst);
      EXPECT_EQ(q.destinations(), present.size());
      for (const topo::NodeId dst : seen) {
        EXPECT_EQ(q.count_for(dst), model_count(dst)) << "dst " << dst;
      }
    }
  }
}

TEST(FlowStatsTest, SparseFlowIdsReportOnlyRegisteredFlows) {
  FlowStats stats;
  stats.ensure_flow(5);
  Packet p = make_packet(1);
  p.flow = 2;
  p.bytes = 100;
  p.enqueued = usec(100);
  stats.record_delivery(p, usec(300));
  EXPECT_EQ(stats.flows(), (std::vector<FlowId>{2, 5}));
  EXPECT_EQ(stats.delivered(2), 1u);
  EXPECT_EQ(stats.delivered(3), 0u);
  EXPECT_DOUBLE_EQ(stats.mean_delay_us(3), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_delay_us_all(), 200.0);
  EXPECT_DOUBLE_EQ(stats.aggregate_throughput_bps(sec(1)), 800.0);
}

// ---- CBR arrivals -----------------------------------------------------------

/// Records what a queue offers, id-free: ('O' offered | 'R' rejected, flow,
/// creation time). Ids differ between the lazy queue and the reference.
struct OfferLog final : OfferObserver {
  std::vector<std::tuple<char, FlowId, TimeNs>> entries;
  std::map<PacketId, TimeNs> created_of;

  void on_offered(const Packet& p) override {
    entries.emplace_back('O', p.flow, p.created);
    created_of[p.id] = p.created;
  }
  void on_offer_rejected(PacketId id, FlowId flow) override {
    entries.emplace_back('R', flow, created_of.at(id));
  }
};

CbrArrivals cbr(FlowId id, topo::NodeId dst, TimeNs start, TimeNs interval,
                PacketIdGen& ids) {
  CbrArrivals a;
  a.flow = Flow{id, 0, dst};
  a.bytes = 500;
  a.interval = interval;
  a.next = start;
  a.ids = &ids;
  return a;
}

TEST(CbrArrivals, IntervalMatchesRate) {
  // 1 Mbps of 500 B packets = one per 4 ms; 10 Mbps of 512 B = 409.6 us.
  EXPECT_EQ(cbr_interval(1e6, 500), msec(4));
  EXPECT_EQ(cbr_interval(10e6, 512), 409600);
  EXPECT_EQ(cbr_interval(1e18, 512), 1);  // never a zero interval
}

TEST(CbrArrivals, QueueMaterialisesAtConfiguredRate) {
  sim::Simulator sim;
  PacketIdGen ids;
  PacketQueue q(1000, sim);
  q.add_arrivals(cbr(0, 1, 0, cbr_interval(1e6, 500), ids));
  EXPECT_EQ(q.size(), 1u);  // t_0 = 0 is visible at t = 0
  sim.run_until(sec(1));
  // Arrivals at 0, 4 ms, ..., 1 s, and no simulator event for any of them.
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(q.size(), 251u);
  EXPECT_EQ(q.next_arrival(), sec(1) + msec(4));
  const Packet* head = q.front();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->created, 0);
  EXPECT_EQ(head->enqueued, 0);
  EXPECT_EQ(head->bytes, 500u);
}

TEST(CbrArrivals, QueueWithoutArrivalProcessesStaysEmpty) {
  // A zero-rate flow attaches no arrival process: nothing is ever
  // materialised, and a queue without a clock takes no process at all.
  sim::Simulator sim;
  PacketQueue q(10, sim);
  sim.run_until(sec(1));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_arrival(), kTimeNever);
  PacketIdGen ids;
  PacketQueue clockless(10);
  EXPECT_THROW(clockless.add_arrivals(cbr(0, 1, 0, usec(10), ids)),
               std::logic_error);
}

TEST(CbrArrivals, AbsentClientOffersNothingAndResumesOnItsLattice) {
  sim::Simulator sim;
  PacketIdGen ids;
  OfferLog log;
  PacketQueue q(1000, sim);
  CbrArrivals a = cbr(0, 1, usec(50), usec(100), ids);
  a.active = false;  // the client starts absent
  a.observer = &log;
  q.add_arrivals(a);
  EXPECT_EQ(q.next_arrival(), kTimeNever);
  sim.post_at(msec(1), [&] {
    // Join at 1 ms: the arrivals while absent are skipped, never offered.
    CbrArrivals b = *q.take_arrivals(0);
    EXPECT_EQ(b.next, usec(1050));
    b.active = true;
    q.add_arrivals(b);
  });
  sim.post_at(msec(2), [&] {
    // Leave at 2 ms: arrivals up to the leave were offered.
    EXPECT_EQ(q.size(), 10u);  // 1.05 ms, 1.15 ms, ..., 1.95 ms
    CbrArrivals b = *q.take_arrivals(0);
    b.active = false;
    q.add_arrivals(b);
  });
  sim.run_until(msec(5));
  q.settle();
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(log.entries.size(), 10u);
  EXPECT_EQ(std::get<2>(log.entries.front()), usec(1050));
  EXPECT_FALSE(q.take_arrivals(7).has_value());
}

/// Id-free identity of a queued packet.
std::tuple<FlowId, topo::NodeId, topo::NodeId, TimeNs, TimeNs, std::size_t>
key(const Packet& p) {
  return {p.flow, p.src, p.dst, p.created, p.enqueued, p.bytes};
}

/// The per-packet-event model the lazy queue replaces: one simulator event
/// per arrival offering a packet to a clockless queue when it fires, gated
/// by the flow's live state like the facade's old source callback. Every
/// arrival event is posted before any read, in (time, flow id) order, so a
/// read at t sees every arrival at t.
struct EagerReference {
  struct FlowState {
    CbrArrivals spec;
    bool active;
    topo::NodeId dst;
  };
  PacketQueue q;
  PacketIdGen ids{PacketId{1} << 40};
  OfferLog log;
  std::vector<FlowState> flows;

  EagerReference(sim::Simulator& sim, std::size_t capacity,
                 const std::vector<CbrArrivals>& specs, TimeNs horizon)
      : q(capacity) {
    std::vector<std::pair<TimeNs, std::size_t>> arrivals;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      flows.push_back({specs[i], specs[i].active, specs[i].flow.dst});
      for (TimeNs t = specs[i].next; t <= horizon; t += specs[i].interval) {
        arrivals.emplace_back(t, i);
      }
    }
    std::sort(arrivals.begin(), arrivals.end());
    for (const auto& [t, i] : arrivals) {
      sim.post_at(t, [this, t = t, i = i] { arrive(i, t); });
    }
  }

  void arrive(std::size_t i, TimeNs t) {
    const FlowState& f = flows[i];
    if (!f.active) return;
    Packet p;
    p.id = ids.next();
    p.flow = f.spec.flow.id;
    p.src = f.spec.flow.src;
    p.dst = f.dst;
    p.bytes = f.spec.bytes;
    p.created = t;
    p.enqueued = t;
    log.on_offered(p);
    const PacketId id = p.id;
    if (!q.push(std::move(p))) log.on_offer_rejected(id, f.spec.flow.id);
  }
};

/// Differential oracle: random CBR flows (shared phases and intervals make
/// same-tick ties), capacities, pushes, pops, pop_for / extract_for /
/// retarget, joins and leaves, destination changes and reads landing
/// exactly on arrival ticks. The lazy queue must match the eager reference
/// on every read, in its drop count and offer order, and after the horizon
/// flush in its contents.
TEST(CbrArrivals, LazyQueueMatchesEagerPerPacketEvents) {
  const TimeNs horizon = msec(8);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::Simulator sim;
    PacketIdGen lazy_ids;
    OfferLog lazy_log;
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 12));
    PacketQueue lazy(capacity, sim);

    const TimeNs intervals[] = {usec(40), usec(55), usec(80), usec(130)};
    const TimeNs starts[] = {0, usec(7), usec(25), usec(120)};
    std::vector<CbrArrivals> specs;
    const int n_flows = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < n_flows; ++i) {
      CbrArrivals a = cbr(
          i, static_cast<topo::NodeId>(rng.uniform_int(1, 3)),
          starts[rng.uniform_int(0, 3)], intervals[rng.uniform_int(0, 3)],
          lazy_ids);
      a.active = rng.chance(0.85);
      a.observer = &lazy_log;
      specs.push_back(a);
    }
    EagerReference ref(sim, capacity, specs, horizon);
    for (const CbrArrivals& a : specs) lazy.add_arrivals(a);

    // Operation times: half land exactly on some flow's arrival tick.
    std::vector<TimeNs> times;
    for (int k = 0; k < 80; ++k) {
      if (rng.chance(0.5)) {
        const CbrArrivals& a =
            specs[static_cast<std::size_t>(rng.uniform_int(0, n_flows - 1))];
        times.push_back(a.next + a.interval * static_cast<TimeNs>(
                                                  rng.uniform_int(0, 150)));
      } else {
        times.push_back(static_cast<TimeNs>(
            rng.uniform(0.0, static_cast<double>(horizon))));
      }
    }
    std::sort(times.begin(), times.end());
    PacketId pushed = 0;
    for (const TimeNs t : times) {
      if (t > horizon) continue;
      const int op = static_cast<int>(rng.uniform_int(0, 8));
      const auto dst = static_cast<topo::NodeId>(rng.uniform_int(1, 3));
      const auto to = static_cast<topo::NodeId>(rng.uniform_int(1, 3));
      const auto flow = static_cast<std::size_t>(
          rng.uniform_int(0, n_flows - 1));
      const PacketId tcp_id = ++pushed;
      sim.post_at(t, [&, t, op, dst, to, flow, tcp_id] {
        SCOPED_TRACE("op " + std::to_string(op) + " at " +
                     std::to_string(t));
        switch (op) {
          case 0: {
            const auto a = lazy.pop();
            const auto b = ref.q.pop();
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
              EXPECT_EQ(key(*a), key(*b));
            }
            break;
          }
          case 1: {
            const auto a = lazy.pop_for(dst);
            const auto b = ref.q.pop_for(dst);
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
              EXPECT_EQ(key(*a), key(*b));
            }
            break;
          }
          case 2: {
            // Keep the head (an in-flight packet) half of the time.
            const Packet* ha = lazy.front();
            const Packet* hb = ref.q.front();
            ASSERT_EQ(ha == nullptr, hb == nullptr);
            const bool keep = ha != nullptr && rng.chance(0.5);
            const auto a = lazy.extract_for(
                dst, keep ? std::optional<PacketId>(ha->id) : std::nullopt);
            const auto b = ref.q.extract_for(
                dst, keep ? std::optional<PacketId>(hb->id) : std::nullopt);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
              EXPECT_EQ(key(a[i]), key(b[i]));
            }
            break;
          }
          case 3: {  // a direct push (TCP segment, hand-off)
            Packet p = make_packet(tcp_id, dst);
            p.flow = 99;
            p.created = t;
            p.enqueued = t;
            EXPECT_EQ(lazy.push(p), ref.q.push(p));
            break;
          }
          case 4:
            EXPECT_EQ(lazy.retarget(dst, to), ref.q.retarget(dst, to));
            break;
          case 5: {  // the flow's client leaves or (re)joins
            CbrArrivals a = *lazy.take_arrivals(specs[flow].flow.id);
            a.active = !a.active;
            lazy.add_arrivals(a);
            ref.flows[flow].active = !ref.flows[flow].active;
            break;
          }
          case 6: {  // an uplink flow follows its client to a new AP
            CbrArrivals a = *lazy.take_arrivals(specs[flow].flow.id);
            a.flow.dst = to;
            lazy.add_arrivals(a);
            ref.flows[flow].dst = to;
            break;
          }
          default: {  // reads only
            EXPECT_EQ(lazy.count_for(dst), ref.q.count_for(dst));
            const Packet* ha = lazy.front_for(dst);
            const Packet* hb = ref.q.front_for(dst);
            ASSERT_EQ(ha == nullptr, hb == nullptr);
            if (ha) {
              EXPECT_EQ(key(*ha), key(*hb));
            }
            break;
          }
        }
        EXPECT_EQ(lazy.size(), ref.q.size());
        EXPECT_EQ(lazy.dropped(), ref.q.dropped());
      });
    }
    sim.run_until(horizon);

    // Offers are observed in arrival order, but only once materialised:
    // before the horizon flush the lazy log is a prefix of the reference.
    ASSERT_LE(lazy_log.entries.size(), ref.log.entries.size());
    EXPECT_TRUE(std::equal(lazy_log.entries.begin(), lazy_log.entries.end(),
                           ref.log.entries.begin()));
    lazy.settle();  // the horizon flush
    EXPECT_EQ(lazy_log.entries, ref.log.entries);
    EXPECT_EQ(lazy.dropped(), ref.q.dropped());
    ASSERT_EQ(lazy.size(), ref.q.size());
    while (auto b = ref.q.pop()) EXPECT_EQ(key(*lazy.pop()), key(*b));
  }
}

TEST(FlowStatsTest, ThroughputAndDelay) {
  FlowStats stats;
  Packet p = make_packet(1);
  p.flow = 3;
  p.bytes = 1000;
  p.enqueued = usec(100);
  stats.record_delivery(p, usec(600));
  p.id = 2;
  p.enqueued = usec(200);
  stats.record_delivery(p, usec(900));
  EXPECT_EQ(stats.delivered(3), 2u);
  EXPECT_DOUBLE_EQ(stats.throughput_bps(3, sec(1)), 16000.0);
  EXPECT_DOUBLE_EQ(stats.mean_delay_us(3), 600.0);  // (500+700)/2
}

TEST(FlowStatsTest, JainIndex) {
  const std::vector<double> fair = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(FlowStats::jain_index(fair), 1.0);
  const std::vector<double> unfair = {10.0, 0.0, 0.0};
  EXPECT_NEAR(FlowStats::jain_index(unfair), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(FlowStats::jain_index({}), 1.0);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(FlowStats::jain_index(zeros), 1.0);
}

TEST(BackboneTest, LatencyDistribution) {
  sim::Simulator sim;
  wired::BackboneParams bp;  // mean 285us sigma 22us
  wired::Backbone bb(sim, bp, {0}, Rng(17));
  double sum = 0.0, sq = 0.0;
  const int n = 5000;
  int delivered = 0;
  for (int i = 0; i < n; ++i) {
    // Sent at 0, so each delivery time is one latency sample.
    bb.send_to_node(0, [&] {
      const double s = to_usec(sim.now());
      sum += s;
      sq += s * s;
      ++delivered;
    });
  }
  sim.run();
  ASSERT_EQ(delivered, n);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 285.0, 2.0);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 22.0, 2.0);
}

TEST(BackboneTest, DeliversAfterLatencyInBothDirections) {
  sim::Simulator sim;
  wired::Backbone bb(sim, {}, {0}, Rng(18));
  TimeNs to_ap = kTimeNever;
  TimeNs to_wired = kTimeNever;
  bb.send_to_node(0, [&] { to_ap = sim.now(); });
  bb.send_to_wired(0, [&] { to_wired = sim.now(); });
  sim.run();
  for (const TimeNs at : {to_ap, to_wired}) {
    EXPECT_GT(at, usec(100));
    EXPECT_LT(at, usec(500));
  }
  EXPECT_THROW(bb.send_to_node(1, [] {}), std::invalid_argument);
}

/// Each AP endpoint draws from its own streams: one AP's latencies do not
/// depend on how many messages another AP exchanged before it.
TEST(BackboneTest, EachApEndpointHasItsOwnStreams) {
  auto first_latency = [](int other_messages, bool to_ap) {
    sim::Simulator sim;
    wired::Backbone bb(sim, {}, {4, 1}, Rng(19));
    for (int i = 0; i < other_messages; ++i) {
      bb.send_to_node(1, [] {});
      bb.send_to_wired(1, [] {});
    }
    TimeNs at = kTimeNever;
    if (to_ap) {
      bb.send_to_node(4, [&] { at = sim.now(); });
    } else {
      bb.send_to_wired(4, [&] { at = sim.now(); });
    }
    sim.run();
    return at;
  };
  for (const bool to_ap : {true, false}) {
    EXPECT_EQ(first_latency(0, to_ap), first_latency(7, to_ap));
  }
  EXPECT_NE(first_latency(0, true), first_latency(0, false));
}

// ---- TCP Reno --------------------------------------------------------------

/// Loopback harness: sender's segments reach the receiver after `latency`,
/// with an optional per-packet drop pattern.
struct TcpHarness {
  sim::Simulator sim;
  PacketIdGen ids;
  TcpParams params;
  std::vector<Packet> delivered;
  std::function<bool(const Packet&)> drop = [](const Packet&) {
    return false;
  };
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
  TimeNs latency = msec(2);

  explicit TcpHarness(double app_rate = 0.0) {
    params.app_rate_bps = app_rate;
    Flow flow{0, 0, 1};
    receiver = std::make_unique<TcpReceiver>(
        flow, params, ids,
        [this](Packet ack) {
          sim.schedule_in(latency, [this, ack] { sender->on_ack(ack); });
          return true;
        },
        [this](const Packet& p) { delivered.push_back(p); });
    sender = std::make_unique<TcpSender>(
        sim, flow, params, ids, [this](Packet p) {
          if (drop(p)) return true;  // silently lost in flight
          sim.schedule_in(latency, [this, p] {
            receiver->on_data(p, sim.now());
          });
          return true;
        });
  }
};

TEST(TcpReno, DeliversInOrderWhenClean) {
  TcpHarness h;
  h.sender->start(0);
  h.sim.run_until(msec(500));
  EXPECT_GT(h.delivered.size(), 100u);
  for (std::size_t i = 0; i < h.delivered.size(); ++i) {
    EXPECT_EQ(h.delivered[i].tcp_seq, i);
  }
  EXPECT_EQ(h.sender->retransmits(), 0u);
}

TEST(TcpReno, SlowStartGrowsWindow) {
  TcpHarness h;
  h.sender->start(0);
  h.sim.run_until(msec(30));
  EXPECT_GT(h.sender->cwnd(), h.params.initial_cwnd);
}

TEST(TcpReno, FastRetransmitRecoversSingleLoss) {
  TcpHarness h;
  bool dropped = false;
  h.drop = [&](const Packet& p) {
    if (p.tcp_seq == 20 && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  h.sender->start(0);
  h.sim.run_until(msec(500));
  EXPECT_EQ(h.sender->retransmits(), 1u);
  EXPECT_GT(h.delivered.size(), 100u);
  EXPECT_EQ(h.sender->timeouts(), 0u)
      << "triple-dupack must recover without RTO";
  // Everything ultimately delivered exactly once (arrival order may put
  // the retransmitted segment after its successors).
  std::set<std::uint64_t> seqs;
  for (const auto& p : h.delivered) {
    EXPECT_TRUE(seqs.insert(p.tcp_seq).second) << "duplicate delivery";
  }
  for (std::uint64_t s = 0; s < h.delivered.size(); ++s) {
    EXPECT_TRUE(seqs.count(s)) << "hole at " << s;
  }
}

TEST(TcpReno, LossHalvesWindow) {
  TcpHarness h;
  double cwnd_before = 0.0;
  bool dropped = false;
  h.drop = [&](const Packet& p) {
    if (p.tcp_seq == 40 && !dropped) {
      dropped = true;
      cwnd_before = h.sender->cwnd();
      return true;
    }
    return false;
  };
  h.sender->start(0);
  h.sim.run_until(msec(200));
  ASSERT_TRUE(dropped);
  EXPECT_LT(h.sender->ssthresh(), cwnd_before);
}

TEST(TcpReno, RtoRecoversBurstLoss) {
  TcpHarness h;
  std::set<std::uint64_t> dropped_once;
  h.drop = [&](const Packet& p) {
    // Drop the FIRST transmission of a whole window's worth, forcing a
    // timeout; retransmissions get through.
    if (p.tcp_seq >= 10 && p.tcp_seq < 30 &&
        dropped_once.insert(p.tcp_seq).second) {
      return true;
    }
    return false;
  };
  h.sender->start(0);
  h.sim.run_until(sec(3));
  EXPECT_GT(h.sender->timeouts(), 0u);
  EXPECT_GT(h.delivered.size(), 50u) << "flow must recover after RTO";
  std::set<std::uint64_t> seqs;
  for (const auto& p : h.delivered) {
    EXPECT_TRUE(seqs.insert(p.tcp_seq).second) << "duplicate delivery";
  }
  for (std::uint64_t s = 0; s < h.delivered.size(); ++s) {
    EXPECT_TRUE(seqs.count(s)) << "hole at " << s;
  }
}

TEST(TcpReno, AppLimitedRate) {
  TcpHarness h(1e6);  // 1 Mbps application rate, 512B MSS
  h.sender->start(0);
  h.sim.run_until(sec(1));
  // ~244 packets/s at 1 Mbps; TCP must track the app, not the window.
  EXPECT_NEAR(static_cast<double>(h.delivered.size()), 244.0, 10.0);
}

TEST(TcpReno, AckPacketsAreSmallAndMarked) {
  TcpHarness h;
  Packet seen_ack;
  bool got = false;
  Flow flow{0, 0, 1};
  TcpReceiver rx(
      flow, h.params, h.ids,
      [&](Packet ack) {
        seen_ack = ack;
        got = true;
        return true;
      },
      [](const Packet&) {});
  Packet d = make_packet(5);
  d.tcp_seq = 0;
  rx.on_data(d, usec(10));
  ASSERT_TRUE(got);
  EXPECT_TRUE(seen_ack.tcp_is_ack);
  EXPECT_EQ(seen_ack.tcp_ack_no, 1u);
  EXPECT_EQ(seen_ack.bytes, h.params.ack_bytes);
  EXPECT_EQ(seen_ack.src, 1);
  EXPECT_EQ(seen_ack.dst, 0);
}

TEST(TcpReno, ReceiverReordersOutOfOrder) {
  TcpParams params;
  PacketIdGen ids;
  std::vector<std::uint64_t> acks;
  Flow flow{0, 0, 1};
  TcpReceiver rx(
      flow, params, ids,
      [&](Packet ack) {
        acks.push_back(ack.tcp_ack_no);
        return true;
      },
      [](const Packet&) {});
  Packet p = make_packet(1);
  p.tcp_seq = 1;  // gap: 0 missing
  rx.on_data(p, 0);
  EXPECT_EQ(acks.back(), 0u);  // dup-ack for the hole
  p.tcp_seq = 0;
  rx.on_data(p, 0);
  EXPECT_EQ(acks.back(), 2u);  // cumulative jump over the buffered segment
}

}  // namespace
}  // namespace dmn::traffic
