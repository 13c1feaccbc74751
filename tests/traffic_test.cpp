// Unit tests: packet queues, UDP sources, flow statistics (Jain), the
// wired backbone and the simplified TCP Reno.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "traffic/flow_stats.h"
#include "traffic/queue.h"
#include "traffic/tcp_reno.h"
#include "traffic/udp_source.h"
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
  stats.record_offered(2);
  EXPECT_EQ(stats.flows(), (std::vector<FlowId>{2, 5}));
  EXPECT_EQ(stats.offered(2), 1u);
  EXPECT_EQ(stats.delivered(3), 0u);
  EXPECT_EQ(stats.offered(99), 0u);
  EXPECT_DOUBLE_EQ(stats.mean_delay_us(3), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_delay_us_all(), 200.0);
  EXPECT_DOUBLE_EQ(stats.aggregate_throughput_bps(sec(1)), 800.0);
}

TEST(UdpSourceTest, GeneratesAtConfiguredRate) {
  sim::Simulator sim;
  PacketIdGen ids;
  int count = 0;
  UdpSource src(sim, Flow{0, 0, 1}, 1e6, 500, ids, [&](Packet) {
    ++count;
    return true;
  });
  src.start(0);
  sim.run_until(sec(1));
  // 1 Mbps of 500B packets = 250 packets/sec.
  EXPECT_NEAR(count, 250, 2);
}

TEST(UdpSourceTest, StopHalts) {
  sim::Simulator sim;
  PacketIdGen ids;
  int count = 0;
  UdpSource src(sim, Flow{0, 0, 1}, 1e6, 500, ids, [&](Packet) {
    ++count;
    return true;
  });
  src.start(0);
  sim.schedule_at(msec(100), [&] { src.stop(); });
  sim.run_until(sec(1));
  EXPECT_NEAR(count, 25, 2);
}

TEST(UdpSourceTest, ZeroRateDisabled) {
  sim::Simulator sim;
  PacketIdGen ids;
  int count = 0;
  UdpSource src(sim, Flow{0, 0, 1}, 0.0, 500, ids, [&](Packet) {
    ++count;
    return true;
  });
  src.start(0);
  sim.run_until(sec(1));
  EXPECT_EQ(count, 0);
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
  wired::Backbone bb(sim, bp, Rng(17));
  double sum = 0.0, sq = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double s = to_usec(bb.sample_latency());
    sum += s;
    sq += s * s;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 285.0, 2.0);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 22.0, 2.0);
}

TEST(BackboneTest, DeliversAfterLatency) {
  sim::Simulator sim;
  wired::Backbone bb(sim, {}, Rng(18));
  TimeNs delivered_at = kTimeNever;
  bb.send([&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_GT(delivered_at, usec(100));
  EXPECT_LT(delivered_at, usec(500));
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
