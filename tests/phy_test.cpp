// Unit tests: frame airtimes, the SINR medium (interference accumulation,
// carrier sense, half duplex, NAV, ROP orthogonality) and the fitted
// signature detection model.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "phy/medium.h"
#include "phy/signature_model.h"
#include "phy/transceiver.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace dmn::phy {
namespace {

TEST(Airtime, KnownDurations) {
  // 540 B (512 payload + 28 header) at 12 Mbps:
  // ceil((16 + 4320 + 6)/48) = 91 symbols -> 364 + 20 us preamble.
  EXPECT_EQ(frame_airtime(540, 12e6), usec(384));
  // 14 B ACK at 6 Mbps: ceil(134/24) = 6 symbols -> 24 + 20 us.
  EXPECT_EQ(frame_airtime(14, 6e6), usec(44));
}

TEST(Airtime, MonotoneInSizeAndRate) {
  EXPECT_LT(frame_airtime(100, 12e6), frame_airtime(1000, 12e6));
  EXPECT_GT(frame_airtime(512, 6e6), frame_airtime(512, 12e6));
}

/// Records everything it hears.
class Sniffer : public MediumClient {
 public:
  struct Rx {
    Frame frame;
    RxInfo info;
  };
  std::vector<Rx> heard;
  std::vector<bool> cs_edges;

  void on_frame_rx(const Frame& f, const RxInfo& i) override {
    heard.push_back({f, i});
  }
  void on_cs_change(bool busy) override { cs_edges.push_back(busy); }
};

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() {
    topo::ManualTopologyBuilder b;
    ap0_ = b.add_ap();        // 0
    c0_ = b.add_client(ap0_); // 1
    ap1_ = b.add_ap();        // 2
    c1_ = b.add_client(ap1_); // 3
    b.interfere(ap1_, c0_);   // ap1's tx destroys c0's reception
    topo_ = std::make_unique<topo::Topology>(b.build());
    medium_ = std::make_unique<Medium>(sim_, *topo_);
    for (int i = 0; i < 4; ++i) {
      sniffers_.push_back(std::make_unique<Sniffer>());
      medium_->attach(i, sniffers_.back().get());
    }
  }

  Frame data(topo::NodeId src, topo::NodeId dst) {
    Frame f;
    f.type = FrameType::kData;
    f.src = src;
    f.dst = dst;
    f.duration = usec(100);
    f.packet_id = 1;
    return f;
  }

  sim::Simulator sim_;
  topo::NodeId ap0_, c0_, ap1_, c1_;
  std::unique_ptr<topo::Topology> topo_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<Sniffer>> sniffers_;
};

TEST_F(MediumTest, CleanFrameDecodes) {
  medium_->transmit(data(ap0_, c0_));
  sim_.run();
  ASSERT_EQ(sniffers_[1]->heard.size(), 1u);
  EXPECT_TRUE(sniffers_[1]->heard[0].info.decoded);
  EXPECT_GT(sniffers_[1]->heard[0].info.min_sinr_db, 30.0);
}

TEST_F(MediumTest, ConcurrentInterferenceKillsDecode) {
  medium_->transmit(data(ap0_, c0_));
  sim_.schedule_at(usec(10), [&] { medium_->transmit(data(ap1_, c1_)); });
  sim_.run();
  ASSERT_FALSE(sniffers_[1]->heard.empty());
  EXPECT_FALSE(sniffers_[1]->heard[0].info.decoded)
      << "ap1's overlap must corrupt c0's reception";
  // c1 decodes fine: ap0 is faint at c1.
  bool c1_ok = false;
  for (const auto& rx : sniffers_[3]->heard) {
    if (rx.frame.src == ap1_) c1_ok = rx.info.decoded;
  }
  EXPECT_TRUE(c1_ok);
}

TEST_F(MediumTest, LateInterferenceStillCountsWorstCase) {
  // Interferer appears in the last microseconds of the frame: min-SINR
  // semantics must still fail the frame.
  medium_->transmit(data(ap0_, c0_));
  sim_.schedule_at(usec(95), [&] { medium_->transmit(data(ap1_, c1_)); });
  sim_.run();
  EXPECT_FALSE(sniffers_[1]->heard[0].info.decoded);
}

TEST_F(MediumTest, HalfDuplexLoss) {
  medium_->transmit(data(ap0_, c0_));
  // c0 transmits mid-reception.
  sim_.schedule_at(usec(50), [&] { medium_->transmit(data(c0_, ap0_)); });
  sim_.run();
  ASSERT_FALSE(sniffers_[1]->heard.empty());
  EXPECT_TRUE(sniffers_[1]->heard[0].info.half_duplex_loss);
  EXPECT_FALSE(sniffers_[1]->heard[0].info.decoded);
}

TEST_F(MediumTest, CarrierSenseEdges) {
  medium_->transmit(data(ap0_, c0_));
  sim_.run();
  // c0 saw busy then idle.
  ASSERT_GE(sniffers_[1]->cs_edges.size(), 2u);
  EXPECT_TRUE(sniffers_[1]->cs_edges[0]);
  EXPECT_FALSE(sniffers_[1]->cs_edges.back());
  // c1 (faint from ap0) never sensed anything.
  EXPECT_TRUE(sniffers_[3]->cs_edges.empty());
}

TEST_F(MediumTest, TransmitterSensesOwnTx) {
  EXPECT_FALSE(medium_->carrier_busy(ap0_));
  medium_->transmit(data(ap0_, c0_));
  EXPECT_TRUE(medium_->carrier_busy(ap0_));
  EXPECT_TRUE(medium_->transmitting(ap0_));
  sim_.run();
  EXPECT_FALSE(medium_->carrier_busy(ap0_));
}

TEST_F(MediumTest, NavHoldsVirtualCarrier) {
  Frame f = data(ap0_, c0_);
  f.nav = usec(200);
  medium_->transmit(f);
  sim_.run_until(usec(150));
  EXPECT_FALSE(medium_->carrier_busy(c0_));
  EXPECT_TRUE(medium_->virtual_busy(c0_));
  sim_.run_until(usec(400));
  EXPECT_FALSE(medium_->virtual_busy(c0_));
}

TEST_F(MediumTest, RopResponsesMutuallyOrthogonal) {
  Frame r1;
  r1.type = FrameType::kRopResponse;
  r1.src = c0_;
  r1.dst = ap0_;
  r1.duration = usec(16);
  Frame r2 = r1;
  r2.src = c1_;
  r2.dst = ap1_;
  medium_->transmit(r1);
  medium_->transmit(r2);
  sim_.run();
  // Both decode: subchannel orthogonality excludes them from each other's
  // interference even though c1 would otherwise interfere at ap0... (c1 is
  // faint at ap0 anyway; the key assertion is both decode cleanly).
  bool ok0 = false, ok1 = false;
  for (const auto& rx : sniffers_[0]->heard) {
    if (rx.frame.type == FrameType::kRopResponse) ok0 = rx.info.decoded;
  }
  for (const auto& rx : sniffers_[2]->heard) {
    if (rx.frame.type == FrameType::kRopResponse) ok1 = rx.info.decoded;
  }
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

TEST_F(MediumTest, FrameCountersTrack) {
  medium_->transmit(data(ap0_, c0_));
  medium_->transmit(data(ap1_, c1_));
  sim_.run();
  EXPECT_EQ(medium_->frames_sent(FrameType::kData), 2u);
  EXPECT_EQ(medium_->frames_sent(FrameType::kAck), 0u);
}

// ---- member runs ----------------------------------------------------------

/// Two interleaved interference components:
///   X = {0, 2, 5, 6, 7}: AP 0 (clients 2, 5) senses AP 6 (client 7), and
///       AP 6 interferes at client 2;
///   Y = {1, 3, 4}: AP 1 with clients 3 and 4.
/// X restricted is the runs [0,1), [2,3), [5,8): two one-node runs and one
/// longer run.
topo::Topology interleaved_components() {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();   // 0
  const auto a1 = b.add_ap();   // 1
  const auto c2 = b.add_client(a0);  // 2
  b.add_client(a1);             // 3
  b.add_client(a1);             // 4
  b.add_client(a0);             // 5
  const auto a6 = b.add_ap();   // 6
  b.add_client(a6);             // 7
  b.sense(a0, a6);
  b.interfere(a6, c2);
  return b.build();
}

/// Drives one fixed script over component X of interleaved_components()
/// — overlapping data, concurrent ROP responses, an ACK — and returns a
/// transcript: every RxInfo and carrier-sense edge each member receives,
/// and every member's running sums at three probe times, all at full
/// double precision.
std::string run_component_x(bool restrict_to_x, bool restrict_to_all) {
  const topo::Topology t = interleaved_components();
  const std::vector<topo::NodeId> x = {5, 0, 7, 2, 6};  // any order
  sim::Simulator sim;
  Medium m(sim, t);
  if (restrict_to_x) m.restrict_to_nodes(x);
  if (restrict_to_all) m.restrict_to_nodes({0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<std::unique_ptr<Sniffer>> sniffers(t.num_nodes());
  for (const topo::NodeId n : x) {
    sniffers[static_cast<std::size_t>(n)] = std::make_unique<Sniffer>();
    m.attach(n, sniffers[static_cast<std::size_t>(n)].get());
  }
  auto frame = [](FrameType type, topo::NodeId src, topo::NodeId dst,
                  TimeNs duration) {
    Frame f;
    f.type = type;
    f.src = src;
    f.dst = dst;
    f.duration = duration;
    return f;
  };
  std::ostringstream out;
  out << std::setprecision(17);
  auto probe = [&](const char* label) {
    out << label << ":";
    for (const topo::NodeId n : {0, 2, 5, 6, 7}) {
      out << " " << n << "=" << m.inbound_mw(n) << "/" << m.rop_inbound_mw(n)
          << "/" << m.tx_count(n) << "/" << m.cs_busy_cached(n);
    }
    out << "\n";
  };
  sim.post_at(0, [&] {
    m.transmit(frame(FrameType::kData, 0, 2, usec(300)));
  });
  sim.post_at(usec(50), [&] {
    m.transmit(frame(FrameType::kData, 6, 7, usec(200)));
  });
  sim.post_at(usec(100), [&] {
    m.transmit(frame(FrameType::kRopResponse, 5, 0, usec(16)));
    m.transmit(frame(FrameType::kRopResponse, 7, 6, usec(16)));
  });
  sim.post_at(usec(108), [&] { probe("t108"); });
  sim.post_at(usec(200), [&] { probe("t200"); });
  sim.post_at(usec(310), [&] {
    m.transmit(frame(FrameType::kAck, 2, 0, usec(44)));
  });
  sim.post_at(usec(320), [&] { probe("t320"); });
  sim.run();
  probe("end");
  for (const topo::NodeId n : {0, 2, 5, 6, 7}) {
    const Sniffer& s = *sniffers[static_cast<std::size_t>(n)];
    for (const Sniffer::Rx& rx : s.heard) {
      out << "rx " << n << " src=" << rx.frame.src
          << " type=" << static_cast<int>(rx.frame.type)
          << " rss=" << rx.info.rss_dbm << " sinr=" << rx.info.min_sinr_db
          << " dec=" << rx.info.decoded << " hd=" << rx.info.half_duplex_loss
          << "\n";
    }
    out << "cs " << n << ":";
    for (const bool busy : s.cs_edges) out << " " << busy;
    out << "\n";
  }
  return out.str();
}

TEST(MediumRuns, NonContiguousMemberSetMatchesPinnedTranscript) {
  // Every RxInfo, carrier-sense edge and running sum, bit for bit. Pinned
  // when kRssFaint became "no path" (0 mW): the sums no longer carry the
  // 1e-12 mW filler terms (t108, t320), and the receptions it used to
  // interfere with are 0.0005-0.02 dB cleaner.
  const std::string want =
      "t108: 0=3.1702209425156221e-06/3.1622776601683792e-06/1/1 "
      "2=4.7471708526294935e-06/0/0/1 5=3.1622776601683792e-06/0/1/1 "
      "6=3.1702209425156221e-06/3.1622776601683792e-06/1/1 "
      "7=3.1622776601683792e-06/0/1/1\n"
      "t200: 0=7.9432823472429014e-09/0/1/1 2=4.7471708526294935e-06/0/0/1 "
      "5=3.1622776601683792e-06/0/0/1 6=7.9432823472429014e-09/0/1/1 "
      "7=3.1622776601683792e-06/0/0/1\n"
      "t320: 0=3.1622776601683792e-06/0/0/1 2=0/0/1/1 5=0/0/0/0 "
      "6=1.5848931924611141e-06/0/0/1 7=0/0/0/0\n"
      "end: 0=0/0/0/0 2=0/0/0/0 5=0/0/0/0 6=0/0/0/0 7=0/0/0/0\n"
      "rx 0 src=5 type=4 rss=-55 sinr=25.787615980857403 dec=0 hd=1\n"
      "rx 0 src=6 type=0 rss=-81 sinr=-26.000546709946835 dec=0 hd=1\n"
      "rx 0 src=2 type=1 rss=-55 sinr=39 dec=1 hd=0\n"
      "cs 0: 1 0 1 0\n"
      "rx 2 src=6 type=0 rss=-58 sinr=-3.0005467099468386 dec=0 hd=0\n"
      "rx 2 src=0 type=0 rss=-55 sinr=2.9989092385713327 dec=0 hd=0\n"
      "cs 2: 1 0 1 0\n"
      "rx 5 src=0 type=0 rss=-55 sinr=39 dec=0 hd=1\n"
      "cs 5: 1 0\n"
      "rx 6 src=7 type=4 rss=-55 sinr=25.787615980857403 dec=0 hd=1\n"
      "rx 6 src=0 type=0 rss=-81 sinr=-26.000546709946835 dec=0 hd=1\n"
      "rx 6 src=2 type=1 rss=-58 sinr=36.000000000000007 dec=1 hd=0\n"
      "cs 6: 1 0 1 0\n"
      "rx 7 src=6 type=0 rss=-55 sinr=39 dec=0 hd=1\n"
      "cs 7: 1 0\n";
  EXPECT_EQ(run_component_x(/*restrict_to_x=*/true, false), want);
}

TEST(MediumRuns, MembershipAndClosureChecksHold) {
  const topo::Topology t = interleaved_components();
  sim::Simulator sim;
  Medium m(sim, t);
  Sniffer sniffer;
  // AP 0 hears clients 2 and 5 and AP 6: {0, 2} is not closed.
  EXPECT_THROW(m.restrict_to_nodes({0, 2}), std::logic_error);
  m.restrict_to_nodes({1, 3, 4});
  EXPECT_THROW(m.attach(0, &sniffer), std::logic_error);
  Frame f;
  f.src = 2;
  f.dst = 0;
  f.duration = usec(10);
  EXPECT_THROW(m.transmit(f), std::logic_error);
  EXPECT_NO_THROW(m.attach(4, &sniffer));
  ASSERT_EQ(m.member_runs().size(), 2u);
  EXPECT_EQ(m.member_runs()[0].begin, 1u);
  EXPECT_EQ(m.member_runs()[0].end, 2u);
  EXPECT_EQ(m.member_runs()[1].begin, 3u);
  EXPECT_EQ(m.member_runs()[1].end, 5u);
}

TEST(MediumRuns, RestrictingToEveryNodeIsTheUnrestrictedMedium) {
  EXPECT_EQ(run_component_x(false, /*restrict_to_all=*/true),
            run_component_x(false, false));
}

// ---- bit-for-bit pin ------------------------------------------------------

/// FNV-1a over everything the medium hands its clients, in delivery order:
/// every RxInfo's bit patterns (with the receiver's NAV-aware busy state at
/// delivery) and the globally ordered (now, node, busy) carrier-sense edge
/// stream. The counters only show which cases a scenario reached.
struct MediumDigest {
  std::uint64_t hash = 14695981039346656037ull;
  std::size_t rx = 0, rop_rx = 0, decoded = 0, half_duplex = 0;
  std::size_t cs_edges = 0, nav_busy = 0;

  template <typename T>
  void mix(T value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash = (hash ^ p[i]) * 1099511628211ull;
    }
  }
};

class DigestClient final : public MediumClient {
 public:
  DigestClient(MediumDigest& digest, const sim::Simulator& sim,
               const Medium& medium, topo::NodeId node)
      : d_(digest), sim_(sim), medium_(medium), node_(node) {}

  void on_frame_rx(const Frame& f, const RxInfo& i) override {
    const bool nav_busy =
        medium_.virtual_busy(node_) && !medium_.carrier_busy(node_);
    d_.mix(node_);
    d_.mix(f.src);
    d_.mix(static_cast<int>(f.type));
    d_.mix(std::bit_cast<std::uint64_t>(i.rss_dbm));
    d_.mix(std::bit_cast<std::uint64_t>(i.min_sinr_db));
    d_.mix(i.decoded);
    d_.mix(i.half_duplex_loss);
    d_.mix(nav_busy);
    ++d_.rx;
    d_.rop_rx += f.type == FrameType::kRopResponse;
    d_.decoded += i.decoded;
    d_.half_duplex += i.half_duplex_loss;
    d_.nav_busy += nav_busy;
  }
  void on_cs_change(bool busy) override {
    d_.mix(sim_.now());
    d_.mix(node_);
    d_.mix(busy);
    ++d_.cs_edges;
  }

 private:
  MediumDigest& d_;
  const sim::Simulator& sim_;
  const Medium& medium_;
  topo::NodeId node_;
};

/// Attaches one DigestClient per node of `nodes`.
std::vector<std::unique_ptr<DigestClient>> attach_digest_clients(
    Medium& m, const sim::Simulator& sim, MediumDigest& digest,
    const std::vector<topo::NodeId>& nodes) {
  std::vector<std::unique_ptr<DigestClient>> clients;
  for (const topo::NodeId n : nodes) {
    clients.push_back(std::make_unique<DigestClient>(digest, sim, m, n));
    m.attach(n, clients.back().get());
  }
  return clients;
}

Frame pin_frame(FrameType type, topo::NodeId src, TimeNs duration,
                TimeNs nav = 0) {
  Frame f;
  f.type = type;
  f.src = src;
  f.duration = duration;
  f.nav = nav;
  return f;
}

/// The medium carrying a node's transmissions.
using MediumOf = std::function<Medium&(topo::NodeId)>;

/// Posts `count` seeded random transmissions by `nodes` over [0, horizon):
/// data frames (some carrying NAV), ACKs, and ROP bursts in which every
/// client of one AP answers with a different duration, so responses end
/// while others of the same poll are still in flight. A node that is
/// already transmitting skips its turn.
void post_random_traffic(sim::Simulator& sim, const MediumOf& medium_of,
                         const topo::Topology& t,
                         const std::vector<topo::NodeId>& nodes, int count,
                         TimeNs horizon, Rng& rng) {
  auto send = [medium_of](const Frame& f) {
    Medium& m = medium_of(f.src);
    if (!m.transmitting(f.src)) m.transmit(f);
  };
  for (int k = 0; k < count; ++k) {
    const TimeNs at = rng.uniform_int(0, horizon - 1);
    const topo::NodeId src =
        nodes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(nodes.size()) - 1))];
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind <= 4) {
      const TimeNs dur = usec(rng.uniform_int(40, 400));
      const TimeNs nav = rng.chance(0.3) ? usec(60) : 0;
      sim.post_at(at, [send, f = pin_frame(FrameType::kData, src, dur, nav)] {
        send(f);
      });
    } else if (kind <= 6) {
      sim.post_at(at, [send, f = pin_frame(FrameType::kAck, src, usec(44))] {
        send(f);
      });
    } else {
      const topo::NodeId ap = t.node(src).is_ap ? src : t.node(src).ap;
      TimeNs dur = usec(16);
      for (const topo::NodeId c : t.clients_of(ap)) {
        sim.post_at(at, [send, f = pin_frame(FrameType::kRopResponse, c,
                                              dur)] { send(f); });
        dur += usec(8);
      }
    }
  }
}

void post_random_traffic(sim::Simulator& sim, Medium& m,
                         const std::vector<topo::NodeId>& nodes, int count,
                         TimeNs horizon, Rng& rng) {
  post_random_traffic(
      sim, [&m](topo::NodeId) -> Medium& { return m; }, m.topology(), nodes,
      count, horizon, rng);
}

/// Dense rows: 8 APs x 4 clients in a 250 m square, so most nodes hear
/// most transmitters. Random traffic plus two
/// external-interference bursts (up, higher, down, off) and two RSS moves
/// applied while a long frame is in the air.
MediumDigest pin_dense_scenario() {
  Rng rng(4242);
  topo::Topology t = topo::Topology::random_network(
      8, 4, 250.0, topo::LogDistanceModel{}, {}, rng);
  sim::Simulator sim;
  Medium m(sim, t);
  MediumDigest digest;
  std::vector<topo::NodeId> nodes(t.num_nodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  const auto clients = attach_digest_clients(m, sim, digest, nodes);
  post_random_traffic(sim, m, nodes, 250, usec(8000), rng);
  for (const TimeNs base : {usec(1000), usec(3500)}) {
    sim.post_at(base, [&m] { m.set_external_interference_mw(2e-9); });
    sim.post_at(base + usec(30), [&m] { m.set_external_interference_mw(6e-9); });
    sim.post_at(base + usec(70), [&m] { m.set_external_interference_mw(1e-9); });
    sim.post_at(base + usec(90), [&m] { m.set_external_interference_mw(0.0); });
  }
  const topo::NodeId ap = t.aps().front();
  const topo::NodeId client = t.clients_of(ap).front();
  sim.post_at(usec(1990), [&m, ap] {
    m.transmit(pin_frame(FrameType::kData, ap, usec(400)));
  });
  sim.post_at(usec(2100), [&] {
    t.update_rss(ap, client, -75.0);
    t.update_rss(ap, t.aps().back(), -62.0);
    m.on_topology_changed();
  });
  sim.post_at(usec(2250), [&] {
    t.update_rss(ap, client, topo::kRssStrong);
    m.on_topology_changed();
  });
  sim.run();
  return digest;
}

/// A manual topology with one scripted instance of every case: a data frame
/// ending under in-flight ROP responses, ROP responses of one poll ending
/// at different times, a receiver keying up mid-reception, NAV, an
/// external-interference rise and fall mid-frame, and RSS moves applied
/// mid-frame that raise and then lower a reception's interference.
MediumDigest pin_manual_scenario() {
  topo::ManualTopologyBuilder b;
  const auto ap0 = b.add_ap();        // 0
  const auto c0 = b.add_client(ap0);  // 1
  const auto c1 = b.add_client(ap0);  // 2
  const auto ap1 = b.add_ap();        // 3
  const auto c2 = b.add_client(ap1);  // 4
  const auto c3 = b.add_client(ap1);  // 5
  b.interfere(ap1, c0);
  b.sense(ap0, ap1);
  b.sense(c1, c2);
  topo::Topology t = b.build();
  sim::Simulator sim;
  Medium m(sim, t);
  MediumDigest digest;
  const auto clients =
      attach_digest_clients(m, sim, digest, {ap0, c0, c1, ap1, c2, c3});
  auto at = [&sim, &m](TimeNs when, Frame f) {
    sim.post_at(when, [&m, f] { m.transmit(f); });
  };
  // ROP responses of two polls; a data frame ends under them.
  at(usec(0), pin_frame(FrameType::kData, ap1, usec(40), usec(100)));
  at(usec(20), pin_frame(FrameType::kRopResponse, c0, usec(16)));
  at(usec(20), pin_frame(FrameType::kRopResponse, c1, usec(32)));
  at(usec(22), pin_frame(FrameType::kRopResponse, c2, usec(24)));
  at(usec(22), pin_frame(FrameType::kRopResponse, c3, usec(40)));
  // c0 keys up while receiving ap0.
  at(usec(200), pin_frame(FrameType::kData, ap0, usec(120), usec(50)));
  at(usec(260), pin_frame(FrameType::kAck, c0, usec(44)));
  // External interference rises and falls under one frame.
  at(usec(400), pin_frame(FrameType::kData, ap0, usec(200)));
  at(usec(420), pin_frame(FrameType::kData, c2, usec(100)));
  sim.post_at(usec(450), [&m] { m.set_external_interference_mw(3e-9); });
  sim.post_at(usec(470), [&m] { m.set_external_interference_mw(8e-9); });
  sim.post_at(usec(500), [&m] { m.set_external_interference_mw(0.0); });
  // While c3 is on the air, its faint edge to c0 becomes an interference
  // edge and then fades again: c0's reception of ap0 takes the hit.
  at(usec(700), pin_frame(FrameType::kData, ap0, usec(300)));
  at(usec(720), pin_frame(FrameType::kData, c3, usec(300)));
  sim.post_at(usec(800), [&] {
    t.update_rss(c3, c0, topo::kRssInterfere);
    m.on_topology_changed();
  });
  sim.post_at(usec(900), [&] {
    t.update_rss(c3, c0, topo::kRssFaint);
    m.on_topology_changed();
  });
  sim.run();
  return digest;
}

/// Random traffic on component X of interleaved_components(), the medium
/// restricted to the non-contiguous runs [0,1), [2,3), [5,8).
MediumDigest pin_restricted_scenario() {
  const topo::Topology t = interleaved_components();
  const std::vector<topo::NodeId> x = {0, 2, 5, 6, 7};
  sim::Simulator sim;
  Medium m(sim, t);
  m.restrict_to_nodes(x);
  MediumDigest digest;
  const auto clients = attach_digest_clients(m, sim, digest, x);
  Rng rng(77);
  post_random_traffic(sim, m, x, 120, usec(3000), rng);
  sim.post_at(usec(1500), [&m] { m.set_external_interference_mw(4e-9); });
  sim.post_at(usec(1560), [&m] { m.set_external_interference_mw(0.0); });
  sim.run();
  return digest;
}

TEST(MediumPin, DeliveriesAndCarrierSenseStreamAreBitIdentical) {
  // Digests pinned from a build whose every TX edge re-swept all in-flight
  // receptions and re-checked carrier sense node by node. The manual and
  // restricted digests were re-pinned when kRssFaint became "no path"
  // (0 mW instead of 1e-12 mW), which moves the SINR bits of receptions
  // the filler used to reach; the dense path-loss digest did not move.
  const MediumDigest dense = pin_dense_scenario();
  const MediumDigest manual = pin_manual_scenario();
  const MediumDigest restricted = pin_restricted_scenario();
  EXPECT_EQ(dense.hash, 0x28a1ea3508ef2479ull) << std::hex << dense.hash;
  EXPECT_EQ(manual.hash, 0x1e765a39086ce68dull) << std::hex << manual.hash;
  EXPECT_EQ(restricted.hash, 0xe338a1762f5966dcull)
      << std::hex << restricted.hash;
  // Every scenario reaches the cases it is meant to cover.
  for (const MediumDigest* d : {&dense, &manual, &restricted}) {
    EXPECT_GT(d->rop_rx, 0u);
    EXPECT_GT(d->decoded, 0u);
    EXPECT_LT(d->decoded, d->rx);
    EXPECT_GT(d->half_duplex, 0u);
    EXPECT_GT(d->cs_edges, 0u);
    EXPECT_GT(d->nav_busy, 0u);
  }
}

// ---- one medium over many components --------------------------------------

/// Everything one node receives, in order and bit for bit: each RxInfo and
/// each carrier-sense edge, stamped with the simulation time.
class TranscriptClient final : public MediumClient {
 public:
  TranscriptClient(const sim::Simulator& sim, std::string& out)
      : sim_(sim), out_(out) {}
  void on_frame_rx(const Frame& f, const RxInfo& i) override {
    out_ += std::to_string(sim_.now()) + " rx " + std::to_string(f.src) +
            " type=" + std::to_string(static_cast<int>(f.type)) + " " +
            std::to_string(std::bit_cast<std::uint64_t>(i.rss_dbm)) + " " +
            std::to_string(std::bit_cast<std::uint64_t>(i.min_sinr_db)) +
            " " + std::to_string(i.decoded) +
            std::to_string(i.half_duplex_loss) + "\n";
  }
  void on_cs_change(bool busy) override {
    out_ += std::to_string(sim_.now()) + " cs " + std::to_string(busy) + "\n";
  }

 private:
  const sim::Simulator& sim_;
  std::string& out_;
};

/// Seeded random traffic on interleaved_components(), interleaving both
/// components, with ROP bursts and an external-interference rise and fall
/// under in-flight frames. Carried by one medium over every node, or by
/// one restricted medium per component (`per_component`). Returns each
/// node's transcript.
std::vector<std::string> run_both_components(bool per_component) {
  const topo::Topology t = interleaved_components();
  const std::vector<std::vector<topo::NodeId>> comps = {{0, 2, 5, 6, 7},
                                                        {1, 3, 4}};
  std::vector<std::size_t> comp_of(t.num_nodes());
  for (std::size_t c = 0; c < comps.size(); ++c) {
    for (const topo::NodeId n : comps[c]) {
      comp_of[static_cast<std::size_t>(n)] = c;
    }
  }
  sim::Simulator sim;
  std::vector<std::unique_ptr<Medium>> mediums;
  for (const auto& members : comps) {
    mediums.push_back(std::make_unique<Medium>(sim, t));
    if (!per_component) break;
    mediums.back()->restrict_to_nodes(members);
  }
  const MediumOf medium_of = [&](topo::NodeId n) -> Medium& {
    return *mediums[per_component ? comp_of[static_cast<std::size_t>(n)]
                                  : 0];
  };
  std::vector<std::string> out(t.num_nodes());
  std::vector<std::unique_ptr<TranscriptClient>> clients;
  std::vector<topo::NodeId> nodes;
  for (std::size_t n = 0; n < t.num_nodes(); ++n) {
    const auto id = static_cast<topo::NodeId>(n);
    clients.push_back(std::make_unique<TranscriptClient>(sim, out[n]));
    medium_of(id).attach(id, clients.back().get());
    nodes.push_back(id);
  }
  Rng rng(2024);
  post_random_traffic(sim, medium_of, t, nodes, 240, usec(4000), rng);
  for (const auto& [at, mw] : {std::pair{usec(1200), 3e-9},
                               std::pair{usec(1240), 7e-9},
                               std::pair{usec(1290), 0.0}}) {
    sim.post_at(at, [&mediums, mw] {
      for (const auto& m : mediums) m->set_external_interference_mw(mw);
    });
  }
  sim.run();
  return out;
}

TEST(MediumComponents, OneMediumComputesWhatOneMediumPerComponentDoes) {
  // A component's sums never see another component's traffic: no power
  // crosses, and each resets at its own quiescence. So every node's
  // deliveries and carrier-sense edges are the same, bit for bit, whether
  // one medium carries both components or each has its own.
  const std::vector<std::string> one = run_both_components(false);
  const std::vector<std::string> per = run_both_components(true);
  ASSERT_EQ(one.size(), per.size());
  for (std::size_t n = 0; n < one.size(); ++n) {
    EXPECT_EQ(one[n], per[n]) << "node " << n;
    // Every node hears frames and senses the channel busy.
    EXPECT_NE(one[n].find(" cs 1"), std::string::npos) << "node " << n;
    EXPECT_NE(one[n].find(" rx "), std::string::npos) << "node " << n;
  }
  for (const std::size_t ap : {0u, 1u, 6u}) {
    EXPECT_NE(one[ap].find("type=4"), std::string::npos) << "AP " << ap;
  }
}

/// Tries to answer every busy edge with a frame of its own.
class EagerClient final : public MediumClient {
 public:
  explicit EagerClient(Medium& m, topo::NodeId node) : m_(m), node_(node) {}
  void on_frame_rx(const Frame&, const RxInfo&) override {}
  void on_cs_change(bool busy) override {
    if (!busy) return;
    try {
      m_.transmit(pin_frame(FrameType::kAck, node_, usec(44)));
    } catch (const std::logic_error&) {
      ++refused;
    }
  }
  int refused = 0;

 private:
  Medium& m_;
  topo::NodeId node_;
};

TEST(MediumCallbacks, TransmitFromACarrierSenseCallbackThrows) {
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  const auto c = b.add_client(ap);
  const topo::Topology t = b.build();
  sim::Simulator sim;
  Medium m(sim, t);
  EagerClient eager(m, c);
  Sniffer sniffer;
  m.attach(ap, &sniffer);
  m.attach(c, &eager);
  m.transmit(pin_frame(FrameType::kData, ap, usec(100)));
  EXPECT_EQ(eager.refused, 1);
  EXPECT_FALSE(m.transmitting(c));
  EXPECT_EQ(m.frames_sent(FrameType::kAck), 0u);
  // The refused attempt left the medium consistent: the frame is delivered
  // and a later transmit outside the callback is accepted.
  sim.run();
  ASSERT_EQ(sniffer.cs_edges.size(), 2u);
  m.transmit(pin_frame(FrameType::kAck, c, usec(44)));
  EXPECT_TRUE(m.transmitting(c));
}

// ---- Signature detection model -------------------------------------------

TEST(SignatureModel, PaperShape) {
  SignatureDetectionModel m;
  // Figure 9: ~100% through 4 combined signatures, declining beyond.
  for (int n = 1; n <= 4; ++n) {
    EXPECT_GE(m.detect_probability(n, 0.0), 0.99) << n;
  }
  EXPECT_LT(m.detect_probability(5, 0.0), 0.99);
  EXPECT_GT(m.detect_probability(5, 0.0), m.detect_probability(6, 0.0));
  EXPECT_GT(m.detect_probability(6, 0.0), m.detect_probability(7, 0.0));
  EXPECT_GT(m.detect_probability(7, 0.0), m.detect_probability(9, 0.0));
}

TEST(SignatureModel, ProcessingGainBelowDecodeThreshold) {
  SignatureDetectionModel m;
  // Signatures survive far below packet-decode SINR...
  EXPECT_GE(m.detect_probability(1, -9.0), 0.99);
  // ...but roll off toward the correlation-gain floor.
  EXPECT_LT(m.detect_probability(1, -18.0), 0.5);
  EXPECT_EQ(m.detect_probability(1, -25.0), 0.0);
}

TEST(SignatureModel, ZeroCountNeverDetects) {
  SignatureDetectionModel m;
  EXPECT_EQ(m.detect_probability(0, 10.0), 0.0);
}

TEST(SignatureModel, FalsePositiveRateSampled) {
  SignatureDetectionModel m;
  Rng rng(55);
  int fp = 0;
  for (int i = 0; i < 20000; ++i) {
    if (m.sample_false_positive(rng)) ++fp;
  }
  EXPECT_NEAR(fp / 20000.0, m.false_positive_rate, 0.003);
  EXPECT_LT(fp / 20000.0, 0.01);  // "below 1% all the time"
}

}  // namespace
}  // namespace dmn::phy
