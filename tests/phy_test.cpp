// Unit tests: frame airtimes, the SINR medium (interference accumulation,
// carrier sense, half duplex, NAV, ROP orthogonality) and the fitted
// signature detection model.

#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "phy/medium.h"
#include "phy/signature_model.h"
#include "phy/transceiver.h"
#include "topo/topology.h"

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
  // Pinned from a reference build that kept the member set as an explicit
  // node list: every RxInfo, carrier-sense edge and running sum, bit for
  // bit.
  const std::string want =
      "t108: 0=3.1702219425156219e-06/3.162278660168379e-06/1/1 "
      "2=4.747172852629494e-06/2e-12/0/1 "
      "5=3.1622796601683788e-06/9.9999999999999998e-13/1/1 "
      "6=3.1702219425156219e-06/3.162278660168379e-06/1/1 "
      "7=3.1622796601683788e-06/9.9999999999999998e-13/1/1\n"
      "t200: 0=7.9432823472427177e-09/-1.8415451699227731e-22/1/1 "
      "2=4.7471708526294935e-06/0/0/1 5=3.162278660168379e-06/0/0/1 "
      "6=7.9432823472429014e-09/0/1/1 7=3.162278660168379e-06/0/0/1\n"
      "t320: 0=3.1622776601683792e-06/0/0/1 2=0/0/1/1 "
      "5=9.9999999999999998e-13/0/0/0 6=1.5848931924611141e-06/0/0/1 "
      "7=9.9999999999999998e-13/0/0/0\n"
      "end: 0=0/0/0/0 2=0/0/0/0 5=0/0/0/0 6=0/0/0/0 7=0/0/0/0\n"
      "rx 0 src=5 type=4 rss=-55 sinr=25.787615980857403 dec=0 hd=1\n"
      "rx 0 src=6 type=0 rss=-81 sinr=-26.000548083133484 dec=0 hd=1\n"
      "rx 0 src=2 type=1 rss=-55 sinr=39 dec=1 hd=0\n"
      "cs 0: 1 0 1 0\n"
      "rx 2 src=6 type=0 rss=-58 sinr=-3.0005494563196984 dec=0 hd=0\n"
      "rx 2 src=0 type=0 rss=-55 sinr=2.9989037595252022 dec=0 hd=0\n"
      "cs 2: 1 0 1 0\n"
      "rx 5 src=0 type=0 rss=-55 sinr=38.978236653074546 dec=0 hd=1\n"
      "cs 5: 1 0\n"
      "rx 6 src=7 type=4 rss=-55 sinr=25.787615980857403 dec=0 hd=1\n"
      "rx 6 src=0 type=0 rss=-81 sinr=-26.000548083133484 dec=0 hd=1\n"
      "rx 6 src=2 type=1 rss=-58 sinr=36.000000000000007 dec=1 hd=0\n"
      "cs 6: 1 0 1 0\n"
      "rx 7 src=6 type=0 rss=-55 sinr=38.978236653074546 dec=0 hd=1\n"
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
