// Golden-value regression tests for the hot-path kernels.
//
// The numbers below were captured from the straightforward reference
// implementations (scratch-recompute interference in Medium, per-call
// template construction per detection) BEFORE the incremental/banked fast
// paths were introduced. They pin the observable outputs bit-for-bit (to a
// 1e-9 absolute tolerance, far below any physically meaningful delta), so
// any fast-path rewrite that changes results — not just performance — fails
// here. See docs/PERFORMANCE.md for the invariants these encode.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "gold/burst.h"
#include "gold/gold_code.h"
#include "phy/medium.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace dmn {
namespace {

constexpr double kTol = 1e-9;

// ---- Correlator ----------------------------------------------------------

struct CorrelatorGolden {
  std::size_t scenario;
  std::size_t code;
  double peak_metric;
  double floor_metric;
  std::size_t lag;
  bool detected;
};

// Burst scenarios: senders (codes, amplitude, chip offset, phase), AWGN
// power, RNG seed. Kept tiny but covering: clean single signature, the
// paper's 4-combined burst, two concurrent senders, weak signal in noise,
// and pure noise (no signature present).
struct BurstScenario {
  std::vector<gold::BurstSender> senders;
  double noise;
  std::uint64_t seed;
};

std::vector<BurstScenario> burst_scenarios() {
  return {
      {{{{5}, 1.0, 0, 0.0}}, 0.01, 11},
      {{{{1, 2, 3, 4}, 1.0, 3, 0.7}}, 0.05, 22},
      {{{{10, 11}, 0.8, 2, 1.1}, {{12}, 1.2, 5, -0.4}}, 0.05, 33},
      {{{{7}, 0.05, 1, 0.2}}, 0.5, 44},
      {{}, 1.0, 55},
  };
}

const CorrelatorGolden kCorrelatorGoldens[] = {
    {0, 5, 1.0014015489030439, 0.1029025673878808, 0, true},
    {0, 6, 0.15047975217539913, 0.039489117531554783, 6, false},
    {1, 1, 0.9860170775322552, 0.12359959015697383, 3, true},
    {1, 3, 0.99075699956941765, 0.13059441802762234, 3, true},
    {1, 4, 0.98861150370181583, 0.15732040196793984, 3, true},
    {1, 9, 0.28017929556688903, 0.05572266591524834, 9, false},
    {2, 10, 0.83320196675750235, 0.15099572137341785, 2, true},
    {2, 12, 1.1990064922564008, 0.11142806293100892, 5, true},
    {2, 20, 0.21185977488419766, 0.17179172431821363, 4, false},
    {3, 7, 0.11002708886129392, 0.061081653093920558, 15, false},
    {3, 8, 0.10355980238571495, 0.065406013958209136, 1, false},
    {4, 0, 0.1772680409244709, 0.098385508197176591, 2, false},
    {4, 42, 0.14317535015797886, 0.070138449528122621, 1, false},
};

TEST(Golden, CorrelatorDetect) {
  gold::GoldCodeSet set(7);
  const gold::CorrelatorBank bank(set);
  const auto scenarios = burst_scenarios();
  std::vector<std::vector<dsp::Cplx>> bursts;
  for (const auto& s : scenarios) {
    Rng rng(s.seed);
    bursts.push_back(gold::synthesize_burst(bank, s.senders, s.noise, 16, rng));
  }
  for (const auto& g : kCorrelatorGoldens) {
    const auto r = bank.detect(bursts[g.scenario], g.code);
    EXPECT_NEAR(r.peak_metric, g.peak_metric, kTol)
        << "scenario " << g.scenario << " code " << g.code;
    EXPECT_NEAR(r.floor_metric, g.floor_metric, kTol)
        << "scenario " << g.scenario << " code " << g.code;
    EXPECT_EQ(r.lag, g.lag) << "scenario " << g.scenario << " code " << g.code;
    EXPECT_EQ(r.detected, g.detected)
        << "scenario " << g.scenario << " code " << g.code;
  }
}

// ---- Medium --------------------------------------------------------------

class Recorder : public phy::MediumClient {
 public:
  struct Rx {
    phy::Frame frame;
    phy::RxInfo info;
  };
  std::vector<Rx> heard;
  std::vector<bool> cs_edges;
  void on_frame_rx(const phy::Frame& f, const phy::RxInfo& i) override {
    heard.push_back({f, i});
  }
  void on_cs_change(bool busy) override { cs_edges.push_back(busy); }
};

struct MediumGolden {
  int node;
  int src;
  int type;  // static_cast<int>(FrameType)
  double rss_dbm;
  double min_sinr_db;
  bool decoded;
  bool half_duplex;
};

// Scenario: two AP-client pairs with an interference edge (ap1 destroys
// c0's reception) and a sense edge (ap0 hears ap1). Exercises overlapping
// interference, a late interferer, half-duplex loss, ROP subchannel
// orthogonality, and an external-interference burst edge mid-frame. The
// last row (node 3 has no path to ap0) was re-pinned from 38.989 to 39 dB
// when kRssFaint became "no path" instead of 1e-12 mW.
const MediumGolden kMediumGoldens[] = {
    {0, 2, 0, -81, 13.000000000000007, false, true},
    {0, 1, 4, -55, 39, true, false},
    {0, 1, 0, -55, 39, false, true},
    {1, 2, 0, -58, -3.0005467099468386, false, false},
    {1, 0, 0, -55, 2.9989092385713336, false, false},
    {1, 0, 0, -55, 39, false, true},
    {2, 0, 0, -81, -26.000546709946835, false, true},
    {2, 3, 1, -55, 25.787615980857446, true, false},
    {2, 1, 4, -58, 36.000000000000007, true, false},
    {2, 3, 4, -55, 39, true, false},
    {2, 1, 0, -58, 22.787615980857446, true, false},
    {2, 0, 0, -81, -23.001090761428664, false, false},
    {3, 2, 0, -55, 39, true, false},
};

TEST(Golden, MediumSinrAndCs) {
  topo::ManualTopologyBuilder b;
  const auto ap0 = b.add_ap();        // 0
  const auto c0 = b.add_client(ap0);  // 1
  const auto ap1 = b.add_ap();        // 2
  b.add_client(ap1);                  // 3
  b.interfere(ap1, c0);
  b.sense(ap0, ap1);
  const auto topo = b.build();
  sim::Simulator sim;
  phy::Medium medium(sim, topo);
  std::vector<Recorder> rec(4);
  for (int i = 0; i < 4; ++i) medium.attach(i, &rec[i]);

  auto frame = [](phy::FrameType t, topo::NodeId src, topo::NodeId dst,
                  TimeNs dur) {
    phy::Frame f;
    f.type = t;
    f.src = src;
    f.dst = dst;
    f.duration = dur;
    return f;
  };
  medium.transmit(frame(phy::FrameType::kData, 0, 1, usec(100)));
  sim.schedule_at(usec(10), [&] {
    medium.transmit(frame(phy::FrameType::kData, 2, 3, usec(50)));
  });
  sim.schedule_at(usec(95), [&] {
    medium.transmit(frame(phy::FrameType::kAck, 3, 2, usec(44)));
  });
  sim.schedule_at(usec(120),
                  [&] { medium.set_external_interference_mw(5e-9); });
  sim.schedule_at(usec(130),
                  [&] { medium.set_external_interference_mw(0.0); });
  sim.schedule_at(usec(200), [&] {
    medium.transmit(frame(phy::FrameType::kRopResponse, 1, 0, usec(16)));
    medium.transmit(frame(phy::FrameType::kRopResponse, 3, 2, usec(16)));
  });
  sim.schedule_at(usec(300), [&] {
    medium.transmit(frame(phy::FrameType::kData, 0, 1, usec(80)));
  });
  sim.schedule_at(usec(340), [&] {
    medium.transmit(frame(phy::FrameType::kData, 1, 0, usec(30)));
  });
  sim.run();

  // Flatten observed receptions in the recorded order per node.
  std::vector<MediumGolden> observed;
  for (int n = 0; n < 4; ++n) {
    for (const auto& rx : rec[n].heard) {
      observed.push_back({n, rx.frame.src, static_cast<int>(rx.frame.type),
                          rx.info.rss_dbm, rx.info.min_sinr_db,
                          rx.info.decoded, rx.info.half_duplex_loss});
    }
  }
  ASSERT_EQ(observed.size(), std::size(kMediumGoldens));
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const auto& got = observed[i];
    const auto& want = kMediumGoldens[i];
    EXPECT_EQ(got.node, want.node) << "row " << i;
    EXPECT_EQ(got.src, want.src) << "row " << i;
    EXPECT_EQ(got.type, want.type) << "row " << i;
    EXPECT_NEAR(got.rss_dbm, want.rss_dbm, kTol) << "row " << i;
    EXPECT_NEAR(got.min_sinr_db, want.min_sinr_db, kTol) << "row " << i;
    EXPECT_EQ(got.decoded, want.decoded) << "row " << i;
    EXPECT_EQ(got.half_duplex, want.half_duplex) << "row " << i;
  }

  // Carrier-sense edge sequences: every node saw busy/idle alternation,
  // three busy episodes each in this scenario.
  for (int n = 0; n < 4; ++n) {
    const std::vector<bool> want = {true, false, true, false, true, false};
    EXPECT_EQ(rec[n].cs_edges, want) << "node " << n;
  }

  EXPECT_EQ(medium.frames_sent(phy::FrameType::kData), 4u);
  EXPECT_EQ(medium.frames_sent(phy::FrameType::kAck), 1u);
  EXPECT_EQ(medium.frames_sent(phy::FrameType::kRopResponse), 2u);
  EXPECT_EQ(medium.frames_sent(phy::FrameType::kPoll), 0u);
}

}  // namespace
}  // namespace dmn
