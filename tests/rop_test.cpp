// Unit tests: ROP — Table 1 parameters, the Figure 3 subcarrier map, the
// signal-level OFDM polling PHY (Figures 5/6 behaviours) and the protocol
// pieces (subchannel allocator, MAC-level link model). The client's 6-bit
// queue report and the exchange's airtime are checked in domino_test.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "api/experiment.h"
#include "rop/params.h"
#include "rop/poll_planner.h"
#include "rop/rop_phy.h"
#include "rop/rop_protocol.h"
#include "rop/subchannel_map.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace dmn::rop {
namespace {

TEST(RopParams, Table1Defaults) {
  RopParams p;
  EXPECT_EQ(p.fft_size, 256u);
  EXPECT_EQ(p.data_per_subchannel, 6u);
  EXPECT_EQ(p.guard_per_subchannel, 3u);
  EXPECT_EQ(p.num_subchannels, 24u);
  EXPECT_EQ(p.cp_samples, 64u);                    // 3.2 us at 20 MHz
  EXPECT_EQ(p.max_queue_report(), 63u);            // 2^6 - 1
  EXPECT_EQ(p.symbol_duration(), usec(16));        // Table 1 symbol time
}

TEST(SubchannelMap, AllBinsDisjointAndDcUnused) {
  RopParams p;
  SubchannelMap map(p);
  std::set<std::size_t> used;
  for (std::size_t sc = 0; sc < p.num_subchannels; ++sc) {
    for (std::size_t b : map.data_bins(sc)) {
      EXPECT_TRUE(used.insert(b).second) << "bin reused: " << b;
      EXPECT_NE(b, 0u) << "DC subcarrier must stay unused";
    }
    for (std::size_t b : map.guard_bins(sc)) {
      EXPECT_TRUE(used.insert(b).second);
      EXPECT_NE(b, 0u);
    }
  }
  // 24 x (6 + 3) bins used; remainder (39) plus DC form the guard band.
  EXPECT_EQ(used.size(), 24u * 9u);
}

TEST(SubchannelMap, EdgeGuardBandMatchesFigure3) {
  RopParams p;
  SubchannelMap map(p);
  std::set<std::size_t> used;
  used.insert(0);  // DC
  for (std::size_t sc = 0; sc < p.num_subchannels; ++sc) {
    for (std::size_t b : map.data_bins(sc)) used.insert(b);
    for (std::size_t b : map.guard_bins(sc)) used.insert(b);
  }
  EXPECT_EQ(p.fft_size - used.size(), 39u);  // "39 subcarriers guard band"
}

TEST(SubchannelMap, SplitsAcrossSpectrumHalves) {
  RopParams p;
  SubchannelMap map(p);
  // Subchannels 0..11 on positive bins, 12..23 on negative (wrapped) bins.
  EXPECT_LT(map.data_bin(0, 0), p.fft_size / 2);
  EXPECT_GT(map.data_bin(12, 0), p.fft_size / 2);
}

TEST(SubchannelMap, AdjacentDistanceEqualsGuardPlusOne) {
  RopParams p;
  SubchannelMap map(p);
  // Neighbouring subchannels on the same side: nearest data bins are
  // separated by guard+1 bins.
  EXPECT_EQ(map.bin_distance(0, 1), p.guard_per_subchannel + 1);
}

// ---- Negative paths: layout and capacity guards ----------------------------

TEST(SubchannelMap, RejectsLayoutExceedingHalfSpectrum) {
  RopParams p;
  p.guard_per_subchannel = 10;  // block = 16; 12 per side * 16 + 1 > 128
  try {
    SubchannelMap map(p);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Exact message pin: the error names the poll symbol and the per-symbol
    // subchannel capacity so dense multi-symbol misconfigurations are
    // diagnosable from the message alone.
    EXPECT_STREQ(e.what(),
                 "SubchannelMap: poll symbol 0 layout exceeds half "
                 "spectrum: 12 subchannels per side x 16 bins + 1 edge "
                 "guard > 128 bins; a poll symbol carries at most 24 "
                 "subchannels");
  }
}

TEST(SubchannelMap, RejectionNamesTheFailingSymbolIndex) {
  RopParams p;
  p.guard_per_subchannel = 10;  // same oversized layout as above
  try {
    SubchannelMap map(p, /*symbol_index=*/3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "SubchannelMap: poll symbol 3 layout exceeds half "
                 "spectrum: 12 subchannels per side x 16 bins + 1 edge "
                 "guard > 128 bins; a poll symbol carries at most 24 "
                 "subchannels");
  }
}

TEST(SubchannelMap, AcceptsTightestFittingLayout) {
  RopParams p;
  p.guard_per_subchannel = 4;  // block = 10; 12 * 10 + 1 = 121 <= 128
  SubchannelMap map(p);
  EXPECT_EQ(map.num_subchannels(), 24u);
}

TEST(RopCapacity, DominoRejectsMoreClientsThanSubchannels) {
  // The AP polls all of its clients in one ROP symbol, one subchannel
  // each; a 25th client would silently share a subchannel and collide.
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  for (int i = 0; i < 25; ++i) b.add_client(ap);
  api::ExperimentConfig cfg;
  cfg.scheme = api::Scheme::kDomino;
  cfg.duration = msec(10);
  try {
    api::run_experiment(b.build(), cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "DOMINO: AP " + std::to_string(ap) +
                  " serves 25 clients but ROP polls at most 24 "
                  "subchannels per symbol"),
              std::string::npos)
        << e.what();
  }
}

TEST(RopCapacity, DominoAcceptsExactlyFullSymbol) {
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  for (int i = 0; i < 24; ++i) b.add_client(ap);
  (void)ap;
  api::ExperimentConfig cfg;
  cfg.scheme = api::Scheme::kDomino;
  cfg.duration = msec(50);
  cfg.traffic.downlink_bps = 1e5;
  EXPECT_NO_THROW(api::run_experiment(b.build(), cfg));
}

// ---- per-AP static slot table ----------------------------------------------

TEST(SlotTable, FirstFitFillsSymbolsInOrderAndCountsThem) {
  RopParams p;
  p.poll_mode = PollMode::kMultiSymbol;
  p.max_poll_symbols = 2;
  SlotTable table(p);
  EXPECT_EQ(table.symbols(), 1u) << "an empty AP still polls one symbol";
  for (topo::NodeId c = 0; c < 24; ++c) {
    const auto s = table.take(c);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->symbol, 0u);
    EXPECT_EQ(s->subchannel, static_cast<std::size_t>(c));
  }
  EXPECT_EQ(table.symbols(), 1u);
  const auto spill = table.take(100);
  ASSERT_TRUE(spill.has_value());
  EXPECT_EQ(spill->symbol, 1u);
  EXPECT_EQ(spill->subchannel, 0u);
  EXPECT_EQ(table.symbols(), 2u);
  table.release(100);
  EXPECT_EQ(table.symbols(), 1u) << "symbol 1 emptied";
  table.release(100);  // releasing twice is a no-op
  EXPECT_EQ(table.symbols(), 1u);
}

TEST(SlotTable, RejoinKeepsItsSlotOnlyWhileFree) {
  RopParams p;
  SlotTable table(p);
  for (topo::NodeId c = 0; c < 10; ++c) ASSERT_TRUE(table.take(c));
  const PollSlot old{3, 3, 0};
  table.release(3);
  // Nobody took it: the rejoin gets its old slot back.
  EXPECT_EQ(table.take(3, old)->subchannel, 3u);
  // Someone took it meanwhile: the rejoin falls back to the first free slot.
  table.release(3);
  EXPECT_EQ(table.take(50)->subchannel, 3u);
  EXPECT_EQ(table.take(3, old)->subchannel, 10u);
}

TEST(SlotTable, LegacyIsTheOneSymbolCase) {
  RopParams p;  // kLegacy
  EXPECT_EQ(p.symbol_cap(), 1u);
  SlotTable table(p);
  for (topo::NodeId c = 0; c < 24; ++c) ASSERT_TRUE(table.take(c));
  EXPECT_FALSE(table.take(24).has_value()) << "the one poll symbol is full";
  EXPECT_EQ(table.symbols(), 1u);
  p.poll_mode = PollMode::kMultiSymbol;
  p.max_poll_symbols = 1;
  EXPECT_EQ(p.client_capacity(), 24u);
}

TEST(Allocator, SortsByRssForAdjacency) {
  RopParams p;
  SubchannelAllocator alloc(p);
  const std::vector<topo::NodeId> clients = {10, 11, 12};
  const std::vector<double> rss = {-80.0, -50.0, -65.0};
  const auto out = alloc.assign(clients, rss);
  ASSERT_EQ(out.size(), 3u);
  // Strongest client gets subchannel 0; order follows descending RSS.
  EXPECT_EQ(out[0].client, 11);
  EXPECT_EQ(out[1].client, 12);
  EXPECT_EQ(out[2].client, 10);
  EXPECT_EQ(out[0].subchannel, 0u);
}

TEST(Allocator, InsertsGapAboveTolerance) {
  RopParams p;
  SubchannelAllocator alloc(p);
  const std::vector<topo::NodeId> clients = {1, 2};
  const std::vector<double> rss = {-30.0, -75.0};  // 45 dB apart > 38
  const auto out = alloc.assign(clients, rss);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_GE(out[1].subchannel - out[0].subchannel, 2u);  // gap inserted
}

TEST(Allocator, SplitsIntoRoundsBeyond24) {
  RopParams p;
  SubchannelAllocator alloc(p);
  std::vector<topo::NodeId> clients;
  std::vector<double> rss;
  for (int i = 0; i < 30; ++i) {
    clients.push_back(i);
    rss.push_back(-60.0 - i * 0.1);
  }
  const auto out = alloc.assign(clients, rss);
  ASSERT_EQ(out.size(), 30u);
  std::size_t round1 = 0;
  for (const auto& a : out) {
    if (a.round == 1) ++round1;
    EXPECT_LT(a.subchannel, 24u);
  }
  EXPECT_EQ(round1, 6u);  // 30 - 24 overflow into the second poll round
}

TEST(LinkModel, ToleranceGrowsWithSeparationAndSaturates) {
  RopLinkModel model{RopParams{}};
  EXPECT_LT(model.tolerance_db(1), model.tolerance_db(2));
  EXPECT_LT(model.tolerance_db(2), model.tolerance_db(4));
  // Paper's design point: 3 guard subcarriers (distance 4) -> ~38 dB.
  EXPECT_NEAR(model.tolerance_db(4), 38.0, 1.0);
  // Hardware floor caps it.
  EXPECT_EQ(model.tolerance_db(10), model.tolerance_db(20));
}

TEST(LinkModel, SnrGateAtFourDb) {
  RopLinkModel model{RopParams{}};
  // -94 noise floor: -89 dBm is 5 dB SNR (pass), -91 is 3 dB (fail).
  EXPECT_TRUE(model.report_decodes(0, -89.0, {}, -94.0, 0.0));
  EXPECT_FALSE(model.report_decodes(0, -91.0, {}, -94.0, 0.0));
}

TEST(LinkModel, StrongNeighborMasksWeakClient) {
  RopLinkModel model{RopParams{}};
  // Adjacent subchannel 40 dB stronger: beyond the 38 dB tolerance.
  std::vector<RopLinkModel::CoClient> co = {{1, -20.0}};
  EXPECT_FALSE(model.report_decodes(0, -60.0, co, -94.0, 0.0));
  // 30 dB stronger: within tolerance.
  co[0].rss_dbm = -30.0;
  EXPECT_TRUE(model.report_decodes(0, -60.0, co, -94.0, 0.0));
  // Weaker neighbours never mask.
  co[0].rss_dbm = -80.0;
  EXPECT_TRUE(model.report_decodes(0, -60.0, co, -94.0, 0.0));
}

TEST(LinkModel, ExternalInterferenceFoldsIntoSnr) {
  RopLinkModel model{RopParams{}};
  // Strong client, but a jammer at -60 dBm leaves < 4 dB SINR.
  EXPECT_FALSE(model.report_decodes(0, -58.0, {}, -94.0, dbm_to_mw(-60.0)));
}

// ---- Signal-level PHY (the Figures 5/6 behaviours) -----------------------

class RopPhyTest : public ::testing::Test {
 protected:
  RopParams params_;
  RopPhy phy_{params_};
  RopImpairments imp_;
  Rng rng_{99};
};

TEST_F(RopPhyTest, SingleClientRoundTrip) {
  for (unsigned q : {1u, 7u, 42u, 63u}) {
    ClientSignal cs;
    cs.subchannel = 3;
    cs.queue_report = q;
    cs.rss_dbm = -55.0;
    EXPECT_TRUE(phy_.round_trip_ok({&cs, 1}, imp_, rng_)) << "q=" << q;
  }
}

TEST_F(RopPhyTest, AllTwentyFourClientsSimultaneously) {
  std::vector<ClientSignal> clients;
  for (std::size_t sc = 0; sc < 24; ++sc) {
    ClientSignal cs;
    cs.subchannel = sc;
    cs.queue_report = static_cast<unsigned>((sc * 7 + 1) % 64);
    if (cs.queue_report == 0) cs.queue_report = 1;
    cs.rss_dbm = -55.0 - static_cast<double>(sc % 5);
    cs.freq_offset_subcarriers = 0.01;
    cs.timing_offset_samples = sc % 8;
    clients.push_back(cs);
  }
  EXPECT_TRUE(phy_.round_trip_ok(clients, imp_, rng_));
}

TEST_F(RopPhyTest, TimingOffsetWithinCpTolerated) {
  ClientSignal cs;
  cs.subchannel = 5;
  cs.queue_report = 33;
  cs.rss_dbm = -60.0;
  cs.timing_offset_samples = params_.cp_samples - 4;  // near the CP edge
  EXPECT_TRUE(phy_.round_trip_ok({&cs, 1}, imp_, rng_));
}

TEST_F(RopPhyTest, BelowSnrGateSilent) {
  ClientSignal cs;
  cs.subchannel = 5;
  cs.queue_report = 33;
  // Far below the per-bin detection floor (the FFT concentrates a
  // subchannel's power into 6 of 256 bins, so the wideband 4 dB SNR gate
  // corresponds to a much lower total-power floor here).
  cs.rss_dbm = -120.0;
  const auto rx = phy_.synthesize({&cs, 1}, imp_, rng_);
  const auto dec = phy_.decode(rx, imp_);
  EXPECT_FALSE(dec.values[5].has_value());
}

TEST_F(RopPhyTest, EqualPowerAdjacentSubchannelsFigure5a) {
  // Figure 5(a): similar RSS on adjacent subchannels decodes cleanly even
  // though they are neighbours.
  ClientSignal a, b;
  a.subchannel = 2;
  a.queue_report = 63;  // 111111
  a.rss_dbm = -55.0;
  a.freq_offset_subcarriers = 0.01;
  b.subchannel = 3;
  b.queue_report = 62;  // 011111 (paper's pattern with one zero bit)
  b.rss_dbm = -55.5;
  b.freq_offset_subcarriers = -0.01;
  std::vector<ClientSignal> cs = {a, b};
  int ok = 0;
  for (int t = 0; t < 20; ++t) ok += phy_.round_trip_ok(cs, imp_, rng_);
  EXPECT_GE(ok, 19);
}

TEST_F(RopPhyTest, ThirtyDbMismatchNeedsGuard) {
  // Figure 5(b)/(c): 30 dB RSS mismatch corrupts the weak neighbour
  // without guards; the standard 3-guard layout survives it.
  ClientSignal strong, weak;
  strong.subchannel = 2;
  strong.queue_report = 63;
  strong.rss_dbm = -30.0;
  strong.freq_offset_subcarriers = 0.01;  // realistic residual CFO
  weak.subchannel = 3;
  weak.queue_report = 21;  // 010101: zero bits expose leakage corruption
  weak.rss_dbm = -60.0;
  weak.freq_offset_subcarriers = -0.01;
  std::vector<ClientSignal> cs = {strong, weak};

  int ok_guarded = 0;
  for (int t = 0; t < 20; ++t) ok_guarded += phy_.round_trip_ok(cs, imp_, rng_);
  EXPECT_GE(ok_guarded, 18) << "3 guard bins must survive 30 dB";

  // Zero-guard layout: the leakage lands directly on the weak client.
  RopParams p0 = params_;
  p0.guard_per_subchannel = 0;
  RopPhy phy0(p0);
  int ok_unguarded = 0;
  for (int t = 0; t < 20; ++t) {
    ok_unguarded += phy0.round_trip_ok(cs, imp_, rng_);
  }
  EXPECT_LT(ok_unguarded, ok_guarded);
}

TEST_F(RopPhyTest, ExtremeMismatchFailsEvenWithGuards) {
  // Beyond the ~38-42 dB hardware floor even 3 guards cannot help; the
  // allocator's non-adjacent assignment is the paper's answer there.
  ClientSignal strong, weak;
  strong.subchannel = 2;
  strong.queue_report = 63;
  strong.rss_dbm = -20.0;
  strong.freq_offset_subcarriers = 0.01;
  weak.subchannel = 3;
  weak.queue_report = 21;  // zero bits expose leakage corruption
  weak.rss_dbm = -70.0;  // 50 dB apart
  std::vector<ClientSignal> cs = {strong, weak};
  int ok = 0;
  for (int t = 0; t < 20; ++t) ok += phy_.round_trip_ok(cs, imp_, rng_);
  EXPECT_LT(ok, 10);
}

}  // namespace
}  // namespace dmn::rop
