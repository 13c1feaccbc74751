// Tests for the experiment facade: scheme assembly, determinism, custom
// flows, metrics plumbing, and the timeline recorder.

#include <gtest/gtest.h>

#include <sstream>

#include "api/experiment.h"
#include "api/timeline.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"

namespace dmn::api {
namespace {

topo::Topology two_cells() {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);
  b.add_client(a1);
  b.sense(a0, a1);
  return b.build();
}

class SchemeSmoke : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeSmoke, DeliversSaturatedDownlink) {
  ExperimentConfig cfg;
  cfg.scheme = GetParam();
  cfg.duration = sec(1);
  cfg.traffic.saturate_downlink = true;
  const auto r = run_experiment(two_cells(), cfg);
  EXPECT_GT(r.throughput_mbps(), 3.0) << to_string(GetParam());
  EXPECT_GE(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.0);
  EXPECT_EQ(r.links.size(), 2u);
}

TEST_P(SchemeSmoke, DeterministicForFixedSeed) {
  ExperimentConfig cfg;
  cfg.scheme = GetParam();
  cfg.duration = msec(300);
  cfg.traffic.saturate_downlink = true;
  cfg.seed = 1234;
  const auto a = run_experiment(two_cells(), cfg);
  const auto b = run_experiment(two_cells(), cfg);
  EXPECT_DOUBLE_EQ(a.aggregate_throughput_bps, b.aggregate_throughput_bps);
  EXPECT_DOUBLE_EQ(a.mean_delay_us, b.mean_delay_us);
  EXPECT_EQ(a.ack_timeouts, b.ack_timeouts);
}

TEST_P(SchemeSmoke, SeedChangesOutcome) {
  ExperimentConfig cfg;
  cfg.scheme = GetParam();
  cfg.duration = msec(300);
  cfg.traffic.saturate_downlink = true;
  cfg.seed = 1;
  const auto a = run_experiment(two_cells(), cfg);
  cfg.seed = 2;
  const auto b = run_experiment(two_cells(), cfg);
  // Not a strict requirement per scheme, but delays should differ for
  // contention-based schemes; accept equality only for zero variance
  // schemes (omniscient).
  if (GetParam() == Scheme::kDcf) {
    EXPECT_NE(a.mean_delay_us, b.mean_delay_us);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeSmoke,
                         ::testing::Values(Scheme::kDcf, Scheme::kCentaur,
                                           Scheme::kDomino,
                                           Scheme::kOmniscient));

TEST(Experiment, CustomFlowsOnlyThoseCarry) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDcf;
  cfg.duration = sec(1);
  cfg.traffic.custom = {FlowSpec{0, 2}};  // only AP0 -> its client
  const auto r = run_experiment(two_cells(), cfg);
  ASSERT_EQ(r.links.size(), 1u);
  EXPECT_EQ(r.links[0].flow.src, 0);
  EXPECT_EQ(r.links[0].flow.dst, 2);
  EXPECT_GT(r.links[0].throughput_bps, 1e6);
}

TEST(Experiment, UplinkFlagDerivedFromTopology) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDcf;
  cfg.duration = msec(300);
  cfg.traffic.custom = {FlowSpec{2, 0}, FlowSpec{0, 2}};
  const auto r = run_experiment(two_cells(), cfg);
  ASSERT_EQ(r.links.size(), 2u);
  EXPECT_TRUE(r.links[0].uplink);
  EXPECT_FALSE(r.links[1].uplink);
}

TEST(Experiment, CensusReported) {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);
  const auto c1 = b.add_client(a1);
  b.interfere(a0, c1);
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDcf;
  cfg.duration = msec(100);
  cfg.traffic.saturate_downlink = true;
  const auto r = run_experiment(b.build(), cfg);
  EXPECT_GE(r.census.hidden, 1u);
}

TEST(Experiment, RateLimitedMatchesOffered) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDcf;
  cfg.duration = sec(2);
  cfg.traffic.downlink_bps = 1e6;
  const auto r = run_experiment(two_cells(), cfg);
  EXPECT_NEAR(r.throughput_mbps(), 2.0, 0.1);  // 2 flows x 1 Mbps
  EXPECT_LT(r.mean_delay_us, 5000.0);
}

// A CBR arrival costs no event of its own: once the queues stay full,
// tripling the offered rate only adds drops, which are counters. The event
// count is telemetry (never serialized), so this guards the cost model,
// not a result.
TEST(Experiment, SaturatedEventCountDoesNotScaleWithOfferedRate) {
  for (const Scheme s : {Scheme::kDcf, Scheme::kDomino}) {
    SCOPED_TRACE(to_string(s));
    std::uint64_t events[2] = {0, 0};
    const double rates[2] = {10e6, 30e6};
    for (int i = 0; i < 2; ++i) {
      ExperimentConfig cfg;
      cfg.scheme = s;
      cfg.duration = msec(300);
      cfg.traffic.downlink_bps = rates[i];
      events[i] = run_experiment(two_cells(), cfg).events_executed;
    }
    EXPECT_NEAR(static_cast<double>(events[1]),
                static_cast<double>(events[0]),
                0.01 * static_cast<double>(events[0]));
  }
}

TEST(Experiment, TcpOverDcfConverges) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDcf;
  cfg.duration = sec(3);
  cfg.traffic.kind = TrafficKind::kTcp;
  cfg.traffic.downlink_bps = 10e6;
  const auto r = run_experiment(two_cells(), cfg);
  EXPECT_GT(r.throughput_mbps(), 3.0);
}

TEST(Experiment, TraceDrivenTmnAllSchemesRun) {
  Rng rng(5);
  const auto trace = topo::synthesize_trace({}, rng);
  const auto t = topo::Topology::build_tmn(trace.rss, 4, 2, {}, rng);
  for (Scheme s : {Scheme::kDcf, Scheme::kCentaur, Scheme::kDomino,
                   Scheme::kOmniscient}) {
    ExperimentConfig cfg;
    cfg.scheme = s;
    cfg.duration = msec(400);
    cfg.traffic.downlink_bps = 5e6;
    const auto r = run_experiment(t, cfg);
    EXPECT_GT(r.throughput_mbps(), 0.5) << to_string(s);
  }
}

// ---- Timeline recorder -----------------------------------------------------

TEST(Timeline, MisalignmentMath) {
  TimelineRecorder rec;
  rec.record_tx(5, 0, 1, usec(100), false, false);
  rec.record_tx(5, 2, 3, usec(117), false, false);
  rec.record_tx(6, 0, 1, usec(600), false, false);
  EXPECT_DOUBLE_EQ(rec.misalignment_us(5), 17.0);
  EXPECT_DOUBLE_EQ(rec.misalignment_us(6), 0.0);
  EXPECT_DOUBLE_EQ(rec.misalignment_us(7), 0.0);  // unknown slot
  EXPECT_EQ(rec.first_slot(), 5u);
  EXPECT_EQ(rec.last_slot(), 6u);
  const auto series = rec.misalignment_series(5, 2);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 17.0);
}

TEST(Timeline, PrintsReadableTimeline) {
  TimelineRecorder rec;
  rec.record_tx(1, 0, 4, usec(10), false, false);
  rec.record_tx(1, 5, 2, usec(11), true, true);
  rec.record_poll(1, 0, usec(500));
  std::ostringstream os;
  rec.print(os, 1, 1);
  const std::string s = os.str();
  EXPECT_NE(s.find("slot 1"), std::string::npos);
  EXPECT_NE(s.find("[fake]"), std::string::npos);
  EXPECT_NE(s.find("ROP poll"), std::string::npos);
}

}  // namespace
}  // namespace dmn::api
