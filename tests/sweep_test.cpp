// Tests for the scheme + sweep layer: every scheme builds through its
// stack, an out-of-range scheme is rejected, the determinism contract
// (1-thread vs N-thread sweeps are bit-identical), error propagation out of
// the pool, and the result codec
// driven by the field tables in api/metrics.h (pinned bytes, round trip of
// every result metric, telemetry kept out of the bytes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/experiment.h"
#include "api/sweep.h"
#include "api/sweep_io.h"
#include "audit/audit.h"
#include "topo/dynamics.h"
#include "topo/topology.h"

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

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.duration = msec(300);
  cfg.traffic.saturate_downlink = true;
  return cfg;
}

SweepOptions threads(std::size_t n) {
  SweepOptions opts;
  opts.num_threads = n;
  return opts;
}

// ---- scheme selection ------------------------------------------------------

constexpr Scheme kAllSchemes[] = {Scheme::kDcf, Scheme::kCentaur,
                                  Scheme::kDomino, Scheme::kOmniscient};

// Every scheme must assemble and run through its stack.
TEST(SchemeStack, EverySchemeBuildsAndRuns) {
  for (Scheme s : kAllSchemes) {
    ExperimentConfig cfg = base_config();
    cfg.scheme = s;
    const auto r = run_experiment(two_cells(), cfg);
    EXPECT_GT(r.throughput_mbps(), 1.0) << to_string(s);
    EXPECT_EQ(r.links.size(), 2u) << to_string(s);
  }
}

// A value outside the enumerators is the one scheme the facade rejects:
// make_stack throws std::invalid_argument, and the sweep runner records it
// as an error outcome without disturbing the other points.
TEST(SchemeStack, OutOfRangeSchemeIsRejected) {
  ExperimentConfig bad = base_config();
  bad.scheme = static_cast<Scheme>(99);
  EXPECT_THROW(run_experiment(two_cells(), bad), std::invalid_argument);

  auto points = seed_sweep(two_cells(), base_config(), 1, 2);
  points[1].config.scheme = static_cast<Scheme>(99);
  SweepRunner runner(threads(1));
  const auto report = runner.run_outcomes(points);
  EXPECT_EQ(report.outcomes[0].status, PointStatus::kOk);
  ASSERT_EQ(report.outcomes[1].status, PointStatus::kError);
  EXPECT_NE(report.outcomes[1].error_type.find("invalid_argument"),
            std::string::npos);
  EXPECT_NE(report.outcomes[1].error_message.find("99"), std::string::npos);
}

// ---- sweep runner ----------------------------------------------------------

TEST(SweepRunner, SeedSweepBuilderShapesPoints) {
  const auto points = seed_sweep(two_cells(), base_config(), 100, 5);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points.front().config.seed, 100u);
  EXPECT_EQ(points.back().config.seed, 104u);
  EXPECT_EQ(points.front().label, "seed 100");
}

// The acceptance-criterion test: a 16-point seed sweep run serially and on
// a pool produces identical results, for every scheme.
TEST(SweepRunner, ParallelIdenticalToSerial16Seeds) {
  for (Scheme s : kAllSchemes) {
    ExperimentConfig cfg = base_config();
    cfg.scheme = s;
    cfg.duration = msec(150);
    const auto points = seed_sweep(two_cells(), cfg, 1, 16);

    SweepRunner serial(threads(1));
    SweepRunner pooled(threads(4));
    const SweepReport a = serial.run_outcomes(points);
    const SweepReport b = pooled.run_outcomes(points);
    EXPECT_EQ(serial.stats().threads, 1u);
    EXPECT_EQ(pooled.stats().threads, 4u);
    ASSERT_EQ(a.outcomes.size(), 16u);
    EXPECT_TRUE(a.all_ok()) << to_string(s);
    EXPECT_EQ(serialize_report(a), serialize_report(b)) << to_string(s);
  }
}

TEST(SweepRunner, DistinctSeedsGiveDistinctResults) {
  ExperimentConfig cfg = base_config();
  cfg.scheme = Scheme::kDcf;
  const SweepReport report = SweepRunner(threads(2))
                                 .run_outcomes(seed_sweep(two_cells(), cfg,
                                                          1, 2));
  ASSERT_TRUE(report.all_ok());
  EXPECT_NE(report.result(0).mean_delay_us, report.result(1).mean_delay_us);
}

TEST(SweepRunner, ProgressCallbackCoversAllPoints) {
  ExperimentConfig cfg = base_config();
  cfg.duration = msec(50);
  std::vector<std::size_t> seen;
  SweepOptions opts;
  opts.num_threads = 3;
  opts.on_progress = [&seen](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 6u);
    seen.push_back(done);
  };
  SweepRunner runner(opts);
  const SweepReport report =
      runner.run_outcomes(seed_sweep(two_cells(), cfg, 1, 6));
  EXPECT_EQ(report.outcomes.size(), 6u);
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_GT(runner.stats().wall_seconds, 0.0);
  EXPECT_EQ(runner.stats().points, 6u);
}

// ---- result codec ----------------------------------------------------------

// Serialized results of three fixed points, captured before the codec was
// rebuilt on the field tables: the format is byte-for-byte the same. The
// DOMINO bytes were re-taken when the controller began to learn downlink
// backlog only from batch-tagged AP reports. Line breaks are for width only
// and are stripped before comparing.
constexpr const char* kStaticDcfBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":4423680,"mean_delay_us":43504.671037037035,
"delivered":108},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":4341760,"mean_delay_us":44543.258773584901,
"delivered":106}],"aggregate_throughput_bps":8765440,
"jain_fairness":0.99991266375545851,"mean_delay_us":44019.111691588783,
"ack_timeouts":0,"mac_drops":1336,"census_hidden":0,"census_exposed":1,
"census_total":1,"domino_self_starts":0,"domino_missed_rows":0,
"domino_rows_executed":0,"domino_untriggerable":0,"domino_batches":0,
"domino_retry_drops":0,"domino_anchor_rejections":0,
"domino_forced_trigger_losses":0,"domino_controller_outage_skips":0,
"recovery_slots":[],"ap_health":[],"fault_backbone_drops":0,
"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":0,"lifecycle_rss_updates":0,"lifecycle_joins":0,
"lifecycle_leaves":0,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

constexpr const char* kDominoFaultsBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":6198613.333333334,"mean_delay_us":47521.80430396476,
"delivered":227},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":6690133.333333334,"mean_delay_us":46257.670159183675,
"delivered":245}],"aggregate_throughput_bps":12888746.666666668,
"jain_fairness":0.99854778851497927,"mean_delay_us":46865.632978813555,
"ack_timeouts":101,"mac_drops":0,"census_hidden":0,"census_exposed":1,
"census_total":1,"domino_self_starts":5,"domino_missed_rows":0,
"domino_rows_executed":576,"domino_untriggerable":0,"domino_batches":32,
"domino_retry_drops":0,"domino_anchor_rejections":0,
"domino_forced_trigger_losses":7,"domino_controller_outage_skips":0,
"recovery_slots":[0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639],"ap_health":[{"ap":0,
"self_starts":3,"missed_rows":0,"ack_timeouts":50,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":2,"recovery_samples":2},{"ap":1,
"self_starts":2,"missed_rows":0,"ack_timeouts":51,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":5,"recovery_samples":5}],
"fault_backbone_drops":10,"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":30,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":7,"fault_forced_false_positives":0,
"lifecycle_epochs":0,"lifecycle_rss_updates":0,"lifecycle_joins":0,
"lifecycle_leaves":0,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

constexpr const char* kChurnBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":1843200,"mean_delay_us":18991.768,"delivered":90},
{"flow_id":1,"src":2,"dst":0,"uplink":true,"throughput_bps":675840,
"mean_delay_us":1327.9999393939395,"delivered":33},{"flow_id":2,"src":0,
"dst":3,"uplink":false,"throughput_bps":4341760,
"mean_delay_us":21777.541811320756,"delivered":212},{"flow_id":3,"src":3,
"dst":0,"uplink":true,"throughput_bps":1003520,
"mean_delay_us":1121.6530612244896,"delivered":49},{"flow_id":4,"src":1,
"dst":4,"uplink":false,"throughput_bps":2641920,
"mean_delay_us":38910.884922480618,"delivered":129},{"flow_id":5,"src":4,
"dst":1,"uplink":true,"throughput_bps":1003520,
"mean_delay_us":1138.6873469387756,"delivered":49},{"flow_id":6,"src":1,
"dst":5,"uplink":false,"throughput_bps":2498560,
"mean_delay_us":35276.942213114751,"delivered":122},{"flow_id":7,"src":5,
"dst":1,"uplink":true,"throughput_bps":839680,
"mean_delay_us":1019.6333170731707,"delivered":41}],
"aggregate_throughput_bps":14848000,"jain_fairness":0.71307154252721372,
"mean_delay_us":21856.241011034483,"ack_timeouts":8,"mac_drops":69,
"census_hidden":0,"census_exposed":0,"census_total":8,
"domino_self_starts":0,"domino_missed_rows":0,"domino_rows_executed":0,
"domino_untriggerable":0,"domino_batches":0,"domino_retry_drops":0,
"domino_anchor_rejections":0,"domino_forced_trigger_losses":0,
"domino_controller_outage_skips":0,"recovery_slots":[],"ap_health":[],
"fault_backbone_drops":0,"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":9,"lifecycle_rss_updates":5,"lifecycle_joins":1,
"lifecycle_leaves":2,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

std::string pinned(const char* wrapped) {
  std::string s(wrapped);
  s.erase(std::remove(s.begin(), s.end(), '\n'), s.end());
  return s;
}

std::string serialized_run(const topo::Topology& t,
                           const ExperimentConfig& cfg) {
  return serialize_result(run_experiment(t, cfg));
}

void expect_pinned(const std::string& bytes, const char* wrapped) {
  const std::string want = pinned(wrapped);
  EXPECT_EQ(bytes, want);
  EXPECT_EQ(serialize_result(deserialize_result(parse_json(want))), want);
}

TEST(ResultCodec, PinnedBytesStaticDcf) {
  ExperimentConfig cfg;
  cfg.sim_threads = -1;  // classic-kernel bytes, whatever DMN_SIM_THREADS
  cfg.duration = msec(100);
  cfg.traffic.saturate_downlink = true;
  cfg.seed = 3;
  expect_pinned(serialized_run(two_cells(), cfg), kStaticDcfBytes);
}

TEST(ResultCodec, PinnedBytesDominoWithFaults) {
  ExperimentConfig cfg;
  cfg.sim_threads = -1;  // classic-kernel bytes, whatever DMN_SIM_THREADS
  cfg.scheme = Scheme::kDomino;
  cfg.duration = msec(150);
  cfg.traffic.saturate_downlink = true;
  cfg.seed = 5;
  cfg.faults.backbone.drop_rate = 0.05;
  cfg.faults.interference.duty = 0.1;
  cfg.faults.signature.false_negative_rate = 0.02;
  expect_pinned(serialized_run(two_cells(), cfg), kDominoFaultsBytes);
}

TEST(ResultCodec, PinnedBytesChurn) {
  Rng rng(11);
  const auto t = topo::make_floorplan_topology({}, 2, 2, {}, rng);
  ExperimentConfig cfg;
  cfg.sim_threads = -1;  // classic-kernel bytes, whatever DMN_SIM_THREADS
  cfg.duration = msec(200);
  cfg.traffic.downlink_bps = 5e6;
  cfg.traffic.uplink_bps = 1e6;
  cfg.dynamics.epoch = msec(20);
  cfg.dynamics.churn_rate_hz = 4.0;
  cfg.dynamics.churn_downtime = msec(40);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.roam.min_dwell = msec(40);
  expect_pinned(serialized_run(t, cfg), kChurnBytes);
}

constexpr const char* kCampusDcfBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":3618133.3333333335,"mean_delay_us":55481.140396226416,
"delivered":106},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":3754666.666666667,"mean_delay_us":53043.828272727274,
"delivered":110},{"flow_id":2,"src":4,"dst":6,"uplink":false,
"throughput_bps":3788800,"mean_delay_us":56145.284315315315,
"delivered":111},{"flow_id":3,"src":5,"dst":7,"uplink":false,
"throughput_bps":3584000,"mean_delay_us":51976.479314285716,
"delivered":105}],"aggregate_throughput_bps":14745600,
"jain_fairness":0.99944304014395258,"mean_delay_us":54179.34925694445,
"ack_timeouts":45,"mac_drops":3368,"census_hidden":0,"census_exposed":2,
"census_total":6,"domino_self_starts":0,"domino_missed_rows":0,
"domino_rows_executed":0,"domino_untriggerable":0,"domino_batches":0,
"domino_retry_drops":0,"domino_anchor_rejections":0,
"domino_forced_trigger_losses":0,"domino_controller_outage_skips":0,
"recovery_slots":[],"ap_health":[],"fault_backbone_drops":0,
"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":24,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":0,"lifecycle_rss_updates":0,"lifecycle_joins":0,
"lifecycle_leaves":0,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

constexpr const char* kCampusDominoBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":6109866.666666667,"mean_delay_us":46783.212899441336,
"delivered":179},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":6826666.666666667,"mean_delay_us":41480.04406,
"delivered":200},{"flow_id":2,"src":4,"dst":6,"uplink":false,
"throughput_bps":6860800,"mean_delay_us":41612.108084577114,"delivered":201},
{"flow_id":3,"src":5,"dst":7,"uplink":false,
"throughput_bps":6382933.333333334,"mean_delay_us":42870.630534759359,
"delivered":187}],"aggregate_throughput_bps":26180266.666666672,
"jain_fairness":0.99770200324263492,"mean_delay_us":43091.324062581487,
"ack_timeouts":174,"mac_drops":0,"census_hidden":0,"census_exposed":2,
"census_total":6,"domino_self_starts":8,"domino_missed_rows":0,
"domino_rows_executed":947,"domino_untriggerable":0,"domino_batches":26,
"domino_retry_drops":0,"domino_anchor_rejections":6,
"domino_forced_trigger_losses":10,"domino_controller_outage_skips":0,
"recovery_slots":[0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639],"ap_health":[{"ap":0,
"self_starts":4,"missed_rows":0,"ack_timeouts":39,"retry_drops":0,
"anchor_rejections":4,"forced_trigger_losses":2,"recovery_samples":2},{"ap":1,
"self_starts":1,"missed_rows":0,"ack_timeouts":46,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":3,"recovery_samples":3},{"ap":4,
"self_starts":1,"missed_rows":0,"ack_timeouts":45,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":3,"recovery_samples":3},{"ap":5,
"self_starts":2,"missed_rows":0,"ack_timeouts":44,"retry_drops":0,
"anchor_rejections":2,"forced_trigger_losses":2,"recovery_samples":2}],
"fault_backbone_drops":12,"fault_backbone_dups":6,"fault_backbone_spikes":12,
"fault_interference_bursts":24,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":10,"fault_forced_false_positives":0,
"lifecycle_epochs":0,"lifecycle_rss_updates":0,"lifecycle_joins":0,
"lifecycle_leaves":0,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

/// Two radio-isolated buildings, each a sensing AP pair with one client per
/// AP: two interference partitions plus the wired queue.
topo::Topology two_building_campus() {
  topo::ManualTopologyBuilder b;
  for (int k = 0; k < 2; ++k) {
    const auto a0 = b.add_ap();
    const auto a1 = b.add_ap();
    b.sense(a0, a1);
    b.add_client(a0);
    b.add_client(a1);
  }
  return b.build();
}

// Partitioned campus bytes pinned against an earlier build, at 1 and 4
// threads. Backbone drop/dup/spike and signature false negatives draw from
// the per-queue RNG lanes, the interference burst phase from the root
// stream, and every check lands on its queue's auditor: moving the lane
// forking order, the phase draw or the per-queue auditor wiring changes
// the bytes or the audit check count.
TEST(ResultCodec, PinnedBytesPartitionedCampusWithFaultsAndAudit) {
  const struct {
    Scheme scheme;
    const char* bytes;
    std::uint64_t checks_run;
  } cases[] = {{Scheme::kDcf, kCampusDcfBytes, 6552},
               {Scheme::kDomino, kCampusDominoBytes, 12764}};
  const auto t = two_building_campus();
  for (const auto& c : cases) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(to_string(c.scheme)) + " at " +
                   std::to_string(threads) + " threads");
      ExperimentConfig cfg;
      cfg.scheme = c.scheme;
      cfg.duration = msec(120);
      cfg.seed = 7;
      cfg.traffic.saturate_downlink = true;
      cfg.sim_threads = threads;
      cfg.faults.backbone.drop_rate = 0.05;
      cfg.faults.backbone.dup_rate = 0.05;
      cfg.faults.backbone.spike_rate = 0.05;
      cfg.faults.interference.duty = 0.1;
      cfg.faults.signature.false_negative_rate = 0.02;
      cfg.audit.mode = audit::AuditMode::kRecord;
      const ExperimentResult r = run_experiment(t, cfg);
      EXPECT_EQ(r.sim_partitions, 2u);
      expect_pinned(serialize_result(r), c.bytes);
      ASSERT_NE(r.audit, nullptr);
      EXPECT_EQ(r.audit->checks_run, c.checks_run);
      EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
    }
  }
}

// Serialized DOMINO results of the poll paths the per-AP slot table
// replaced, captured from the build before it and re-taken when the
// controller moved to batch-tagged AP reports: the single-symbol legacy
// path (static, and under churn and roaming) and the static multi-symbol
// rosters of a 26-client cell split over two poll symbols.
constexpr const char* kLegacyStaticBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":436906.66666666669,"mean_delay_us":16685.491000000002,
"delivered":16},{"flow_id":1,"src":2,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":49911.923999999999,
"delivered":13},{"flow_id":2,"src":0,"dst":3,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":60623.203384615386,
"delivered":13},{"flow_id":3,"src":3,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":50788.263615384618,
"delivered":13},{"flow_id":4,"src":0,"dst":4,"uplink":false,
"throughput_bps":327680,"mean_delay_us":45559.735999999997,"delivered":12},
{"flow_id":5,"src":4,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":52008.854692307694,
"delivered":13},{"flow_id":6,"src":0,"dst":5,"uplink":false,
"throughput_bps":273066.66666666669,"mean_delay_us":50842.813999999998,
"delivered":10},{"flow_id":7,"src":5,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":53200.596230769232,
"delivered":13},{"flow_id":8,"src":0,"dst":6,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":68026.894,"delivered":13},
{"flow_id":9,"src":6,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":53474.317846153848,
"delivered":13},{"flow_id":10,"src":0,"dst":7,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":71588.140538461535,
"delivered":13},{"flow_id":11,"src":7,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":55679.546000000002,
"delivered":13},{"flow_id":12,"src":0,"dst":8,"uplink":false,
"throughput_bps":327680,"mean_delay_us":53000.144999999997,"delivered":12},
{"flow_id":13,"src":8,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":55804.464615384619,
"delivered":13},{"flow_id":14,"src":0,"dst":9,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":71390.233076923076,
"delivered":13},{"flow_id":15,"src":9,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":57129.606692307694,
"delivered":13},{"flow_id":16,"src":0,"dst":10,"uplink":false,
"throughput_bps":327680,"mean_delay_us":66123.437999999995,"delivered":12},
{"flow_id":17,"src":10,"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":54524.470999999998,"delivered":12},{"flow_id":18,"src":0,
"dst":11,"uplink":false,"throughput_bps":327680,
"mean_delay_us":64826.272333333334,"delivered":12},{"flow_id":19,"src":11,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":55384.688333333339,"delivered":12},{"flow_id":20,"src":0,
"dst":12,"uplink":false,"throughput_bps":327680,
"mean_delay_us":70050.837666666674,"delivered":12},{"flow_id":21,"src":12,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":56095.720333333338,"delivered":12},{"flow_id":22,"src":0,
"dst":13,"uplink":false,"throughput_bps":327680,
"mean_delay_us":68163.482666666678,"delivered":12},{"flow_id":23,"src":13,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":57186.042666666661,"delivered":12},{"flow_id":24,"src":1,
"dst":14,"uplink":false,"throughput_bps":273066.66666666669,
"mean_delay_us":11915.6,"delivered":10},{"flow_id":25,"src":14,"dst":1,
"uplink":true,"throughput_bps":382293.33333333337,
"mean_delay_us":52698.474999999999,"delivered":14},{"flow_id":26,"src":1,
"dst":15,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":63626.107615384615,"delivered":13},{"flow_id":27,"src":15,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":50878.928307692302,"delivered":13},{"flow_id":28,"src":1,
"dst":16,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":69355.313846153847,"delivered":13},{"flow_id":29,"src":16,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":51692.950461538465,"delivered":13},{"flow_id":30,"src":1,
"dst":17,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":56553.177461538464,"delivered":13},{"flow_id":31,"src":17,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":52644.620538461539,"delivered":13},{"flow_id":32,"src":1,
"dst":18,"uplink":false,"throughput_bps":273066.66666666669,
"mean_delay_us":49867.940000000002,"delivered":10},{"flow_id":33,"src":18,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":53615.569615384615,"delivered":13},{"flow_id":34,"src":1,
"dst":19,"uplink":false,"throughput_bps":300373.33333333337,
"mean_delay_us":55887.899454545455,"delivered":11},{"flow_id":35,"src":19,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":54478.788307692303,"delivered":13},{"flow_id":36,"src":1,
"dst":20,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":69839.690230769236,"delivered":13},{"flow_id":37,"src":20,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":54673.47592307692,"delivered":13},{"flow_id":38,"src":1,
"dst":21,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":65717.007923076919,"delivered":13},{"flow_id":39,"src":21,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":55621.192000000003,"delivered":13},{"flow_id":40,"src":1,
"dst":22,"uplink":false,"throughput_bps":273066.66666666669,
"mean_delay_us":56284.597000000002,"delivered":10},{"flow_id":41,"src":22,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":56643.767076923083,"delivered":13},{"flow_id":42,"src":1,
"dst":23,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":55103.098153846149,"delivered":13},{"flow_id":43,"src":23,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":57628.37423076923,"delivered":13},{"flow_id":44,"src":1,
"dst":24,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":74021.427538461532,"delivered":13},{"flow_id":45,"src":24,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":58823.748153846151,"delivered":13},{"flow_id":46,"src":1,
"dst":25,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":55208.14246153846,"delivered":13},{"flow_id":47,"src":25,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":60102.578230769235,"delivered":13}],
"aggregate_throughput_bps":16493226.666666655,
"jain_fairness":0.99324795260498144,"mean_delay_us":56300.832705298017,
"ack_timeouts":0,"mac_drops":0,"census_hidden":0,"census_exposed":0,
"census_total":576,"domino_self_starts":2,"domino_missed_rows":0,
"domino_rows_executed":620,"domino_untriggerable":0,"domino_batches":32,
"domino_retry_drops":0,"domino_anchor_rejections":0,
"domino_forced_trigger_losses":0,"domino_controller_outage_skips":0,
"recovery_slots":[],"ap_health":[{"ap":0,"self_starts":1,"missed_rows":0,
"ack_timeouts":0,"retry_drops":0,"anchor_rejections":0,
"forced_trigger_losses":0,"recovery_samples":0},{"ap":1,"self_starts":1,
"missed_rows":0,"ack_timeouts":0,"retry_drops":0,"anchor_rejections":0,
"forced_trigger_losses":0,"recovery_samples":0}],"fault_backbone_drops":0,
"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":0,"lifecycle_rss_updates":0,"lifecycle_joins":0,
"lifecycle_leaves":0,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

constexpr const char* kLegacyChurnRoamBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":4,"uplink":false,"throughput_bps":686080,
"mean_delay_us":23874.393731343283,"delivered":67},{"flow_id":1,"src":4,
"dst":0,"uplink":true,"throughput_bps":808960,
"mean_delay_us":31293.42365822785,"delivered":79},{"flow_id":2,"src":0,
"dst":5,"uplink":false,"throughput_bps":1556480,
"mean_delay_us":108306.89242105263,"delivered":152},{"flow_id":3,"src":5,
"dst":0,"uplink":true,"throughput_bps":911360,
"mean_delay_us":13760.898067415732,"delivered":89},{"flow_id":4,"src":1,
"dst":6,"uplink":false,"throughput_bps":2969600,
"mean_delay_us":40271.359965517237,"delivered":290},{"flow_id":5,"src":6,
"dst":1,"uplink":true,"throughput_bps":962560,
"mean_delay_us":7353.5648723404256,"delivered":94},{"flow_id":6,"src":1,
"dst":7,"uplink":false,"throughput_bps":1495040,
"mean_delay_us":58242.42075342466,"delivered":146},{"flow_id":7,"src":7,
"dst":1,"uplink":true,"throughput_bps":727040,
"mean_delay_us":11955.619380281691,"delivered":71},{"flow_id":8,"src":2,
"dst":8,"uplink":false,"throughput_bps":440320,
"mean_delay_us":60671.410627906975,"delivered":43},{"flow_id":9,"src":8,
"dst":2,"uplink":true,"throughput_bps":337920,
"mean_delay_us":18685.683818181817,"delivered":33},{"flow_id":10,"src":2,
"dst":9,"uplink":false,"throughput_bps":552960,
"mean_delay_us":72320.9178888889,"delivered":54},{"flow_id":11,"src":9,
"dst":2,"uplink":true,"throughput_bps":757760,
"mean_delay_us":24741.766702702702,"delivered":74},{"flow_id":12,"src":3,
"dst":10,"uplink":false,"throughput_bps":2785280,
"mean_delay_us":29376.386970588235,"delivered":272},{"flow_id":13,"src":10,
"dst":3,"uplink":true,"throughput_bps":931840,
"mean_delay_us":7184.5772307692314,"delivered":91},{"flow_id":14,"src":3,
"dst":11,"uplink":false,"throughput_bps":3102720,
"mean_delay_us":67122.314184818475,"delivered":303},{"flow_id":15,"src":11,
"dst":3,"uplink":true,"throughput_bps":983040,
"mean_delay_us":7461.2654166666671,"delivered":96}],
"aggregate_throughput_bps":20008960,"jain_fairness":0.67094101802804862,
"mean_delay_us":42037.635264073695,"ack_timeouts":37,"mac_drops":0,
"census_hidden":0,"census_exposed":0,"census_total":80,
"domino_self_starts":261,"domino_missed_rows":3,"domino_rows_executed":2269,
"domino_untriggerable":113,"domino_batches":81,"domino_retry_drops":0,
"domino_anchor_rejections":117,"domino_forced_trigger_losses":0,
"domino_controller_outage_skips":0,"recovery_slots":[],"ap_health":[{"ap":0,
"self_starts":79,"missed_rows":0,"ack_timeouts":3,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":0,"recovery_samples":0},{"ap":1,
"self_starts":110,"missed_rows":0,"ack_timeouts":0,"retry_drops":0,
"anchor_rejections":94,"forced_trigger_losses":0,"recovery_samples":0},
{"ap":2,"self_starts":70,"missed_rows":3,"ack_timeouts":17,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":0,"recovery_samples":0},{"ap":3,
"self_starts":2,"missed_rows":0,"ack_timeouts":5,"retry_drops":0,
"anchor_rejections":19,"forced_trigger_losses":0,"recovery_samples":0}],
"fault_backbone_drops":0,"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":15,"lifecycle_rss_updates":88,"lifecycle_joins":9,
"lifecycle_leaves":9,"lifecycle_roams":2,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

constexpr const char* kMultiSymbolDenseBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":1,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":3665.7640000000001,
"delivered":5},{"flow_id":1,"src":1,"dst":0,"uplink":true,"throughput_bps":0,
"mean_delay_us":0,"delivered":0},{"flow_id":2,"src":0,"dst":2,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":49571.398999999998,
"delivered":5},{"flow_id":3,"src":2,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":45965.180999999997,
"delivered":5},{"flow_id":4,"src":0,"dst":3,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":47967.866999999998,
"delivered":5},{"flow_id":5,"src":3,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":46929.733999999997,
"delivered":5},{"flow_id":6,"src":0,"dst":4,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":42470.101999999999,
"delivered":4},{"flow_id":7,"src":4,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":47607.773999999998,
"delivered":5},{"flow_id":8,"src":0,"dst":5,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":42709.438999999998,
"delivered":4},{"flow_id":9,"src":5,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":48677.819000000003,
"delivered":5},{"flow_id":10,"src":0,"dst":6,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":54803.485999999997,
"delivered":5},{"flow_id":11,"src":6,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":49702.559999999998,
"delivered":5},{"flow_id":12,"src":0,"dst":7,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":52502.419999999998,
"delivered":5},{"flow_id":13,"src":7,"dst":0,"uplink":true,"throughput_bps":0,
"mean_delay_us":0,"delivered":0},{"flow_id":14,"src":0,"dst":8,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":45544.624000000003,
"delivered":4},{"flow_id":15,"src":8,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":51410.663,"delivered":5},
{"flow_id":16,"src":0,"dst":9,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":56102.595999999998,
"delivered":5},{"flow_id":17,"src":9,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":53745.163999999997,
"delivered":5},{"flow_id":18,"src":0,"dst":10,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":55854.879999999997,
"delivered":5},{"flow_id":19,"src":10,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":51905.946000000004,
"delivered":5},{"flow_id":20,"src":0,"dst":11,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":57552.661999999997,
"delivered":5},{"flow_id":21,"src":11,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":53644.616000000002,
"delivered":5},{"flow_id":22,"src":0,"dst":12,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":56142.076000000001,
"delivered":5},{"flow_id":23,"src":12,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":54784.472999999998,
"delivered":5},{"flow_id":24,"src":0,"dst":13,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":57277.697999999997,
"delivered":5},{"flow_id":25,"src":13,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":55553.345999999998,
"delivered":5},{"flow_id":26,"src":0,"dst":14,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":61856.858999999997,
"delivered":5},{"flow_id":27,"src":14,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":56769.783000000003,
"delivered":5},{"flow_id":28,"src":0,"dst":15,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":48493.834999999999,
"delivered":5},{"flow_id":29,"src":15,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":58100.262000000002,
"delivered":5},{"flow_id":30,"src":0,"dst":16,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":49865.182000000001,
"delivered":5},{"flow_id":31,"src":16,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":59115.133000000002,
"delivered":5},{"flow_id":32,"src":0,"dst":17,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":62993.108,"delivered":5},
{"flow_id":33,"src":17,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":60130.177000000003,
"delivered":5},{"flow_id":34,"src":0,"dst":18,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":66027.918999999994,
"delivered":5},{"flow_id":35,"src":18,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":60903.144,"delivered":5},
{"flow_id":36,"src":0,"dst":19,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":63968.421999999999,
"delivered":5},{"flow_id":37,"src":19,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":61495.154000000002,
"delivered":5},{"flow_id":38,"src":0,"dst":20,"uplink":false,
"throughput_bps":102400,"mean_delay_us":45338.581666666665,"delivered":3},
{"flow_id":39,"src":20,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":62797.110000000001,
"delivered":5},{"flow_id":40,"src":0,"dst":21,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":57740.466999999997,
"delivered":4},{"flow_id":41,"src":21,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":62915.955000000002,
"delivered":5},{"flow_id":42,"src":0,"dst":22,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":65860.907999999996,
"delivered":5},{"flow_id":43,"src":22,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":63714.669000000002,
"delivered":5},{"flow_id":44,"src":0,"dst":23,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":64843.504999999997,
"delivered":5},{"flow_id":45,"src":23,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":65186.406999999999,
"delivered":5},{"flow_id":46,"src":0,"dst":24,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":72071.611999999994,
"delivered":5},{"flow_id":47,"src":24,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":56381.853000000003,
"delivered":4},{"flow_id":48,"src":0,"dst":25,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":61759.031999999999,
"delivered":4},{"flow_id":49,"src":25,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":57739.476000000002,
"delivered":4},{"flow_id":50,"src":0,"dst":26,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":62760.326000000001,
"delivered":4},{"flow_id":51,"src":26,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":58646.006000000001,
"delivered":4}],"aggregate_throughput_bps":8157866.6666666688,
"jain_fairness":0.95271532457135311,"mean_delay_us":55110.491150627611,
"ack_timeouts":0,"mac_drops":0,"census_hidden":0,"census_exposed":0,
"census_total":0,"domino_self_starts":1,"domino_missed_rows":0,
"domino_rows_executed":246,"domino_untriggerable":0,"domino_batches":26,
"domino_retry_drops":0,"domino_anchor_rejections":0,
"domino_forced_trigger_losses":0,"domino_controller_outage_skips":0,
"recovery_slots":[],"ap_health":[{"ap":0,"self_starts":1,"missed_rows":0,
"ack_timeouts":0,"retry_drops":0,"anchor_rejections":0,
"forced_trigger_losses":0,"recovery_samples":0}],"fault_backbone_drops":0,
"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":0,"lifecycle_rss_updates":0,"lifecycle_joins":0,
"lifecycle_leaves":0,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

/// Pins classic-kernel bytes: sim_threads = -1 keeps one queue whatever
/// DMN_SIM_THREADS says (the two-building floor plans would partition).
ExperimentConfig polled_domino_cfg(TimeNs duration) {
  ExperimentConfig cfg;
  cfg.sim_threads = -1;
  cfg.scheme = Scheme::kDomino;
  cfg.duration = duration;
  cfg.traffic.downlink_bps = 4e6;
  cfg.traffic.uplink_bps = 1e6;
  return cfg;
}

TEST(ResultCodec, PinnedBytesLegacyDominoStatic) {
  Rng rng(21);
  const auto t = topo::make_floorplan_topology({}, 2, 12, {}, rng);
  expect_pinned(serialized_run(t, polled_domino_cfg(msec(150))),
                kLegacyStaticBytes);
}

TEST(ResultCodec, PinnedBytesLegacyDominoChurnAndRoam) {
  Rng rng(3);
  const auto t = topo::make_floorplan_topology({}, 4, 2, {}, rng);
  ExperimentConfig cfg = polled_domino_cfg(msec(400));
  cfg.traffic.downlink_bps = 5e6;
  cfg.dynamics.epoch = msec(25);
  cfg.dynamics.churn_rate_hz = 3.0;
  cfg.dynamics.churn_downtime = msec(50);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.roam.min_dwell = msec(50);
  expect_pinned(serialized_run(t, cfg), kLegacyChurnRoamBytes);
}

TEST(ResultCodec, PinnedBytesMultiSymbolDenseCell) {
  Rng rng(23);
  const auto t = topo::make_floorplan_topology({}, 1, 26, {}, rng);
  ExperimentConfig cfg = polled_domino_cfg(msec(120));
  cfg.rop.poll_mode = rop::PollMode::kMultiSymbol;
  cfg.rop.max_poll_symbols = 2;
  expect_pinned(serialized_run(t, cfg), kMultiSymbolDenseBytes);
}

/// 64-bit FNV-1a: the fig14-shaped results below serialize to 8-11 KB
/// each, so their bytes are pinned by digest and length.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The e2ebench fig14 point shape: a random T(20,3) draw in an 800 m
/// square, 10 Mbps downlink per client, run as DCF and as DOMINO (here for
/// 100 ms). Draw 1005 is one whose forced ROP placement used to break
/// converter.rop-sharing; the pin runs unaudited whatever DMN_AUDIT says.
/// The DOMINO digests were re-taken when forced placement began to pick a
/// shareable boundary and the controller moved to batch-tagged reports.
TEST(ResultCodec, PinnedBytesFig14Draws) {
  struct Pin {
    std::uint64_t draw;
    Scheme scheme;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1000, Scheme::kDcf, 8011, 0x7d39a1febb72f560ull},
      {1000, Scheme::kDomino, 11064, 0xcae4354d81f14341ull},
      {1005, Scheme::kDcf, 8006, 0x9489801f912fccfaull},
      {1005, Scheme::kDomino, 11056, 0xfaf4c583d7f847a7ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("draw " + std::to_string(pin.draw) + " " +
                 to_string(pin.scheme));
    Rng rng(pin.draw);
    topo::LogDistanceModel model;
    const auto t =
        topo::Topology::random_network(20, 3, 800.0, model, {}, rng);
    ExperimentConfig cfg;
    cfg.sim_threads = -1;  // classic-kernel bytes, whatever DMN_SIM_THREADS
    cfg.audit.mode = audit::AuditMode::kOff;  // whatever DMN_AUDIT says
    cfg.scheme = pin.scheme;
    cfg.seed = pin.draw;
    cfg.duration = msec(100);
    cfg.traffic.downlink_bps = 10e6;
    const std::string bytes = serialized_run(t, cfg);
    EXPECT_EQ(bytes.size(), pin.size);
    EXPECT_EQ(fnv1a(bytes), pin.digest) << bytes;
  }
}

/// Every `cls` field the tables reach from `x`, flattened to path -> value
/// (vector sizes included), in table order.
template <typename T>
void flatten(const T& x, MetricClass cls, const std::string& prefix,
             std::vector<std::pair<std::string, std::string>>& out) {
  visit_fields(x, [&](const char* key, MetricClass c, const auto& f) {
    if (c != cls) return;
    using F = std::remove_cvref_t<decltype(f)>;
    const std::string path = prefix + key;
    if constexpr (std::is_arithmetic_v<F>) {
      out.emplace_back(path, json_double(static_cast<double>(f)));
    } else {
      out.emplace_back(path + ".size", std::to_string(f.size()));
      for (std::size_t i = 0; i < f.size(); ++i) {
        const std::string item = path + "[" + std::to_string(i) + "]";
        if constexpr (std::is_arithmetic_v<typename F::value_type>) {
          out.emplace_back(item, json_double(f[i]));
        } else {
          flatten(f[i], MetricClass::kResult, item + ".", out);
        }
      }
    }
  });
}

std::vector<std::pair<std::string, std::string>> flatten(
    const ExperimentResult& r, MetricClass cls) {
  std::vector<std::pair<std::string, std::string>> out;
  flatten(r, cls, "", out);
  return out;
}

/// Gives every field of `x` of class `cls` (and every field of its rows) a
/// value no other field shares: 1000 + n for the n-th number set.
template <typename T>
void fill_distinct(T& x, MetricClass cls, int& n) {
  visit_fields(x, [&](const char*, MetricClass c, auto& f) {
    if (c != cls) return;
    using F = std::remove_cvref_t<decltype(f)>;
    if constexpr (std::is_same_v<F, bool>) {
      f = !f;
    } else if constexpr (std::is_arithmetic_v<F>) {
      f = static_cast<F>(1000 + ++n) + static_cast<F>(0.25);
    } else {
      f.resize(2);
      for (auto& e : f) {
        if constexpr (std::is_arithmetic_v<typename F::value_type>) {
          e = 1000 + ++n + 0.5;
        } else {
          fill_distinct(e, MetricClass::kResult, n);
        }
      }
    }
  });
}

TEST(ResultCodec, EveryResultMetricRoundTrips) {
  ExperimentResult r;
  int n = 0;
  fill_distinct(r, MetricClass::kResult, n);
  const auto fields = flatten(r, MetricClass::kResult);

  // Every value left its default and no two fields share one, so a table
  // row pointing at the wrong member cannot pass.
  std::map<std::string, std::string> defaults;
  for (const auto& kv : flatten(ExperimentResult{}, MetricClass::kResult)) {
    defaults.insert(kv);
  }
  std::set<std::string> seen;
  for (const auto& [path, value] : fields) {
    if (const auto d = defaults.find(path); d != defaults.end()) {
      EXPECT_NE(value, d->second) << path << " kept its default";
    }
    if (path.ends_with(".size") || value == "1") continue;  // sizes, bools
    EXPECT_TRUE(seen.insert(value).second) << path << " shares " << value;
  }

  const std::string bytes = serialize_result(r);
  const ExperimentResult back = deserialize_result(parse_json(bytes));
  EXPECT_EQ(flatten(back, MetricClass::kResult), fields);
  EXPECT_EQ(serialize_result(back), bytes);
}

TEST(ResultCodec, TelemetryIsExactlyTheSchedulingAndTimingFields) {
  const ExperimentResult r;
  visit_fields(r, [](const char* key, MetricClass c, const auto&) {
    const std::string k = key;
    const bool scheduling =
        k.starts_with("domino_poll_") || k.starts_with("domino_plan_age_") ||
        k.starts_with("sim_") ||
        (k.starts_with("wall_") && k.ends_with("_seconds")) ||
        k == "events_executed" || k == "graph_builds";
    EXPECT_EQ(c == MetricClass::kTelemetry, scheduling) << k;
  });
}

TEST(ResultCodec, TelemetryNeverReachesTheBytes) {
  ExperimentResult r;
  int n = 0;
  fill_distinct(r, MetricClass::kTelemetry, n);
  ASSERT_GT(n, 0);
  const std::string bytes = serialize_result(r);
  EXPECT_EQ(bytes, serialize_result(ExperimentResult{}));

  // Nor does it come back from bytes that carry it.
  std::string forged = bytes;
  forged.pop_back();
  visit_fields(r, [&](const char* key, MetricClass c, const auto&) {
    if (c != MetricClass::kTelemetry) return;
    EXPECT_EQ(bytes.find('"' + std::string(key) + '"'), std::string::npos)
        << key;
    forged += ",\"" + std::string(key) + "\":7";
  });
  forged += '}';
  EXPECT_EQ(flatten(deserialize_result(parse_json(forged)),
                    MetricClass::kTelemetry),
            flatten(ExperimentResult{}, MetricClass::kTelemetry));
}

}  // namespace
}  // namespace dmn::api
