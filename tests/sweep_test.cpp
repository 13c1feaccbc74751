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
// backlog only from batch-tagged AP reports, and again when the backbone
// began to draw from one stream per AP endpoint. Line breaks are for width
// only and are stripped before comparing.
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
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,"throughput_bps":6307840,
"mean_delay_us":49226.870419913415,"delivered":231},{"flow_id":1,"src":1,
"dst":3,"uplink":false,"throughput_bps":6717440,
"mean_delay_us":46354.783243902435,"delivered":246}],
"aggregate_throughput_bps":13025280,"jain_fairness":0.99901209199399355,
"mean_delay_us":47745.668228511524,"ack_timeouts":102,"mac_drops":0,
"census_hidden":0,"census_exposed":1,"census_total":1,"domino_self_starts":5,
"domino_missed_rows":0,"domino_rows_executed":581,"domino_untriggerable":0,
"domino_batches":32,"domino_retry_drops":0,"domino_anchor_rejections":4,
"domino_forced_trigger_losses":7,"domino_controller_outage_skips":0,
"recovery_slots":[0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639],"ap_health":[{"ap":0,
"self_starts":4,"missed_rows":0,"ack_timeouts":49,"retry_drops":0,
"anchor_rejections":4,"forced_trigger_losses":2,"recovery_samples":2},{"ap":1,
"self_starts":1,"missed_rows":0,"ack_timeouts":53,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":5,"recovery_samples":5}],
"fault_backbone_drops":5,"fault_backbone_dups":0,"fault_backbone_spikes":0,
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
  cfg.duration = msec(100);
  cfg.traffic.saturate_downlink = true;
  cfg.seed = 3;
  expect_pinned(serialized_run(two_cells(), cfg), kStaticDcfBytes);
}

TEST(ResultCodec, PinnedBytesDominoWithFaults) {
  ExperimentConfig cfg;
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
"throughput_bps":3447466.666666667,"mean_delay_us":56609.041712871294,
"delivered":101},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":3891200,"mean_delay_us":51803.483368421053,"delivered":114},
{"flow_id":2,"src":4,"dst":6,"uplink":false,"throughput_bps":3686400,
"mean_delay_us":55696.189388888888,"delivered":108},{"flow_id":3,"src":5,
"dst":7,"uplink":false,"throughput_bps":3720533.3333333335,
"mean_delay_us":51990.951137614684,"delivered":109}],
"aggregate_throughput_bps":14745600.000000002,
"jain_fairness":0.99816011296050677,"mean_delay_us":53947.482511574075,
"ack_timeouts":46,"mac_drops":3370,"census_hidden":0,"census_exposed":2,
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
"throughput_bps":6417066.666666667,"mean_delay_us":41791.062680851064,
"delivered":188},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":5870933.333333334,"mean_delay_us":44262.044116279074,
"delivered":172},{"flow_id":2,"src":4,"dst":6,"uplink":false,
"throughput_bps":6621866.666666667,"mean_delay_us":43102.970010309276,
"delivered":194},{"flow_id":3,"src":5,"dst":7,"uplink":false,
"throughput_bps":6007466.666666667,"mean_delay_us":41675.702863636368,
"delivered":176}],"aggregate_throughput_bps":24917333.333333336,
"jain_fairness":0.99764115620787774,"mean_delay_us":42694.097613698628,
"ack_timeouts":165,"mac_drops":0,"census_hidden":0,"census_exposed":2,
"census_total":6,"domino_self_starts":11,"domino_missed_rows":0,
"domino_rows_executed":900,"domino_untriggerable":0,"domino_batches":26,
"domino_retry_drops":0,"domino_anchor_rejections":2,
"domino_forced_trigger_losses":9,"domino_controller_outage_skips":0,
"recovery_slots":[0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639],"ap_health":[{"ap":0,"self_starts":2,"missed_rows":0,
"ack_timeouts":44,"retry_drops":0,"anchor_rejections":0,
"forced_trigger_losses":2,"recovery_samples":2},{"ap":1,"self_starts":4,
"missed_rows":0,"ack_timeouts":40,"retry_drops":0,"anchor_rejections":2,
"forced_trigger_losses":2,"recovery_samples":2},{"ap":4,"self_starts":2,
"missed_rows":0,"ack_timeouts":42,"retry_drops":0,"anchor_rejections":0,
"forced_trigger_losses":3,"recovery_samples":3},{"ap":5,"self_starts":3,
"missed_rows":0,"ack_timeouts":39,"retry_drops":0,"anchor_rejections":0,
"forced_trigger_losses":2,"recovery_samples":2}],"fault_backbone_drops":12,
"fault_backbone_dups":11,"fault_backbone_spikes":13,
"fault_interference_bursts":24,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":9,"fault_forced_false_positives":0,
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

/// The faulted, audited run on two_building_campus() whose bytes are
/// pinned below.
ExperimentConfig faulted_campus_config(Scheme scheme, int threads) {
  ExperimentConfig cfg;
  cfg.scheme = scheme;
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
  return cfg;
}

// Partitioned campus bytes pinned against an earlier build, at 1 and 4
// threads. Backbone drop/dup/spike draw from the streams of the message's
// AP endpoint, signature false negatives from the node's own stream, the
// interference burst phase from the fault injector's root, and every check
// lands on its queue's auditor: moving the stream forking order, the phase
// draw or the per-queue auditor wiring changes the bytes or the audit
// check count.
TEST(ResultCodec, PinnedBytesPartitionedCampusWithFaultsAndAudit) {
  const struct {
    Scheme scheme;
    const char* bytes;
    std::uint64_t checks_run;
  } cases[] = {{Scheme::kDcf, kCampusDcfBytes, 6551},
               {Scheme::kDomino, kCampusDominoBytes, 12406}};
  const auto t = two_building_campus();
  for (const auto& c : cases) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(to_string(c.scheme)) + " at " +
                   std::to_string(threads) + " threads");
      const ExperimentResult r =
          run_experiment(t, faulted_campus_config(c.scheme, threads));
      EXPECT_EQ(r.sim_partitions, 2u);
      expect_pinned(serialize_result(r), c.bytes);
      ASSERT_NE(r.audit, nullptr);
      EXPECT_EQ(r.audit->checks_run, c.checks_run);
      EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
    }
  }
}

// The same runs' window schedule. DCF builds no backbone, so nothing can
// cross a partition and each run_until is one window; DOMINO's backbone
// declares its min_latency floor, which sets the window width.
TEST(KernelSchedule, PartitionedCampusWindowsFollowTheDeclaredChannels) {
  const auto t = two_building_campus();
  for (const Scheme scheme : {Scheme::kDcf, Scheme::kDomino}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(to_string(scheme)) + " at " +
                   std::to_string(threads) + " threads");
      const ExperimentConfig cfg = faulted_campus_config(scheme, threads);
      const ExperimentResult r = run_experiment(t, cfg);
      EXPECT_EQ(r.sim_partitions, 2u);
      if (scheme == Scheme::kDcf) {
        EXPECT_EQ(r.sim_windows, 1u);
        EXPECT_EQ(r.sim_lookahead_ns, 0);
      } else {
        EXPECT_GT(r.sim_windows, 1u);
        EXPECT_EQ(r.sim_lookahead_ns, cfg.backbone.min_latency);
      }
    }
  }
}

// Serialized DOMINO results of the poll paths the per-AP slot table
// replaced, captured from the build before it and re-taken when the
// controller moved to batch-tagged AP reports and when the backbone began
// to draw from one stream per AP endpoint: the single-symbol legacy
// path (static, and under churn and roaming) and the static multi-symbol
// rosters of a 26-client cell split over two poll symbols.
constexpr const char* kLegacyStaticBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":436906.66666666669,"mean_delay_us":16413.616999999998,
"delivered":16},{"flow_id":1,"src":2,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":49985.907692307694,
"delivered":13},{"flow_id":2,"src":0,"dst":3,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":60697.187076923081,
"delivered":13},{"flow_id":3,"src":3,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":50862.247307692305,
"delivered":13},{"flow_id":4,"src":0,"dst":4,"uplink":false,
"throughput_bps":300373.33333333337,"mean_delay_us":45439.936999999998,
"delivered":11},{"flow_id":5,"src":4,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":52046.784538461536,
"delivered":13},{"flow_id":6,"src":0,"dst":5,"uplink":false,
"throughput_bps":300373.33333333337,"mean_delay_us":49563.671818181821,
"delivered":11},{"flow_id":7,"src":5,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":53322.095307692303,
"delivered":13},{"flow_id":8,"src":0,"dst":6,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":68184.446923076932,
"delivered":13},{"flow_id":9,"src":6,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":53631.870769230765,
"delivered":13},{"flow_id":10,"src":0,"dst":7,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":71734.231923076921,
"delivered":13},{"flow_id":11,"src":7,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":55825.637384615387,
"delivered":13},{"flow_id":12,"src":0,"dst":8,"uplink":false,
"throughput_bps":327680,"mean_delay_us":53131.612666666668,"delivered":12},
{"flow_id":13,"src":8,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":55950.555999999997,
"delivered":13},{"flow_id":14,"src":0,"dst":9,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":71536.324461538461,
"delivered":13},{"flow_id":15,"src":9,"dst":0,"uplink":true,
"throughput_bps":327680,"mean_delay_us":53667.491666666661,"delivered":12},
{"flow_id":16,"src":0,"dst":10,"uplink":false,"throughput_bps":327680,
"mean_delay_us":69229.155666666673,"delivered":12},{"flow_id":17,"src":10,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":54643.521999999997,"delivered":12},{"flow_id":18,"src":0,
"dst":11,"uplink":false,"throughput_bps":327680,
"mean_delay_us":64019.073333333334,"delivered":12},{"flow_id":19,"src":11,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":55516.156000000003,"delivered":12},{"flow_id":20,"src":0,
"dst":12,"uplink":false,"throughput_bps":327680,
"mean_delay_us":70169.888666666666,"delivered":12},{"flow_id":21,"src":12,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":56214.771333333338,"delivered":12},{"flow_id":22,"src":0,
"dst":13,"uplink":false,"throughput_bps":327680,
"mean_delay_us":68243.475333333336,"delivered":12},{"flow_id":23,"src":13,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":57266.035333333333,"delivered":12},{"flow_id":24,"src":1,
"dst":14,"uplink":false,"throughput_bps":273066.66666666669,
"mean_delay_us":12345.494000000001,"delivered":10},{"flow_id":25,"src":14,
"dst":1,"uplink":true,"throughput_bps":382293.33333333337,
"mean_delay_us":52489.497571428576,"delivered":14},{"flow_id":26,"src":1,
"dst":15,"uplink":false,"throughput_bps":382293.33333333337,
"mean_delay_us":66771.717000000004,"delivered":14},{"flow_id":27,"src":15,
"dst":1,"uplink":true,"throughput_bps":382293.33333333337,
"mean_delay_us":53995.587142857141,"delivered":14},{"flow_id":28,"src":1,
"dst":16,"uplink":false,"throughput_bps":382293.33333333337,
"mean_delay_us":73191.93971428572,"delivered":14},{"flow_id":29,"src":16,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":51565.221384615383,"delivered":13},{"flow_id":30,"src":1,
"dst":17,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":57685.756076923077,"delivered":13},{"flow_id":31,"src":17,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":52528.353000000003,"delivered":13},{"flow_id":32,"src":1,
"dst":18,"uplink":false,"throughput_bps":245760,
"mean_delay_us":51489.64844444445,"delivered":9},{"flow_id":33,"src":18,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":53451.786692307694,"delivered":13},{"flow_id":34,"src":1,
"dst":19,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":57245.455692307696,"delivered":13},{"flow_id":35,"src":19,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":54410.036153846151,"delivered":13},{"flow_id":36,"src":1,
"dst":20,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":69759.476538461531,"delivered":13},{"flow_id":37,"src":20,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":54593.262230769229,"delivered":13},{"flow_id":38,"src":1,
"dst":21,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":65558.024999999994,"delivered":13},{"flow_id":39,"src":21,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":55540.978307692305,"delivered":13},{"flow_id":40,"src":1,
"dst":22,"uplink":false,"throughput_bps":273066.66666666669,
"mean_delay_us":56276.491000000002,"delivered":10},{"flow_id":41,"src":22,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":56588.145692307698,"delivered":13},{"flow_id":42,"src":1,
"dst":23,"uplink":false,"throughput_bps":300373.33333333337,
"mean_delay_us":54305.546000000002,"delivered":11},{"flow_id":43,"src":23,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":57500.645153846155,"delivered":13},{"flow_id":44,"src":1,
"dst":24,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":73905.160000000003,"delivered":13},{"flow_id":45,"src":24,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":58671.426769230769,"delivered":13},{"flow_id":46,"src":1,
"dst":25,"uplink":false,"throughput_bps":300373.33333333337,
"mean_delay_us":58094.270727272728,"delivered":11},{"flow_id":47,"src":25,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":59878.149153846149,"delivered":13}],
"aggregate_throughput_bps":16465919.999999994,
"jain_fairness":0.99164648514203302,"mean_delay_us":56656.298469320063,
"ack_timeouts":0,"mac_drops":0,"census_hidden":0,"census_exposed":0,
"census_total":576,"domino_self_starts":2,"domino_missed_rows":0,
"domino_rows_executed":618,"domino_untriggerable":0,"domino_batches":32,
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
{"links":[{"flow_id":0,"src":0,"dst":4,"uplink":false,"throughput_bps":696320,
"mean_delay_us":24730.355352941177,"delivered":68},{"flow_id":1,"src":4,
"dst":0,"uplink":true,"throughput_bps":808960,
"mean_delay_us":31390.935898734177,"delivered":79},{"flow_id":2,"src":0,
"dst":5,"uplink":false,"throughput_bps":1536000,"mean_delay_us":109320.823,
"delivered":150},{"flow_id":3,"src":5,"dst":0,"uplink":true,
"throughput_bps":911360,"mean_delay_us":13756.909269662921,"delivered":89},
{"flow_id":4,"src":1,"dst":6,"uplink":false,"throughput_bps":2826240,
"mean_delay_us":39417.594398550726,"delivered":276},{"flow_id":5,"src":6,
"dst":1,"uplink":true,"throughput_bps":993280,
"mean_delay_us":8963.2283917525765,"delivered":97},{"flow_id":6,"src":1,
"dst":7,"uplink":false,"throughput_bps":1484800,
"mean_delay_us":58588.244772413789,"delivered":145},{"flow_id":7,"src":7,
"dst":1,"uplink":true,"throughput_bps":727040,
"mean_delay_us":12118.541507042253,"delivered":71},{"flow_id":8,"src":2,
"dst":8,"uplink":false,"throughput_bps":440320,
"mean_delay_us":60694.596395348839,"delivered":43},{"flow_id":9,"src":8,
"dst":2,"uplink":true,"throughput_bps":337920,
"mean_delay_us":18710.456818181818,"delivered":33},{"flow_id":10,"src":2,
"dst":9,"uplink":false,"throughput_bps":573440,
"mean_delay_us":70484.759142857147,"delivered":56},{"flow_id":11,"src":9,
"dst":2,"uplink":true,"throughput_bps":757760,
"mean_delay_us":24842.008621621619,"delivered":74},{"flow_id":12,"src":3,
"dst":10,"uplink":false,"throughput_bps":2488320,
"mean_delay_us":29318.091855967079,"delivered":243},{"flow_id":13,"src":10,
"dst":3,"uplink":true,"throughput_bps":901120,
"mean_delay_us":8625.4672272727257,"delivered":88},{"flow_id":14,"src":3,
"dst":11,"uplink":false,"throughput_bps":3072000,
"mean_delay_us":73313.753666666671,"delivered":300},{"flow_id":15,"src":11,
"dst":3,"uplink":true,"throughput_bps":1003520,
"mean_delay_us":6965.6570612244896,"delivered":98}],
"aggregate_throughput_bps":19558400,"jain_fairness":0.6890821254578644,
"mean_delay_us":43173.457288481673,"ack_timeouts":43,"mac_drops":0,
"census_hidden":0,"census_exposed":0,"census_total":80,
"domino_self_starts":271,"domino_missed_rows":3,"domino_rows_executed":2248,
"domino_untriggerable":119,"domino_batches":81,"domino_retry_drops":1,
"domino_anchor_rejections":107,"domino_forced_trigger_losses":0,
"domino_controller_outage_skips":0,"recovery_slots":[],"ap_health":[{"ap":0,
"self_starts":79,"missed_rows":0,"ack_timeouts":3,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":0,"recovery_samples":0},{"ap":1,
"self_starts":117,"missed_rows":0,"ack_timeouts":8,"retry_drops":1,
"anchor_rejections":89,"forced_trigger_losses":0,"recovery_samples":0},{"ap":2,
"self_starts":70,"missed_rows":3,"ack_timeouts":16,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":0,"recovery_samples":0},{"ap":3,
"self_starts":5,"missed_rows":0,"ack_timeouts":3,"retry_drops":0,
"anchor_rejections":14,"forced_trigger_losses":0,"recovery_samples":0}],
"fault_backbone_drops":0,"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":15,"lifecycle_rss_updates":88,"lifecycle_joins":9,
"lifecycle_leaves":9,"lifecycle_roams":2,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

constexpr const char* kMultiSymbolDenseBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":1,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":2882.8400000000001,
"delivered":5},{"flow_id":1,"src":1,"dst":0,"uplink":true,"throughput_bps":0,
"mean_delay_us":0,"delivered":0},{"flow_id":2,"src":0,"dst":2,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":42184.794999999998,
"delivered":5},{"flow_id":3,"src":2,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":45746.576999999997,
"delivered":5},{"flow_id":4,"src":0,"dst":3,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":47782.262999999999,
"delivered":5},{"flow_id":5,"src":3,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":46744.129999999997,
"delivered":5},{"flow_id":6,"src":0,"dst":4,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":38442.642999999996,
"delivered":5},{"flow_id":7,"src":4,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":47515.910000000003,
"delivered":5},{"flow_id":8,"src":0,"dst":5,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":42476.964999999997,
"delivered":4},{"flow_id":9,"src":5,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":48585.955000000002,
"delivered":5},{"flow_id":10,"src":0,"dst":6,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":54711.622000000003,
"delivered":5},{"flow_id":11,"src":6,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":49610.696000000004,
"delivered":5},{"flow_id":12,"src":0,"dst":7,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":54630.356,"delivered":5},
{"flow_id":13,"src":7,"dst":0,"uplink":true,"throughput_bps":0,
"mean_delay_us":0,"delivered":0},{"flow_id":14,"src":0,"dst":8,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":46690.474999999999,
"delivered":5},{"flow_id":15,"src":8,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":51412.538999999997,
"delivered":5},{"flow_id":16,"src":0,"dst":9,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":56104.472000000002,
"delivered":5},{"flow_id":17,"src":9,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":51370.540000000001,
"delivered":5},{"flow_id":18,"src":0,"dst":10,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":47139.981,"delivered":4},
{"flow_id":19,"src":10,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":52315.781999999999,
"delivered":5},{"flow_id":20,"src":0,"dst":11,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":55914.498,"delivered":5},
{"flow_id":21,"src":11,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":54021.451999999997,
"delivered":5},{"flow_id":22,"src":0,"dst":12,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":48827.777000000002,
"delivered":4},{"flow_id":23,"src":12,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":54565.868999999999,
"delivered":5},{"flow_id":24,"src":0,"dst":13,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":57185.834000000003,
"delivered":5},{"flow_id":25,"src":13,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":55461.482000000004,
"delivered":5},{"flow_id":26,"src":0,"dst":14,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":61764.995000000003,
"delivered":5},{"flow_id":27,"src":14,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":56677.919000000002,
"delivered":5},{"flow_id":28,"src":0,"dst":15,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":61509.171000000002,
"delivered":5},{"flow_id":29,"src":15,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":58008.398000000001,
"delivered":5},{"flow_id":30,"src":0,"dst":16,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":53463.358,"delivered":4},
{"flow_id":31,"src":16,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":58929.529000000002,
"delivered":5},{"flow_id":32,"src":0,"dst":17,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":63217.103999999999,
"delivered":5},{"flow_id":33,"src":17,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":59911.572999999997,
"delivered":5},{"flow_id":34,"src":0,"dst":18,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":65842.315000000002,
"delivered":5},{"flow_id":35,"src":18,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":60717.540000000001,
"delivered":5},{"flow_id":36,"src":0,"dst":19,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":63782.817999999999,
"delivered":5},{"flow_id":37,"src":19,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":61309.550000000003,
"delivered":5},{"flow_id":38,"src":0,"dst":20,"uplink":false,
"throughput_bps":102400,"mean_delay_us":45184.224333333339,"delivered":3},
{"flow_id":39,"src":20,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":62611.506000000001,
"delivered":5},{"flow_id":40,"src":0,"dst":21,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":57625.167999999998,
"delivered":4},{"flow_id":41,"src":21,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":62730.351000000002,
"delivered":5},{"flow_id":42,"src":0,"dst":22,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":65642.304000000004,
"delivered":5},{"flow_id":43,"src":22,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":63496.065000000002,
"delivered":5},{"flow_id":44,"src":0,"dst":23,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":59824.076000000001,
"delivered":4},{"flow_id":45,"src":23,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":64907.063000000002,
"delivered":5},{"flow_id":46,"src":0,"dst":24,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":71792.267999999996,
"delivered":5},{"flow_id":47,"src":24,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":65401.589,"delivered":5},
{"flow_id":48,"src":0,"dst":25,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":68423.567999999999,
"delivered":5},{"flow_id":49,"src":25,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":57624.177000000003,
"delivered":4},{"flow_id":50,"src":0,"dst":26,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":62645.027000000002,
"delivered":4},{"flow_id":51,"src":26,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":58530.707000000002,
"delivered":4}],"aggregate_throughput_bps":8157866.6666666698,
"jain_fairness":0.95271532457135333,"mean_delay_us":54983.110447698746,
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

ExperimentConfig polled_domino_cfg(TimeNs duration) {
  ExperimentConfig cfg;
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

constexpr const char* kDominoOutageSkewUplinkBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":1,"uplink":false,"throughput_bps":737280,
"mean_delay_us":125413.28129629629,"delivered":54},{"flow_id":1,"src":1,
"dst":0,"uplink":true,"throughput_bps":819200,
"mean_delay_us":158937.63183333335,"delivered":60},{"flow_id":2,"src":0,
"dst":2,"uplink":false,"throughput_bps":1378986.6666666667,
"mean_delay_us":91914.754851485151,"delivered":101},{"flow_id":3,"src":2,
"dst":0,"uplink":true,"throughput_bps":860160,
"mean_delay_us":159590.50326984128,"delivered":63},{"flow_id":4,"src":3,
"dst":4,"uplink":false,"throughput_bps":1010346.6666666667,
"mean_delay_us":54864.526459459463,"delivered":74},{"flow_id":5,"src":4,
"dst":3,"uplink":true,"throughput_bps":737280,
"mean_delay_us":150257.29296296297,"delivered":54},{"flow_id":6,"src":3,
"dst":5,"uplink":false,"throughput_bps":764586.66666666674,
"mean_delay_us":149122.88371428571,"delivered":56},{"flow_id":7,"src":5,
"dst":3,"uplink":true,"throughput_bps":846506.66666666674,
"mean_delay_us":152180.62338709677,"delivered":62}],
"aggregate_throughput_bps":7154346.6666666679,
"jain_fairness":0.9518553441677301,"mean_delay_us":125202.5113778626,
"ack_timeouts":116,"mac_drops":0,"census_hidden":3,"census_exposed":6,
"census_total":16,"domino_self_starts":110,"domino_missed_rows":73,
"domino_rows_executed":645,"domino_untriggerable":0,"domino_batches":62,
"domino_retry_drops":0,"domino_anchor_rejections":185,
"domino_forced_trigger_losses":27,"domino_controller_outage_skips":0,
"recovery_slots":[2.6933219543417963,8.0195050138681463,0,0,
0.019202048218476639,0.33710262427992321,0.019202048218476639,0,0,
0.019202048218476639,0,6.3561446554299126,0.019202048218476639,
3.972978451034777,0,0.019202048218476639,0.014934926392148495,
0.019202048218476639,0,0,0.019202048218476639,0,0,0,0.019202048218476639],
"ap_health":[{"ap":0,"self_starts":39,"missed_rows":25,"ack_timeouts":12,
"retry_drops":0,"anchor_rejections":7,"forced_trigger_losses":4,
"recovery_samples":4},{"ap":3,"self_starts":71,"missed_rows":48,
"ack_timeouts":22,"retry_drops":0,"anchor_rejections":30,
"forced_trigger_losses":7,"recovery_samples":7}],"fault_backbone_drops":0,
"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":27,"fault_forced_false_positives":87,
"lifecycle_epochs":0,"lifecycle_rss_updates":0,"lifecycle_joins":0,
"lifecycle_leaves":0,"lifecycle_roams":0,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

/// Saturated DOMINO downlink and uplink through an AP outage, with skewed
/// clocks and forced false-positive / false-negative triggers. A random
/// 2-AP x 2-client draw, not two_cells(): two_cells() never hears a
/// triggering burst without its own code, so it forges no trigger and its
/// clients never find their radio busy at a trigger-timed slot start. This
/// draw covers set_powered, forged triggers, skewed lattice snaps on both
/// roles and the client's busy-radio retry, which no other pin reaches. The
/// outage starts inside the SIFS before one of AP 0's uplink ACKs, which
/// the dark AP must not send.
TEST(ResultCodec, PinnedBytesDominoOutageSkewAndUplink) {
  Rng rng(10);
  topo::LogDistanceModel model;
  const auto t = topo::Topology::random_network(2, 2, 400.0, model, {}, rng);
  ExperimentConfig cfg;
  cfg.audit.mode = audit::AuditMode::kOff;  // whatever DMN_AUDIT says
  cfg.scheme = Scheme::kDomino;
  cfg.duration = msec(300);
  cfg.traffic.saturate_downlink = true;
  cfg.traffic.saturate_uplink = true;
  cfg.seed = 10;
  cfg.faults.ap_outages.push_back(
      fault::ApOutage{0, {TimeNs{105'309'193}, msec(40)}});
  cfg.faults.clock.max_skew_ppm = 100.0;
  cfg.faults.signature.false_positive_rate = 0.05;
  cfg.faults.signature.false_negative_rate = 0.05;
  expect_pinned(serialized_run(t, cfg), kDominoOutageSkewUplinkBytes);
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
/// shareable boundary and the controller moved to batch-tagged reports,
/// again when an AP's self-start timer began to keep its place among
/// same-time events while its due time is unchanged, and again when the
/// backbone began to draw from one stream per AP endpoint.
TEST(ResultCodec, PinnedBytesFig14Draws) {
  struct Pin {
    std::uint64_t draw;
    Scheme scheme;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1000, Scheme::kDcf, 8011, 0x7d39a1febb72f560ull},
      {1000, Scheme::kDomino, 11062, 0xe6b2b9f923a4c19eull},
      {1005, Scheme::kDcf, 8006, 0x9489801f912fccfaull},
      {1005, Scheme::kDomino, 11038, 0xa0f29c6060c11265ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("draw " + std::to_string(pin.draw) + " " +
                 to_string(pin.scheme));
    Rng rng(pin.draw);
    topo::LogDistanceModel model;
    const auto t =
        topo::Topology::random_network(20, 3, 800.0, model, {}, rng);
    ExperimentConfig cfg;
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
