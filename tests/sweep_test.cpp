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
// rebuilt on the field tables: the format is byte-for-byte the same. Line
// breaks are for width only and are stripped before comparing.
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
"throughput_bps":6498986.666666667,"mean_delay_us":46216.817336134452,
"delivered":238},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":6444373.333333334,"mean_delay_us":47863.812762711867,
"delivered":236}],"aggregate_throughput_bps":12943360,
"jain_fairness":0.99998219690226076,"mean_delay_us":47036.840375527427,
"ack_timeouts":103,"mac_drops":0,"census_hidden":0,"census_exposed":1,
"census_total":1,"domino_self_starts":6,"domino_missed_rows":0,
"domino_rows_executed":579,"domino_untriggerable":0,"domino_batches":37,
"domino_retry_drops":0,"domino_anchor_rejections":2,
"domino_forced_trigger_losses":7,"domino_controller_outage_skips":0,
"recovery_slots":[0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639],"ap_health":[{"ap":0,
"self_starts":3,"missed_rows":0,"ack_timeouts":51,"retry_drops":0,
"anchor_rejections":0,"forced_trigger_losses":2,"recovery_samples":2},
{"ap":1,"self_starts":3,"missed_rows":0,"ack_timeouts":52,"retry_drops":0,
"anchor_rejections":2,"forced_trigger_losses":5,"recovery_samples":5}],
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
"throughput_bps":6075733.333333334,"mean_delay_us":46738.426741573036,
"delivered":178},{"flow_id":1,"src":1,"dst":3,"uplink":false,
"throughput_bps":6826666.666666667,"mean_delay_us":41480.04406,
"delivered":200},{"flow_id":2,"src":4,"dst":6,"uplink":false,
"throughput_bps":6860800,"mean_delay_us":41612.108084577114,
"delivered":201},{"flow_id":3,"src":5,"dst":7,"uplink":false,
"throughput_bps":6382933.333333334,"mean_delay_us":42870.630534759359,
"delivered":187}],"aggregate_throughput_bps":26146133.333333336,
"jain_fairness":0.99751791858772987,"mean_delay_us":43076.097137075718,
"ack_timeouts":175,"mac_drops":0,"census_hidden":0,"census_exposed":2,
"census_total":6,"domino_self_starts":8,"domino_missed_rows":0,
"domino_rows_executed":947,"domino_untriggerable":0,"domino_batches":27,
"domino_retry_drops":0,"domino_anchor_rejections":6,
"domino_forced_trigger_losses":10,"domino_controller_outage_skips":0,
"recovery_slots":[0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639,0.019202048218476639,
0.019202048218476639,0.019202048218476639],"ap_health":[{"ap":0,
"self_starts":4,"missed_rows":0,"ack_timeouts":40,"retry_drops":0,
"anchor_rejections":4,"forced_trigger_losses":2,"recovery_samples":2},
{"ap":1,"self_starts":1,"missed_rows":0,"ack_timeouts":46,
"retry_drops":0,"anchor_rejections":0,"forced_trigger_losses":3,
"recovery_samples":3},{"ap":4,"self_starts":1,"missed_rows":0,
"ack_timeouts":45,"retry_drops":0,"anchor_rejections":0,
"forced_trigger_losses":3,"recovery_samples":3},{"ap":5,"self_starts":2,
"missed_rows":0,"ack_timeouts":44,"retry_drops":0,"anchor_rejections":2,
"forced_trigger_losses":2,"recovery_samples":2}],
"fault_backbone_drops":13,"fault_backbone_dups":6,
"fault_backbone_spikes":12,"fault_interference_bursts":24,
"fault_controller_outage_skips":0,"fault_forced_trigger_losses":10,
"fault_forced_false_positives":0,"lifecycle_epochs":0,
"lifecycle_rss_updates":0,"lifecycle_joins":0,"lifecycle_leaves":0,
"lifecycle_roams":0,"lifecycle_roam_rejections":0,
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
               {Scheme::kDomino, kCampusDominoBytes, 12783}};
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
// replaced, captured from the build before it: the single-symbol legacy
// path (static, and under churn and roaming) and the static multi-symbol
// rosters of a 26-client cell split over two poll symbols.
constexpr const char* kLegacyStaticBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":2,"uplink":false,
"throughput_bps":464213.33333333337,"mean_delay_us":30720.22482352941,
"delivered":17},{"flow_id":1,"src":2,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":50056.139384615381,
"delivered":13},{"flow_id":2,"src":0,"dst":3,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":48479.418769230768,
"delivered":13},{"flow_id":3,"src":3,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":50932.478999999999,
"delivered":13},{"flow_id":4,"src":0,"dst":4,"uplink":false,
"throughput_bps":300373.33333333337,"mean_delay_us":44786.424636363634,
"delivered":11},{"flow_id":5,"src":4,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":52164.531615384614,
"delivered":13},{"flow_id":6,"src":0,"dst":5,"uplink":false,
"throughput_bps":273066.66666666669,"mean_delay_us":50842.813999999998,
"delivered":10},{"flow_id":7,"src":5,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":53464.434692307696,
"delivered":13},{"flow_id":8,"src":0,"dst":6,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":68842.117076923067,
"delivered":13},{"flow_id":9,"src":6,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":53738.156307692305,
"delivered":13},{"flow_id":10,"src":0,"dst":7,"uplink":false,
"throughput_bps":354986.66666666669,"mean_delay_us":67271.90207692307,
"delivered":13},{"flow_id":11,"src":7,"dst":0,"uplink":true,
"throughput_bps":354986.66666666669,"mean_delay_us":55548.461384615381,
"delivered":13},{"flow_id":12,"src":0,"dst":8,"uplink":false,
"throughput_bps":300373.33333333337,"mean_delay_us":55469.738181818182,
"delivered":11},{"flow_id":13,"src":8,"dst":0,"uplink":true,
"throughput_bps":327680,"mean_delay_us":51923.146666666667,"delivered":12},
{"flow_id":14,"src":0,"dst":9,"uplink":false,"throughput_bps":327680,
"mean_delay_us":66266.876666666663,"delivered":12},{"flow_id":15,"src":9,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":53250.199000000001,"delivered":12},{"flow_id":16,"src":0,
"dst":10,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":57142.247615384615,"delivered":13},{"flow_id":17,"src":10,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":53757.529333333339,"delivered":12},{"flow_id":18,"src":0,
"dst":11,"uplink":false,"throughput_bps":327680,
"mean_delay_us":59621.997333333333,"delivered":12},{"flow_id":19,"src":11,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":54630.163333333338,"delivered":12},{"flow_id":20,"src":0,
"dst":12,"uplink":false,"throughput_bps":327680,
"mean_delay_us":71673.229333333322,"delivered":12},{"flow_id":21,"src":12,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":55328.778666666665,"delivered":12},{"flow_id":22,"src":0,
"dst":13,"uplink":false,"throughput_bps":327680,
"mean_delay_us":70929.066000000006,"delivered":12},{"flow_id":23,"src":13,
"dst":0,"uplink":true,"throughput_bps":327680,
"mean_delay_us":56380.042666666661,"delivered":12},{"flow_id":24,"src":1,
"dst":14,"uplink":false,"throughput_bps":300373.33333333337,
"mean_delay_us":12359.049999999999,"delivered":11},{"flow_id":25,"src":14,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":50317.574999999997,"delivered":13},{"flow_id":26,"src":1,
"dst":15,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":62187.29992307692,"delivered":13},{"flow_id":27,"src":15,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":51826.120615384614,"delivered":13},{"flow_id":28,"src":1,
"dst":16,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":67061.506153846145,"delivered":13},{"flow_id":29,"src":16,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":52605.758153846153,"delivered":13},{"flow_id":30,"src":1,
"dst":17,"uplink":false,"throughput_bps":327680,
"mean_delay_us":48207.555666666667,"delivered":12},{"flow_id":31,"src":17,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":53077.266692307698,"delivered":13},{"flow_id":32,"src":1,
"dst":18,"uplink":false,"throughput_bps":273066.66666666669,
"mean_delay_us":51570.889999999999,"delivered":10},{"flow_id":33,"src":18,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":53687.677307692305,"delivered":13},{"flow_id":34,"src":1,
"dst":19,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":53979.623230769233,"delivered":13},{"flow_id":35,"src":19,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":54106.788307692303,"delivered":13},{"flow_id":36,"src":1,
"dst":20,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":70097.844076923066,"delivered":13},{"flow_id":37,"src":20,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":54301.47592307692,"delivered":13},{"flow_id":38,"src":1,
"dst":21,"uplink":false,"throughput_bps":354986.66666666669,
"mean_delay_us":69306.392538461543,"delivered":13},{"flow_id":39,"src":21,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":55249.192000000003,"delivered":13},{"flow_id":40,"src":1,
"dst":22,"uplink":false,"throughput_bps":300373.33333333337,
"mean_delay_us":54071.048818181822,"delivered":11},{"flow_id":41,"src":22,
"dst":1,"uplink":true,"throughput_bps":354986.66666666669,
"mean_delay_us":55911.228615384614,"delivered":13},{"flow_id":42,"src":1,
"dst":23,"uplink":false,"throughput_bps":300373.33333333337,
"mean_delay_us":49872.261090909094,"delivered":11},{"flow_id":43,"src":23,
"dst":1,"uplink":true,"throughput_bps":327680,
"mean_delay_us":53240.271666666667,"delivered":12},{"flow_id":44,"src":1,
"dst":24,"uplink":false,"throughput_bps":327680,
"mean_delay_us":69967.382666666672,"delivered":12},{"flow_id":45,"src":24,
"dst":1,"uplink":true,"throughput_bps":327680,
"mean_delay_us":54413.918666666665,"delivered":12},{"flow_id":46,"src":1,
"dst":25,"uplink":false,"throughput_bps":327680,
"mean_delay_us":55814.953999999998,"delivered":12},{"flow_id":47,"src":25,
"dst":1,"uplink":true,"throughput_bps":327680,"mean_delay_us":55694.659,
"delivered":12}],"aggregate_throughput_bps":16274773.333333325,
"jain_fairness":0.99280028619980187,"mean_delay_us":55032.458278523489,
"ack_timeouts":0,"mac_drops":0,"census_hidden":0,"census_exposed":0,
"census_total":576,"domino_self_starts":2,"domino_missed_rows":0,
"domino_rows_executed":619,"domino_untriggerable":0,"domino_batches":42,
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
{"links":[{"flow_id":0,"src":0,"dst":4,"uplink":false,
"throughput_bps":788480,"mean_delay_us":28960.123688311687,"delivered":77},
{"flow_id":1,"src":4,"dst":0,"uplink":true,"throughput_bps":808960,
"mean_delay_us":39103.997075949366,"delivered":79},{"flow_id":2,"src":0,
"dst":5,"uplink":false,"throughput_bps":1658880,
"mean_delay_us":98108.475234567901,"delivered":162},{"flow_id":3,"src":5,
"dst":0,"uplink":true,"throughput_bps":921600,
"mean_delay_us":14899.636444444444,"delivered":90},{"flow_id":4,"src":1,
"dst":6,"uplink":false,"throughput_bps":2908160,
"mean_delay_us":45635.353422535212,"delivered":284},{"flow_id":5,"src":6,
"dst":1,"uplink":true,"throughput_bps":962560,
"mean_delay_us":9029.9135957446815,"delivered":94},{"flow_id":6,"src":1,
"dst":7,"uplink":false,"throughput_bps":1372160,
"mean_delay_us":60109.738582089551,"delivered":134},{"flow_id":7,"src":7,
"dst":1,"uplink":true,"throughput_bps":552960,
"mean_delay_us":26811.68414814815,"delivered":54},{"flow_id":8,"src":2,
"dst":8,"uplink":false,"throughput_bps":471040,
"mean_delay_us":58756.190086956522,"delivered":46},{"flow_id":9,"src":8,
"dst":2,"uplink":true,"throughput_bps":317440,
"mean_delay_us":12805.072967741935,"delivered":31},{"flow_id":10,"src":2,
"dst":9,"uplink":false,"throughput_bps":686080,
"mean_delay_us":71155.631985074622,"delivered":67},{"flow_id":11,"src":9,
"dst":2,"uplink":true,"throughput_bps":583680,
"mean_delay_us":55277.140315789475,"delivered":57},{"flow_id":12,"src":3,
"dst":10,"uplink":false,"throughput_bps":2396160,
"mean_delay_us":34810.931119658118,"delivered":234},{"flow_id":13,"src":10,
"dst":3,"uplink":true,"throughput_bps":931840,
"mean_delay_us":12530.312395604396,"delivered":91},{"flow_id":14,"src":3,
"dst":11,"uplink":false,"throughput_bps":3020800,
"mean_delay_us":67252.325322033896,"delivered":295},{"flow_id":15,"src":11,
"dst":3,"uplink":true,"throughput_bps":931840,
"mean_delay_us":11855.331098901099,"delivered":91}],
"aggregate_throughput_bps":19312640,"jain_fairness":0.68186411929970925,
"mean_delay_us":46175.889439024388,"ack_timeouts":47,"mac_drops":0,
"census_hidden":0,"census_exposed":0,"census_total":80,
"domino_self_starts":291,"domino_missed_rows":2,"domino_rows_executed":2241,
"domino_untriggerable":132,"domino_batches":89,"domino_retry_drops":3,
"domino_anchor_rejections":159,"domino_forced_trigger_losses":0,
"domino_controller_outage_skips":0,"recovery_slots":[],"ap_health":[{"ap":0,
"self_starts":80,"missed_rows":2,"ack_timeouts":1,"retry_drops":0,
"anchor_rejections":2,"forced_trigger_losses":0,"recovery_samples":0},
{"ap":1,"self_starts":130,"missed_rows":0,"ack_timeouts":0,"retry_drops":0,
"anchor_rejections":130,"forced_trigger_losses":0,"recovery_samples":0},
{"ap":2,"self_starts":72,"missed_rows":0,"ack_timeouts":29,"retry_drops":2,
"anchor_rejections":0,"forced_trigger_losses":0,"recovery_samples":0},
{"ap":3,"self_starts":9,"missed_rows":0,"ack_timeouts":8,"retry_drops":1,
"anchor_rejections":27,"forced_trigger_losses":0,"recovery_samples":0}],
"fault_backbone_drops":0,"fault_backbone_dups":0,"fault_backbone_spikes":0,
"fault_interference_bursts":0,"fault_controller_outage_skips":0,
"fault_forced_trigger_losses":0,"fault_forced_false_positives":0,
"lifecycle_epochs":15,"lifecycle_rss_updates":88,"lifecycle_joins":9,
"lifecycle_leaves":9,"lifecycle_roams":2,"lifecycle_roam_rejections":0,
"lifecycle_join_rejections":0})";

constexpr const char* kMultiSymbolDenseBytes = R"(
{"links":[{"flow_id":0,"src":0,"dst":1,"uplink":false,
"throughput_bps":238933.33333333334,"mean_delay_us":9547.4811428571429,
"delivered":7},{"flow_id":1,"src":1,"dst":0,"uplink":true,
"throughput_bps":0,"mean_delay_us":0,"delivered":0},{"flow_id":2,"src":0,
"dst":2,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":42590.879000000001,"delivered":5},{"flow_id":3,"src":2,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":46152.661,"delivered":5},{"flow_id":4,"src":0,"dst":3,
"uplink":false,"throughput_bps":136533.33333333334,
"mean_delay_us":41193.122000000003,"delivered":4},{"flow_id":5,"src":3,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":47150.214,"delivered":5},{"flow_id":6,"src":0,"dst":4,
"uplink":false,"throughput_bps":136533.33333333334,
"mean_delay_us":42470.101999999999,"delivered":4},{"flow_id":7,"src":4,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":47888.993999999999,"delivered":5},{"flow_id":8,"src":0,
"dst":5,"uplink":false,"throughput_bps":136533.33333333334,
"mean_delay_us":42709.438999999998,"delivered":4},{"flow_id":9,"src":5,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":49052.779000000002,"delivered":5},{"flow_id":10,"src":0,
"dst":6,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":49800.286,"delivered":5},{"flow_id":11,"src":6,"dst":0,
"uplink":true,"throughput_bps":170666.66666666669,"mean_delay_us":49608.82,
"delivered":5},{"flow_id":12,"src":0,"dst":7,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":45174.68,"delivered":5},
{"flow_id":13,"src":7,"dst":0,"uplink":true,"throughput_bps":0,
"mean_delay_us":0,"delivered":0},{"flow_id":14,"src":0,"dst":8,
"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":46688.599000000002,"delivered":5},{"flow_id":15,"src":8,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":51631.142999999996,"delivered":5},{"flow_id":16,"src":0,
"dst":9,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":56527.875999999997,"delivered":5},{"flow_id":17,"src":9,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":54401.343999999997,"delivered":5},{"flow_id":18,"src":0,
"dst":10,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":39076.959999999999,"delivered":5},{"flow_id":19,"src":10,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":52126.425999999999,"delivered":5},{"flow_id":20,"src":0,
"dst":11,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":57363.542000000001,"delivered":5},{"flow_id":21,"src":11,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":53832.095999999998,"delivered":5},{"flow_id":22,"src":0,
"dst":12,"uplink":false,"throughput_bps":136533.33333333334,
"mean_delay_us":48240.025999999998,"delivered":4},{"flow_id":23,"src":12,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":54437.252999999997,"delivered":5},{"flow_id":24,"src":0,
"dst":13,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":55179.377999999997,"delivered":5},{"flow_id":25,"src":13,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":55773.826000000001,"delivered":5},{"flow_id":26,"src":0,
"dst":14,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":50326.398999999998,"delivered":5},{"flow_id":27,"src":14,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":56521.563000000002,"delivered":5},{"flow_id":28,"src":0,
"dst":15,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":59509.614999999998,"delivered":5},{"flow_id":29,"src":15,
"dst":0,"uplink":true,"throughput_bps":170666.66666666669,
"mean_delay_us":57852.042000000001,"delivered":5},{"flow_id":30,"src":0,
"dst":16,"uplink":false,"throughput_bps":170666.66666666669,
"mean_delay_us":49583.962,"delivered":5},{"flow_id":31,"src":16,"dst":0,
"uplink":true,"throughput_bps":170666.66666666669,"mean_delay_us":58833.913,
"delivered":5},{"flow_id":32,"src":0,"dst":17,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":48062.148000000001,
"delivered":5},{"flow_id":33,"src":17,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":59314.256999999998,
"delivered":5},{"flow_id":34,"src":0,"dst":18,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":65178.999000000003,
"delivered":5},{"flow_id":35,"src":18,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":60021.224000000002,
"delivered":5},{"flow_id":36,"src":0,"dst":19,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":61309.302000000003,
"delivered":5},{"flow_id":37,"src":19,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":60778.233999999997,
"delivered":5},{"flow_id":38,"src":0,"dst":20,"uplink":false,
"throughput_bps":170666.66666666669,"mean_delay_us":52912.294999999998,
"delivered":5},{"flow_id":39,"src":20,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":62267.669999999998,
"delivered":5},{"flow_id":40,"src":0,"dst":21,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":56568.716999999997,
"delivered":4},{"flow_id":41,"src":21,"dst":0,"uplink":true,
"throughput_bps":170666.66666666669,"mean_delay_us":62480.254999999997,
"delivered":5},{"flow_id":42,"src":0,"dst":22,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":57507.478000000003,
"delivered":4},{"flow_id":43,"src":22,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":53144.839,
"delivered":4},{"flow_id":44,"src":0,"dst":23,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":58643.875,
"delivered":4},{"flow_id":45,"src":23,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":54583.576999999997,
"delivered":4},{"flow_id":46,"src":0,"dst":24,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":59982.281999999999,
"delivered":4},{"flow_id":47,"src":24,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":55210.103000000003,
"delivered":4},{"flow_id":48,"src":0,"dst":25,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":60587.281999999999,
"delivered":4},{"flow_id":49,"src":25,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":56567.726000000002,
"delivered":4},{"flow_id":50,"src":0,"dst":26,"uplink":false,
"throughput_bps":136533.33333333334,"mean_delay_us":61588.576000000001,
"delivered":4},{"flow_id":51,"src":26,"dst":0,"uplink":true,
"throughput_bps":136533.33333333334,"mean_delay_us":57474.256000000001,
"delivered":4}],"aggregate_throughput_bps":8089600,
"jain_fairness":0.9483521307489704,"mean_delay_us":52277.494253164557,
"ack_timeouts":0,"mac_drops":0,"census_hidden":0,"census_exposed":0,
"census_total":0,"domino_self_starts":1,"domino_missed_rows":0,
"domino_rows_executed":247,"domino_untriggerable":0,"domino_batches":39,
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
/// 100 ms). Draw 1005 is one of those whose DOMINO run trips the auditor's
/// converter.rop-sharing check (ROADMAP item 1), so the pin runs unaudited.
/// Digests were taken before the converter, traffic and DOMINO MAC moved
/// onto flat tables; the results must not change.
TEST(ResultCodec, PinnedBytesFig14Draws) {
  struct Pin {
    std::uint64_t draw;
    Scheme scheme;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1000, Scheme::kDcf, 8011, 0x7d39a1febb72f560ull},
      {1000, Scheme::kDomino, 11074, 0x67163fe056c7caf1ull},
      {1005, Scheme::kDcf, 8006, 0x9489801f912fccfaull},
      {1005, Scheme::kDomino, 11066, 0x99997fa1b9c3de8eull},
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
