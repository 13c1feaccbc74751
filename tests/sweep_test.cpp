// Tests for the scheme-plugin + sweep layer: registry contents, plugin
// registration, the determinism contract (1-thread vs N-thread sweeps are
// bit-identical), error propagation out of the pool, and the result codec
// driven by the field tables in api/metrics.h (pinned bytes, round trip of
// every result metric, telemetry kept out of the bytes).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "api/experiment.h"
#include "api/scheme_stack.h"
#include "api/stacks/dcf_stack.h"
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

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(serialize_result(a), serialize_result(b));
}

// ---- registry --------------------------------------------------------------

TEST(SchemeStackRegistry, BuiltinsRegistered) {
  auto& reg = SchemeStackRegistry::instance();
  for (Scheme s : {Scheme::kDcf, Scheme::kCentaur, Scheme::kDomino,
                   Scheme::kOmniscient}) {
    EXPECT_TRUE(reg.contains(to_string(s))) << to_string(s);
  }
  EXPECT_GE(reg.names().size(), 4u);
}

TEST(SchemeStackRegistry, UnknownSchemeThrowsWithKnownNames) {
  auto& reg = SchemeStackRegistry::instance();
  try {
    reg.create("NO-SUCH-SCHEME");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NO-SUCH-SCHEME"), std::string::npos);
    EXPECT_NE(msg.find("DOMINO"), std::string::npos);
  }
}

// Every registered scheme must assemble and run through the stack path.
TEST(SchemeStackRegistry, EveryRegisteredSchemeBuildsAndRuns) {
  for (const std::string& name : SchemeStackRegistry::instance().names()) {
    ExperimentConfig cfg = base_config();
    cfg.scheme_name = name;
    const auto r = run_experiment(two_cells(), cfg);
    EXPECT_GT(r.throughput_mbps(), 1.0) << name;
    EXPECT_EQ(r.links.size(), 2u) << name;
  }
}

// scheme_name and the enum must resolve to the same stack (parity with the
// pre-plugin facade exercised by api_test).
TEST(SchemeStackRegistry, NameAndEnumSelectionAgree) {
  for (Scheme s : {Scheme::kDcf, Scheme::kCentaur, Scheme::kDomino,
                   Scheme::kOmniscient}) {
    ExperimentConfig by_enum = base_config();
    by_enum.scheme = s;
    ExperimentConfig by_name = base_config();
    by_name.scheme_name = to_string(s);
    expect_identical(run_experiment(two_cells(), by_enum),
                     run_experiment(two_cells(), by_name));
  }
}

// A plugged-in scheme (here: a trivially derived DCF variant) runs without
// any facade change — the point of the plugin seam.
TEST(SchemeStackRegistry, CustomStackPlugsIn) {
  class NarrowQueueDcf : public DcfStack {
   public:
    void build(StackContext& ctx,
               std::vector<mac::MacEntity*>& macs) override {
      DcfStack::build(ctx, macs);
    }
  };
  SchemeStackRegistry::instance().add(
      "DCF-TEST-VARIANT", [] { return std::make_unique<NarrowQueueDcf>(); });
  ExperimentConfig cfg = base_config();
  cfg.scheme_name = "DCF-TEST-VARIANT";
  const auto r = run_experiment(two_cells(), cfg);
  EXPECT_GT(r.throughput_mbps(), 1.0);
  // Identical assembly must give identical results to stock DCF.
  ExperimentConfig stock = base_config();
  stock.scheme = Scheme::kDcf;
  expect_identical(run_experiment(two_cells(), stock), r);
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
  for (Scheme s : {Scheme::kDcf, Scheme::kCentaur, Scheme::kDomino,
                   Scheme::kOmniscient}) {
    ExperimentConfig cfg = base_config();
    cfg.scheme = s;
    cfg.duration = msec(150);
    const auto points = seed_sweep(two_cells(), cfg, 1, 16);

    SweepRunner serial({1, nullptr});
    SweepRunner pooled({4, nullptr});
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
  const SweepReport report = SweepRunner({2, nullptr})
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
        k.starts_with("domino_poll_") || k.starts_with("sim_") ||
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
