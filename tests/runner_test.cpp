// Tests for the crash-safe sweep runner (docs/RUNNER.md): checkpoint
// resume byte-identity after a simulated kill, manifest validation,
// watchdog budgets (wall clock and event count), per-point error
// isolation, the SIGINT drain path and pinned point hashes.
//
// The kill is simulated by truncating the checkpoint file to the manifest
// plus the first K records: every flush is an atomic whole-file rename, so
// that is exactly the set of states a SIGKILL can leave behind (the
// real-process variant lives in bench/bench_soak.cpp).

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/sweep.h"
#include "api/sweep_io.h"
#include "topo/dynamics.h"
#include "topo/topology.h"
#include "util/rng.h"

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
  cfg.duration = msec(150);
  cfg.traffic.saturate_downlink = true;
  return cfg;
}

/// RAII scratch checkpoint file, removed on destruction.
struct ScratchFile {
  explicit ScratchFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Truncates the checkpoint to the manifest plus the first `keep` records —
/// the state a kill after `keep` atomic flushes leaves behind.
void truncate_checkpoint(const std::string& path, std::size_t keep) {
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), keep + 1);
  std::string kept;
  for (std::size_t i = 0; i < keep + 1; ++i) kept += lines[i] + "\n";
  atomic_write_file(path, kept);
}

// ---- checkpoint / resume ---------------------------------------------------

TEST(Runner, CheckpointResumeIsByteIdentical) {
  const auto topo = two_cells();
  const auto points = seed_sweep(topo, base_config(), 1, 8);

  // Uninterrupted reference, no checkpointing.
  SweepRunner ref_runner;
  const std::string reference =
      serialize_report(ref_runner.run_outcomes(points));

  ScratchFile ckpt("runner_test_resume.jsonl");
  {
    SweepOptions opt;
    opt.num_threads = 2;
    opt.checkpoint_path = ckpt.path;
    opt.sweep_name = "resume-test";
    SweepRunner runner(opt);
    const auto full = runner.run_outcomes(points);
    EXPECT_TRUE(full.all_ok());
    EXPECT_EQ(serialize_report(full), reference);
  }
  // Manifest line + one record per point, all parseable JSON.
  const auto lines = read_lines(ckpt.path);
  ASSERT_EQ(lines.size(), points.size() + 1);
  EXPECT_EQ(parse_json(lines[0]).str_or("type", ""), "manifest");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(parse_json(lines[i]).str_or("type", ""), "point") << i;
  }

  // Kill after 3 completed points, then resume at 1 and at 4 threads.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("resume threads=" + std::to_string(threads));
    truncate_checkpoint(ckpt.path, 3);
    SweepOptions opt;
    opt.num_threads = threads;
    opt.checkpoint_path = ckpt.path;
    opt.sweep_name = "resume-test";
    SweepRunner runner(opt);
    const auto resumed = runner.run_outcomes(points);
    EXPECT_EQ(runner.stats().restored, 3u);
    EXPECT_EQ(runner.stats().ok, points.size());
    EXPECT_EQ(serialize_report(resumed), reference);
    // The resumed run re-persists everything: the file is whole again.
    EXPECT_EQ(read_lines(ckpt.path).size(), points.size() + 1);
  }
}

TEST(Runner, ChurnSweepResumeIsByteIdentical) {
  // The dynamic-topology path (compiled churn events, roam decisions,
  // lifecycle counters) must reproduce byte-for-byte through the
  // kill/resume cycle just like static runs: every draw derives from the
  // point's seed, never from which process or thread recomputed it.
  Rng rng(17);
  const auto topo = topo::make_floorplan_topology({}, 2, 2, {}, rng);
  ExperimentConfig cfg = base_config();
  cfg.dynamics.epoch = msec(20);
  cfg.dynamics.churn_rate_hz = 5.0;
  cfg.dynamics.churn_downtime = msec(30);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.roam.min_dwell = msec(40);
  const auto points = seed_sweep(topo, cfg, 1, 6);

  SweepRunner ref_runner;
  const auto ref_report = ref_runner.run_outcomes(points);
  ASSERT_TRUE(ref_report.all_ok());
  const std::string reference = serialize_report(ref_report);
  // Churn actually fired somewhere in the sweep (non-vacuous comparison).
  std::uint64_t leaves = 0;
  for (const auto& o : ref_report.outcomes) leaves += o.result.lifecycle_leaves;
  EXPECT_GT(leaves, 0u);

  ScratchFile ckpt("runner_test_churn_resume.jsonl");
  {
    SweepOptions opt;
    opt.num_threads = 2;
    opt.checkpoint_path = ckpt.path;
    opt.sweep_name = "churn-resume-test";
    SweepRunner runner(opt);
    const auto full = runner.run_outcomes(points);
    EXPECT_TRUE(full.all_ok());
    EXPECT_EQ(serialize_report(full), reference);
  }
  // Kill after 2 completed points, resume on a different thread count.
  truncate_checkpoint(ckpt.path, 2);
  SweepOptions opt;
  opt.num_threads = 4;
  opt.checkpoint_path = ckpt.path;
  opt.sweep_name = "churn-resume-test";
  SweepRunner runner(opt);
  const auto resumed = runner.run_outcomes(points);
  EXPECT_EQ(runner.stats().restored, 2u);
  EXPECT_EQ(runner.stats().ok, points.size());
  EXPECT_EQ(serialize_report(resumed), reference);
}

TEST(Runner, MismatchedManifestStartsFresh) {
  const auto topo = two_cells();
  const auto points = seed_sweep(topo, base_config(), 1, 4);
  ScratchFile ckpt("runner_test_mismatch.jsonl");

  {
    SweepOptions opt;
    opt.num_threads = 1;
    opt.checkpoint_path = ckpt.path;
    SweepRunner runner(opt);
    runner.run_outcomes(points);
  }
  // A different sweep (different seeds -> different sweep hash) must not
  // trust the old records.
  const auto other = seed_sweep(topo, base_config(), 50, 4);
  SweepOptions opt;
  opt.num_threads = 1;
  opt.checkpoint_path = ckpt.path;
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(other);
  EXPECT_EQ(runner.stats().restored, 0u);
  EXPECT_TRUE(report.all_ok());
}

TEST(Runner, TornCheckpointLineIsIgnored) {
  const auto topo = two_cells();
  const auto points = seed_sweep(topo, base_config(), 1, 4);
  ScratchFile ckpt("runner_test_torn.jsonl");
  {
    SweepOptions opt;
    opt.num_threads = 1;
    opt.checkpoint_path = ckpt.path;
    SweepRunner runner(opt);
    runner.run_outcomes(points);
  }
  // Corrupt the last record by chopping it mid-object.
  auto lines = read_lines(ckpt.path);
  ASSERT_EQ(lines.size(), 5u);
  std::string torn;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) torn += lines[i] + "\n";
  torn += lines.back().substr(0, lines.back().size() / 2);
  atomic_write_file(ckpt.path, torn);

  SweepOptions opt;
  opt.num_threads = 1;
  opt.checkpoint_path = ckpt.path;
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(points);
  EXPECT_EQ(runner.stats().restored, 3u);  // the torn record recomputed
  EXPECT_TRUE(report.all_ok());
}

// ---- watchdog budgets ------------------------------------------------------

TEST(Runner, EventBudgetProducesTimedOutOutcome) {
  const auto topo = two_cells();
  auto points = seed_sweep(topo, base_config(), 1, 3);

  SweepOptions opt;
  opt.num_threads = 2;
  opt.budget.max_events = 500;  // a 150 ms saturated run needs far more
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(points);
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const PointOutcome& o = report.outcomes[i];
    EXPECT_EQ(o.status, PointStatus::kTimedOut) << i;
    EXPECT_GT(o.events_executed, 0u) << i;
    EXPECT_GT(o.sim_time_ns, 0) << i;
    EXPECT_LE(o.events_executed, 500u + 1u) << i;
  }
  EXPECT_EQ(runner.stats().timeouts, 3u);
  EXPECT_EQ(runner.stats().ok, 0u);
}

TEST(Runner, WallClockBudgetKillsOnlyTheRunawayPoint) {
  const auto topo = two_cells();
  auto points = seed_sweep(topo, base_config(), 1, 3);
  points[0].config.duration = msec(20);  // finishes well within the budget
  points[2].config.duration = msec(20);
  points[1].config.duration = sec(600);  // cannot finish within the budget

  SweepOptions opt;
  opt.num_threads = 1;  // one slot: the runaway must not poison neighbors
  opt.budget.wall_seconds = 0.25;
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(points);

  EXPECT_EQ(report.outcomes[0].status, PointStatus::kOk);
  EXPECT_EQ(report.outcomes[2].status, PointStatus::kOk);
  ASSERT_EQ(report.outcomes[1].status, PointStatus::kTimedOut);
  EXPECT_GT(report.outcomes[1].sim_time_ns, 0);
  EXPECT_GT(report.outcomes[1].events_executed, 0u);
  EXPECT_EQ(runner.stats().timeouts, 1u);
  EXPECT_EQ(runner.stats().ok, 2u);
}

// ---- error isolation -------------------------------------------------------

// A point whose config the facade rejects is a deterministic failure: it
// stays an error outcome, with the exception type and message captured, and
// the other points' results are unaffected.
TEST(Runner, ErrorsAreIsolatedPerPoint) {
  const auto topo = two_cells();
  auto points = seed_sweep(topo, base_config(), 1, 5);
  points[1].config.faults.backbone.drop_rate = 2.0;
  points[3].config.faults.backbone.drop_rate = 2.0;

  SweepOptions opt;
  opt.num_threads = 2;
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(points);
  EXPECT_EQ(runner.stats().ok, 3u);
  EXPECT_EQ(runner.stats().errors, 2u);
  for (const std::size_t bad : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(report.outcomes[bad].status, PointStatus::kError);
    EXPECT_NE(report.outcomes[bad].error_type.find("invalid_argument"),
              std::string::npos);
    EXPECT_NE(
        report.outcomes[bad].error_message.find("faults.backbone.drop_rate"),
        std::string::npos);
  }
  for (const std::size_t good :
       {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(report.outcomes[good].status, PointStatus::kOk);
    EXPECT_GT(report.result(good).throughput_mbps(), 0.0);
  }
}

// ---- graceful shutdown -----------------------------------------------------

TEST(Runner, SigintDrainsAndResumeCompletes) {
  const auto topo = two_cells();
  const auto points = seed_sweep(topo, base_config(), 1, 6);

  SweepRunner ref_runner;
  const std::string reference =
      serialize_report(ref_runner.run_outcomes(points));

  ScratchFile ckpt("runner_test_sigint.jsonl");
  {
    SweepOptions opt;
    opt.num_threads = 1;  // deterministic claim order for the interrupt
    opt.checkpoint_path = ckpt.path;
    opt.on_progress = [](std::size_t done, std::size_t) {
      // The handler installed by the checkpointing runner just sets the
      // drain flag, so raising from the progress callback is the in-process
      // equivalent of Ctrl-C mid-sweep.
      if (done == 2) std::raise(SIGINT);
    };
    SweepRunner runner(opt);
    const auto report = runner.run_outcomes(points);
    EXPECT_TRUE(report.interrupted);
    EXPECT_EQ(runner.stats().ok, 2u);
    EXPECT_EQ(runner.stats().skipped, 4u);
  }
  // The drained run left a valid checkpoint; a plain re-run completes the
  // sweep and matches the uninterrupted reference byte for byte.
  SweepOptions opt;
  opt.num_threads = 2;
  opt.checkpoint_path = ckpt.path;
  SweepRunner runner(opt);
  const auto resumed = runner.run_outcomes(points);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(runner.stats().restored, 2u);
  EXPECT_TRUE(resumed.all_ok());
  EXPECT_EQ(serialize_report(resumed), reference);
}

// ---- serialization round-trip ---------------------------------------------

TEST(Runner, OutcomeSerializationRoundTripsExactly) {
  const auto topo = two_cells();
  ExperimentConfig cfg = base_config();
  cfg.scheme = Scheme::kDomino;
  const auto points = seed_sweep(topo, cfg, 7, 1);
  SweepOptions opt;
  opt.num_threads = 1;
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(points);
  ASSERT_TRUE(report.ok(0));

  const std::string once = serialize_outcome(report.outcomes[0]);
  const PointOutcome back = deserialize_outcome(parse_json(once));
  EXPECT_EQ(serialize_outcome(back), once);
  EXPECT_EQ(back.status, PointStatus::kOk);
  EXPECT_DOUBLE_EQ(back.result.aggregate_throughput_bps,
                   report.outcomes[0].result.aggregate_throughput_bps);
}

TEST(Runner, PointHashDistinguishesSeedAndTopology) {
  const auto topo = two_cells();
  const auto points = seed_sweep(topo, base_config(), 1, 2);
  EXPECT_NE(hash_point(points[0]), hash_point(points[1]));

  SweepPoint same = points[0];
  same.label = "different label";  // labels are display-only
  EXPECT_EQ(hash_point(points[0]), hash_point(same));
}

TEST(Runner, PointHashIgnoresTheKernel) {
  // Results are the same bytes on one queue and partitioned, so the kernel
  // is no part of a point: two radio-isolated buildings, which partition
  // when DMN_SIM_THREADS asks, hash alike with it unset and set, and their
  // checkpoints resume across it.
  const char* saved = std::getenv("DMN_SIM_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  topo::ManualTopologyBuilder b;
  b.add_client(b.add_ap());
  b.add_client(b.add_ap());
  const auto buildings = b.build();
  ASSERT_EQ(buildings.component_count(), 2u);
  const SweepPoint split = seed_sweep(buildings, base_config(), 1, 1)[0];

  ::unsetenv("DMN_SIM_THREADS");
  const std::uint64_t split_unset = hash_point(split);
  ::setenv("DMN_SIM_THREADS", "4", 1);
  EXPECT_EQ(hash_point(split), split_unset);

  if (saved != nullptr) {
    ::setenv("DMN_SIM_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("DMN_SIM_THREADS");
  }
}

TEST(Runner, PointHashIsPinnedForEveryScheme) {
  // Checkpoints written by earlier builds resume only while a point hashes
  // to the same value, so the hashed bytes (the scheme's to_string text
  // included) are pinned here for one fixed point per scheme.
  const struct {
    Scheme scheme;
    std::uint64_t hash;
  } pins[] = {
      {Scheme::kDcf, 0xdc41f4fe11af2a7aull},
      {Scheme::kCentaur, 0x552c4da8d4d07c4dull},
      {Scheme::kDomino, 0x19a3d9876c590840ull},
      {Scheme::kOmniscient, 0xb8f30e4acb676937ull},
  };
  for (const auto& pin : pins) {
    ExperimentConfig cfg = base_config();
    cfg.scheme = pin.scheme;
    const SweepPoint point = seed_sweep(two_cells(), cfg, 1, 1)[0];
    EXPECT_EQ(hash_point(point), pin.hash) << to_string(pin.scheme);
  }
}

TEST(Runner, PointHashSeesEveryKnob) {
  // A checkpoint resumes a point only while its hash matches, so every
  // settable ExperimentConfig value that can change a result feeds
  // hash_point: perturbing any one of them moves the hash. The passive
  // recorders and the thread count never change a result, so checkpoints
  // resume across them. The two buildings keep one queue in the base point
  // and partition in the thread-count case, which makes it a real one.
  topo::ManualTopologyBuilder b;
  b.add_client(b.add_ap());
  b.add_client(b.add_ap());
  ExperimentConfig base = base_config();
  base.sim_threads = -1;
  const SweepPoint point = seed_sweep(b.build(), base, 1, 1)[0];
  const std::uint64_t base_hash = hash_point(point);

  using Tweak = void (*)(ExperimentConfig&);
  const struct {
    const char* knob;
    Tweak tweak;
    bool hashed;
  } cases[] = {
      {"scheme", [](ExperimentConfig& c) { c.scheme = Scheme::kDomino; },
       true},
      {"traffic.kind",
       [](ExperimentConfig& c) { c.traffic.kind = TrafficKind::kTcp; }, true},
      {"traffic.downlink_bps",
       [](ExperimentConfig& c) { c.traffic.downlink_bps += 1.0; }, true},
      {"traffic.uplink_bps",
       [](ExperimentConfig& c) { c.traffic.uplink_bps = 1e6; }, true},
      {"traffic.saturate_downlink",
       [](ExperimentConfig& c) { c.traffic.saturate_downlink = false; },
       true},
      {"traffic.saturate_uplink",
       [](ExperimentConfig& c) { c.traffic.saturate_uplink = true; }, true},
      {"traffic.packet_bytes",
       [](ExperimentConfig& c) { c.traffic.packet_bytes = 1024; }, true},
      {"traffic.custom",
       [](ExperimentConfig& c) { c.traffic.custom.push_back({0, 2, 1e6}); },
       true},
      {"duration", [](ExperimentConfig& c) { c.duration += 1; }, true},
      {"seed", [](ExperimentConfig& c) { c.seed += 1; }, true},
      {"wifi.data_rate_bps",
       [](ExperimentConfig& c) { c.wifi.data_rate_bps = 24e6; }, true},
      {"wifi.queue_capacity",
       [](ExperimentConfig& c) { c.wifi.queue_capacity = 50; }, true},
      {"backbone.mean_latency",
       [](ExperimentConfig& c) { c.backbone.mean_latency += 1; }, true},
      {"backbone.sigma_latency",
       [](ExperimentConfig& c) { c.backbone.sigma_latency += 1; }, true},
      {"backbone.min_latency",
       [](ExperimentConfig& c) { c.backbone.min_latency += 1; }, true},
      {"domino.batch_slots",
       [](ExperimentConfig& c) { c.domino.batch_slots = 12; }, true},
      {"converter.max_inbound",
       [](ExperimentConfig& c) { c.converter.max_inbound = 3; }, true},
      {"converter.max_outbound",
       [](ExperimentConfig& c) { c.converter.max_outbound = 5; }, true},
      {"converter.insert_fake_links",
       [](ExperimentConfig& c) { c.converter.insert_fake_links = false; },
       true},
      {"sig_model.p_by_count",
       [](ExperimentConfig& c) { c.sig_model.p_by_count[5] = 0.5; }, true},
      {"sig_model.beyond_decay",
       [](ExperimentConfig& c) { c.sig_model.beyond_decay = 0.2; }, true},
      {"rop.data_per_subchannel",
       [](ExperimentConfig& c) { c.rop.data_per_subchannel = 4; }, true},
      {"rop.guard_per_subchannel",
       [](ExperimentConfig& c) { c.rop.guard_per_subchannel = 2; }, true},
      {"rop.poll_mode",
       [](ExperimentConfig& c) { c.rop.poll_mode = rop::PollMode::kAdaptive; },
       true},
      {"rop.max_poll_symbols",
       [](ExperimentConfig& c) { c.rop.max_poll_symbols = 3; }, true},
      {"rop.assign_seed",
       [](ExperimentConfig& c) { c.rop.assign_seed = 2; }, true},
      {"faults.backbone.drop_rate",
       [](ExperimentConfig& c) { c.faults.backbone.drop_rate = 0.1; }, true},
      {"faults.backbone.dup_rate",
       [](ExperimentConfig& c) { c.faults.backbone.dup_rate = 0.1; }, true},
      {"faults.backbone.spike_rate",
       [](ExperimentConfig& c) { c.faults.backbone.spike_rate = 0.1; }, true},
      {"faults.backbone.spike_extra",
       [](ExperimentConfig& c) { c.faults.backbone.spike_extra += 1; }, true},
      {"faults.controller.outages",
       [](ExperimentConfig& c) {
         c.faults.controller.outages.push_back({msec(10), msec(5)});
       },
       true},
      {"faults.interference.duty",
       [](ExperimentConfig& c) { c.faults.interference.duty = 0.5; }, true},
      {"faults.interference.period",
       [](ExperimentConfig& c) { c.faults.interference.period += 1; }, true},
      {"faults.interference.power_dbm",
       [](ExperimentConfig& c) { c.faults.interference.power_dbm = -50.0; },
       true},
      {"faults.signature.false_negative_rate",
       [](ExperimentConfig& c) {
         c.faults.signature.false_negative_rate = 0.1;
       },
       true},
      {"faults.signature.false_positive_rate",
       [](ExperimentConfig& c) {
         c.faults.signature.false_positive_rate = 0.1;
       },
       true},
      {"faults.signature.blackouts",
       [](ExperimentConfig& c) {
         c.faults.signature.blackouts.push_back({2, {0, msec(5)}});
       },
       true},
      {"faults.clock.max_skew_ppm",
       [](ExperimentConfig& c) { c.faults.clock.max_skew_ppm = 50.0; }, true},
      {"faults.ap_outages",
       [](ExperimentConfig& c) {
         c.faults.ap_outages.push_back({0, {msec(10), msec(5)}});
       },
       true},
      {"dynamics.epoch", [](ExperimentConfig& c) { c.dynamics.epoch += 1; },
       true},
      {"dynamics.floorplan.num_nodes",
       [](ExperimentConfig& c) { c.dynamics.floorplan.num_nodes += 1; },
       true},
      {"dynamics.floorplan.building_w",
       [](ExperimentConfig& c) { c.dynamics.floorplan.building_w += 1.0; },
       true},
      {"dynamics.floorplan.building_h",
       [](ExperimentConfig& c) { c.dynamics.floorplan.building_h += 1.0; },
       true},
      {"dynamics.floorplan.building_gap",
       [](ExperimentConfig& c) { c.dynamics.floorplan.building_gap += 1.0; },
       true},
      {"dynamics.floorplan.tx_power_dbm",
       [](ExperimentConfig& c) { c.dynamics.floorplan.tx_power_dbm += 1.0; },
       true},
      {"dynamics.floorplan.ref_loss_db",
       [](ExperimentConfig& c) { c.dynamics.floorplan.ref_loss_db += 1.0; },
       true},
      {"dynamics.floorplan.exponent",
       [](ExperimentConfig& c) { c.dynamics.floorplan.exponent += 0.1; },
       true},
      {"dynamics.floorplan.wall_db",
       [](ExperimentConfig& c) { c.dynamics.floorplan.wall_db += 1.0; },
       true},
      {"dynamics.floorplan.room_w",
       [](ExperimentConfig& c) { c.dynamics.floorplan.room_w += 1.0; },
       true},
      {"dynamics.floorplan.room_h",
       [](ExperimentConfig& c) { c.dynamics.floorplan.room_h += 1.0; },
       true},
      {"dynamics.floorplan.exterior_wall_db",
       [](ExperimentConfig& c) {
         c.dynamics.floorplan.exterior_wall_db += 1.0;
       },
       true},
      {"dynamics.floorplan.shadowing_sigma_db",
       [](ExperimentConfig& c) {
         c.dynamics.floorplan.shadowing_sigma_db += 1.0;
       },
       true},
      {"dynamics.floorplan.max_interior_walls",
       [](ExperimentConfig& c) {
         c.dynamics.floorplan.max_interior_walls += 1;
       },
       true},
      {"dynamics.trajectories",
       [](ExperimentConfig& c) {
         c.dynamics.trajectories.push_back(
             {2, {{0, {1.0, 1.0}}, {msec(50), {2.0, 2.0}}}});
       },
       true},
      {"dynamics.membership",
       [](ExperimentConfig& c) {
         c.dynamics.membership.push_back({msec(10), 2, false});
       },
       true},
      {"dynamics.churn_rate_hz",
       [](ExperimentConfig& c) { c.dynamics.churn_rate_hz = 2.0; }, true},
      {"dynamics.churn_downtime",
       [](ExperimentConfig& c) { c.dynamics.churn_downtime += 1; }, true},
      {"dynamics.churn_nodes",
       [](ExperimentConfig& c) { c.dynamics.churn_nodes.push_back(2); },
       true},
      {"dynamics.roam.enabled",
       [](ExperimentConfig& c) { c.dynamics.roam.enabled = true; }, true},
      {"dynamics.roam.hysteresis_db",
       [](ExperimentConfig& c) { c.dynamics.roam.hysteresis_db += 1.0; },
       true},
      {"dynamics.roam.min_dwell",
       [](ExperimentConfig& c) { c.dynamics.roam.min_dwell += 1; }, true},
      {"audit.mutation",
       [](ExperimentConfig& c) {
         c.audit.mutation = audit::Mutation::kMacDoubleDelivery;
       },
       true},
      {"audit.mode",
       [](ExperimentConfig& c) { c.audit.mode = audit::AuditMode::kRecord; },
       false},
      {"record_timeline",
       [](ExperimentConfig& c) { c.record_timeline = true; }, false},
      {"sim_threads", [](ExperimentConfig& c) { c.sim_threads = 4; }, false},
  };
  for (const auto& k : cases) {
    SweepPoint tweaked = point;
    k.tweak(tweaked.config);
    if (k.hashed) {
      EXPECT_NE(hash_point(tweaked), base_hash) << k.knob;
    } else {
      EXPECT_EQ(hash_point(tweaked), base_hash) << k.knob;
    }
  }
}

}  // namespace
}  // namespace dmn::api
