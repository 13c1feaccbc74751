// Tests for the crash-safe sweep runner (docs/RUNNER.md): checkpoint
// resume byte-identity after a simulated kill, manifest validation,
// watchdog budgets (wall clock and event count), the retry-with-same-seed
// policy, and the SIGINT drain path.
//
// The kill is simulated by truncating the checkpoint file to the manifest
// plus the first K records: every flush is an atomic whole-file rename, so
// that is exactly the set of states a SIGKILL can leave behind (the
// real-process variant lives in bench/bench_soak.cpp).

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/scheme_stack.h"
#include "api/stacks/dcf_stack.h"
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

// ---- retry policy ----------------------------------------------------------

/// DCF variant whose build() throws on the first N calls (global counter):
/// the deterministic model of an environment flake.
class FlakyStack : public DcfStack {
 public:
  static std::atomic<int> failures_left;
  void build(StackContext& ctx, std::vector<mac::MacEntity*>& macs) override {
    if (failures_left.fetch_sub(1) > 0) {
      throw std::runtime_error("injected one-shot failure");
    }
    DcfStack::build(ctx, macs);
  }
};
std::atomic<int> FlakyStack::failures_left{0};

TEST(Runner, RetryPolicyRecoversOneShotFailure) {
  SchemeStackRegistry::instance().add(
      "FLAKY-TEST", [] { return std::make_unique<FlakyStack>(); });
  const auto topo = two_cells();
  auto points = seed_sweep(topo, base_config(), 1, 1);
  points[0].config.scheme_name = "FLAKY-TEST";

  FlakyStack::failures_left.store(1);
  SweepOptions opt;
  opt.num_threads = 1;
  opt.max_attempts = 2;
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(points);
  ASSERT_EQ(report.outcomes[0].status, PointStatus::kOk);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
  EXPECT_EQ(runner.stats().retried, 1u);

  // A deterministic failure exhausts the attempts and stays an error,
  // with the exception type and message captured.
  FlakyStack::failures_left.store(1000);
  SweepRunner strict(opt);
  const auto failed = strict.run_outcomes(points);
  ASSERT_EQ(failed.outcomes[0].status, PointStatus::kError);
  EXPECT_EQ(failed.outcomes[0].attempts, 2);
  EXPECT_NE(failed.outcomes[0].error_message.find("injected"),
            std::string::npos);
  EXPECT_NE(failed.outcomes[0].error_type.find("runtime_error"),
            std::string::npos);
  FlakyStack::failures_left.store(0);
}

TEST(Runner, ErrorsAreIsolatedPerPoint) {
  const auto topo = two_cells();
  auto points = seed_sweep(topo, base_config(), 1, 5);
  points[1].config.scheme_name = "NO-SUCH-SCHEME";
  points[3].config.scheme_name = "NO-SUCH-SCHEME";

  SweepOptions opt;
  opt.num_threads = 2;
  SweepRunner runner(opt);
  const auto report = runner.run_outcomes(points);
  EXPECT_EQ(runner.stats().ok, 3u);
  EXPECT_EQ(runner.stats().errors, 2u);
  for (const std::size_t bad : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(report.outcomes[bad].status, PointStatus::kError);
    EXPECT_NE(report.outcomes[bad].error_message.find("NO-SUCH-SCHEME"),
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

  SweepPoint tweaked = points[0];
  tweaked.config.traffic.downlink_bps += 1.0;
  EXPECT_NE(hash_point(points[0]), hash_point(tweaked));

  SweepPoint same = points[0];
  same.label = "different label";  // labels are display-only
  EXPECT_EQ(hash_point(points[0]), hash_point(same));
}

TEST(Runner, PointHashIgnoresPassiveRecorders) {
  // The timeline and the auditor never change a result, on any kernel, so
  // checkpoints resume across them.
  const auto topo = two_cells();
  const auto points = seed_sweep(topo, base_config(), 1, 1);
  SweepPoint recorded = points[0];
  recorded.config.record_timeline = !points[0].config.record_timeline;
  EXPECT_EQ(hash_point(points[0]), hash_point(recorded));
  recorded.config.audit.mode = audit::AuditMode::kRecord;
  EXPECT_EQ(hash_point(points[0]), hash_point(recorded));
}

TEST(Runner, PointHashFollowsTheKernelTaken) {
  // DMN_SIM_THREADS counts only where it changes the kernel. A path-loss
  // floor plan is one coupling component at any building gap, so it keeps
  // one queue and hashes alike whatever the variable says: its checkpoints
  // resume across it. Two radio-isolated buildings do partition when asked,
  // and hash as a distinct point then.
  const char* saved = std::getenv("DMN_SIM_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  topo::TraceParams params;
  params.building_gap = 500.0;
  Rng rng(11);
  const auto plan = topo::make_floorplan_topology(params, 4, 2, {}, rng);
  topo::ManualTopologyBuilder b;
  b.add_client(b.add_ap());
  b.add_client(b.add_ap());
  const auto buildings = b.build();
  const SweepPoint on_plan = seed_sweep(plan, base_config(), 1, 1)[0];
  const SweepPoint split = seed_sweep(buildings, base_config(), 1, 1)[0];

  ::unsetenv("DMN_SIM_THREADS");
  const std::uint64_t plan_unset = hash_point(on_plan);
  const std::uint64_t split_unset = hash_point(split);
  ::setenv("DMN_SIM_THREADS", "4", 1);
  EXPECT_EQ(hash_point(on_plan), plan_unset);
  EXPECT_NE(hash_point(split), split_unset);

  if (saved != nullptr) {
    ::setenv("DMN_SIM_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("DMN_SIM_THREADS");
  }
}

TEST(Runner, PointHashSeesDynamicsKnobs) {
  // A checkpoint written by a static sweep must not be trusted by a churny
  // one (and vice versa): every dynamics knob feeds hash_config.
  const auto topo = two_cells();
  const auto points = seed_sweep(topo, base_config(), 1, 1);

  SweepPoint churny = points[0];
  churny.config.dynamics.churn_rate_hz = 2.0;
  EXPECT_NE(hash_point(points[0]), hash_point(churny));

  SweepPoint roamy = points[0];
  roamy.config.dynamics.roam.enabled = true;
  EXPECT_NE(hash_point(points[0]), hash_point(roamy));
  roamy.config.dynamics.roam.hysteresis_db += 1.0;
  SweepPoint roamy2 = points[0];
  roamy2.config.dynamics.roam.enabled = true;
  EXPECT_NE(hash_point(roamy), hash_point(roamy2));

  SweepPoint mobile = points[0];
  mobile.config.dynamics.trajectories.push_back(
      {2, {{0, {1.0, 1.0}}, {msec(50), {2.0, 2.0}}}});
  EXPECT_NE(hash_point(points[0]), hash_point(mobile));
}

}  // namespace
}  // namespace dmn::api
