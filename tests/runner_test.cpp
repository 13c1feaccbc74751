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
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
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
  const JsonValue manifest = parse_json(lines[0]);
  const JsonValue* fingerprint = manifest.find("fingerprint");
  ASSERT_NE(fingerprint, nullptr);
  EXPECT_EQ(fingerprint->text, runner_fingerprint());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(parse_json(lines[i]).find("outcome"), nullptr) << i;
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

  // Lines carry no type tag, so a file whose first line is a record, not
  // this sweep's manifest, must not restore either.
  const auto lines = read_lines(ckpt.path);
  ASSERT_EQ(lines.size(), other.size() + 1);
  std::string headless;
  for (std::size_t i = 1; i < lines.size(); ++i) headless += lines[i] + "\n";
  atomic_write_file(ckpt.path, headless);
  SweepRunner again(opt);
  EXPECT_TRUE(again.run_outcomes(other).all_ok());
  EXPECT_EQ(again.stats().restored, 0u);
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
  // to the same value, so the hashed bytes (the scheme as its enum value)
  // are pinned here for one fixed point per scheme.
  const struct {
    Scheme scheme;
    std::uint64_t hash;
  } pins[] = {
      {Scheme::kDcf, 0x6c8354efff044a1cull},
      {Scheme::kCentaur, 0x00ede04923545ee1ull},
      {Scheme::kDomino, 0xab3de787dd282cdaull},
      {Scheme::kOmniscient, 0x955b1b19fcab32cfull},
  };
  for (const auto& pin : pins) {
    ExperimentConfig cfg = base_config();
    cfg.scheme = pin.scheme;
    const SweepPoint point = seed_sweep(two_cells(), cfg, 1, 1)[0];
    EXPECT_EQ(hash_point(point), pin.hash) << to_string(pin.scheme);
  }
}

/// Converts to any member type, so `T{AnyMember{}...}` compiles for up to
/// T's number of aggregate members (a C array counts as its extent: brace
/// elision spreads the initializers over its elements).
struct AnyMember {
  template <typename T>
  operator T() const;  // only named in unevaluated requires-expressions
};

template <typename T, std::size_t... I>
constexpr bool brace_initializable(std::index_sequence<I...>) {
  return requires { T{(void(I), AnyMember{})...}; };
}

template <typename T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (brace_initializable<T>(std::make_index_sequence<N + 1>{})) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// The members a field table names under `prefix`: each distinct key
/// component after it, a C array at that level counted by its extent.
template <typename T>
std::size_t named_members(const T& x, const std::string& prefix) {
  std::map<std::string, std::size_t> members;
  visit_fields(x, [&](const char* key, MetricClass, const auto& f) {
    const std::string k = key;
    if (!k.starts_with(prefix)) return;
    const std::string rest = k.substr(prefix.size());
    const std::size_t dot = rest.find('.');
    using F = std::remove_cvref_t<decltype(f)>;
    members[rest.substr(0, dot)] =
        dot == std::string::npos && std::is_array_v<F> ? std::extent_v<F> : 1;
  });
  std::size_t n = 0;
  for (const auto& [name, width] : members) n += width;
  return n;
}

/// Perturbs every leaf the field table reaches from `x`, one at a time and
/// undone after: flips a bool, adds 1 to an integer or enum and 1.0 to a
/// double, pushes one default element onto a vector (then perturbs that
/// element's leaves against the pushed state), and descends into a member
/// struct with a table of its own. Expects `hash()` to move exactly for
/// `result` entries, not under a `telemetry` one. Each table reached must
/// name every member of its struct.
template <typename T>
void perturb_each(T& x, bool hashed, const std::string& prefix,
                  const std::function<std::uint64_t()>& hash,
                  std::size_t& probes) {
  EXPECT_EQ(named_members(x, ""), member_count<T>())
      << prefix << " has a member its field table does not name";
  const std::uint64_t before = hash();
  visit_fields(x, [&](const char* key, MetricClass cls, auto& f) {
    const std::string path = prefix + key;
    const bool h = hashed && cls == MetricClass::kResult;
    const auto expect_moved = [&](const std::string& at, std::uint64_t base) {
      ++probes;
      EXPECT_EQ(hash() != base, h) << at;
    };
    const auto bump = [&](auto& v, const std::string& at, std::uint64_t base) {
      using V = std::remove_cvref_t<decltype(v)>;
      const V saved = v;
      if constexpr (std::is_same_v<V, bool>) {
        v = !v;
      } else if constexpr (std::is_enum_v<V>) {
        v = static_cast<V>(static_cast<std::underlying_type_t<V>>(v) + 1);
      } else {
        v = static_cast<V>(v + 1);
      }
      expect_moved(at, base);
      v = saved;
    };
    using F = std::remove_cvref_t<decltype(f)>;
    if constexpr (kIsVector<F>) {
      f.emplace_back();
      expect_moved(path + "[+]", before);
      if constexpr (std::is_class_v<typename F::value_type>) {
        perturb_each(f.back(), h, path + "[0].", hash, probes);
      } else {
        bump(f.back(), path + "[0]", hash());
      }
      f.pop_back();
    } else if constexpr (std::is_array_v<F>) {
      for (std::size_t i = 0; i < std::size(f); ++i) {
        bump(f[i], path + "[" + std::to_string(i) + "]", before);
      }
    } else if constexpr (std::is_class_v<F>) {
      perturb_each(f, h, path + ".", hash, probes);
    } else {
      bump(f, path, before);
    }
  });
}

TEST(Runner, PointHashSeesEveryKnob) {
  // A checkpoint resumes a point only while its hash matches, so every
  // settable ExperimentConfig value that can change a result feeds
  // hash_point: perturbing any `result` entry of the field table moves the
  // hash, and perturbing a `telemetry` one (the passive recorders and the
  // thread count) does not. The cases come from the table itself, and each
  // table must name every member of its struct, so a new config field
  // cannot be left out of the hash.
  SweepPoint point = seed_sweep(two_cells(), base_config(), 1, 1)[0];
  const std::uint64_t base_hash = hash_point(point);
  std::size_t probes = 0;
  perturb_each(
      point.config, true, "", [&] { return hash_point(point); }, probes);
  EXPECT_EQ(hash_point(point), base_hash);  // every perturbation undone
  EXPECT_GT(probes, 80u);

  // Telemetry is exactly the values that never change a result.
  std::vector<std::string> telemetry;
  visit_fields(point.config, [&](const char* key, MetricClass cls, auto&) {
    if (cls == MetricClass::kTelemetry) telemetry.emplace_back(key);
  });
  EXPECT_EQ(telemetry, (std::vector<std::string>{"audit.mode",
                                                 "record_timeline",
                                                 "sim_threads"}));

  // Structs the config table flattens into dotted keys name every member.
  const ExperimentConfig& c = point.config;
  const struct {
    const char* prefix;
    std::size_t members;
  } flattened[] = {
      {"traffic.", member_count<TrafficSpec>()},
      {"wifi.", member_count<mac::WifiParams>()},
      {"backbone.", member_count<wired::BackboneParams>()},
      {"domino.", member_count<domino::DominoParams>()},
      {"converter.", member_count<domino::ConverterParams>()},
      {"sig_model.", member_count<phy::SignatureDetectionModel>()},
      {"rop.", member_count<rop::RopParams>()},
      {"faults.", member_count<fault::FaultPlan>()},
      {"faults.backbone.", member_count<fault::BackboneFaults>()},
      {"faults.controller.", member_count<fault::ControllerFaults>()},
      {"faults.interference.", member_count<fault::InterferenceFaults>()},
      {"faults.signature.", member_count<fault::SignatureFaults>()},
      {"faults.clock.", member_count<fault::ClockFaults>()},
      {"dynamics.", member_count<topo::DynamicsPlan>()},
      {"dynamics.floorplan.", member_count<topo::TraceParams>()},
      {"dynamics.roam.", member_count<topo::RoamPolicy>()},
      {"audit.", member_count<audit::AuditConfig>()},
  };
  for (const auto& s : flattened) {
    EXPECT_EQ(named_members(c, s.prefix), s.members)
        << s.prefix << " has a member the config table does not name";
  }
  EXPECT_EQ(named_members(topo::Waypoint{}, "pos."),
            member_count<topo::Position>());
}

}  // namespace
}  // namespace dmn::api
