#pragma once
// Crash-safe parallel sweep runner: every figure in the paper is a sweep —
// the same scheme stack rebuilt and re-run across seeds, rates and client
// counts. SweepRunner makes that the first-class unit of work: hand it a
// vector of (topology, config) points and it fans them across a thread
// pool, one Simulator per point, and returns one PointOutcome per point in
// point order.
//
// Robustness contract (docs/RUNNER.md):
//  * A point that throws is captured as an error outcome with its message
//    and context; it cannot take down the pool or the process, and the
//    other points' results are unaffected.
//  * A point that exceeds its wall-clock or simulated-event budget is
//    terminated at a safe event boundary (a monitor thread sets a
//    cooperative cancellation flag the Simulator polls between events) and
//    recorded as timed_out with its last-known sim time and event count.
//  * With a checkpoint file configured, every completed point is persisted
//    via atomic write-then-rename; a restarted run verifies the manifest,
//    restores completed points and re-runs only the rest, producing merged
//    output byte-identical to an uninterrupted run at any thread count.
//  * While checkpointing, SIGINT/SIGTERM drain in-flight points, flush the
//    checkpoint and print a resume hint instead of losing the run.
//
// Determinism contract: a point's outcome depends only on its own topology
// and config (which carries the seed). Points share no mutable state, so a
// sweep run with 1 thread and with N threads produces bit-identical
// results; parallelism only changes wall-clock time.
//
//   const auto points = api::seed_sweep(topo, cfg, /*first_seed=*/0, 16);
//   api::SweepRunner runner(api::sweep_options_from_env());
//   const auto report = runner.run_outcomes(points);  // ordered like points
//   if (report.ok(0)) use(report.result(0));
//   runner.stats().wall_seconds;                      // speedup reporting

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "topo/topology.h"

namespace dmn::api {

/// One experiment in a sweep. The topology is held by value so points stay
/// self-contained (a sweep may mutate per-point topologies or share one).
struct SweepPoint {
  topo::Topology topology;
  ExperimentConfig config;
  /// Carried through untouched; benches use it to label printed rows.
  std::string label;
};

/// How one sweep point ended.
enum class PointStatus {
  kOk,        // ran to the configured duration; result is valid
  kError,     // an exception escaped the experiment (captured, not fatal)
  kTimedOut,  // wall-clock or event budget exceeded; terminated cooperatively
  kSkipped,   // never ran (graceful shutdown drained the queue first)
};

const char* to_string(PointStatus s);

/// The typed outcome of one sweep point. `result` is meaningful only when
/// `status == kOk` (it is value-initialized otherwise, so aggregate math on
/// a failed point degrades to zeros rather than UB).
struct PointOutcome {
  PointStatus status = PointStatus::kSkipped;
  ExperimentResult result;

  /// Error context (kError): exception type and message.
  std::string error_type;
  std::string error_message;

  /// Last-known progress (kTimedOut): how far the simulation got before the
  /// budget fired.
  TimeNs sim_time_ns = 0;
  std::uint64_t events_executed = 0;

  /// True when the outcome was restored from the checkpoint file rather
  /// than recomputed in this process.
  bool from_checkpoint = false;

  bool ok() const { return status == PointStatus::kOk; }
};

/// An outcome's durable part is `result` class. Execution provenance
/// (from_checkpoint) describes this process's work, so it is telemetry and
/// never serialized: resumed merged output stays byte-identical to an
/// uninterrupted run.
template <MaybeConst<PointOutcome> O, typename Visit>
void visit_fields(O& o, Visit&& visit) {
  using enum MetricClass;
  visit("status", kResult, o.status);
  visit("error_type", kResult, o.error_type);
  visit("error_message", kResult, o.error_message);
  visit("sim_time_ns", kResult, o.sim_time_ns);
  visit("events_executed", kResult, o.events_executed);
  visit("result", kResult, o.result);
  visit("from_checkpoint", kTelemetry, o.from_checkpoint);
}

/// Per-point execution budgets enforced by the watchdog. Zero disables the
/// corresponding limit.
struct PointBudget {
  /// Wall-clock seconds a single point may run.
  double wall_seconds = 0.0;
  /// Simulated-event cap enforced inside the Simulator's run loop.
  std::uint64_t max_events = 0;
};

struct SweepOptions {
  /// 0 picks std::thread::hardware_concurrency(); the pool never exceeds
  /// the point count. 1 reproduces the serial loop exactly.
  std::size_t num_threads = 0;
  /// Called after each point completes (from worker threads, serialized).
  std::function<void(std::size_t done, std::size_t total)> on_progress;

  /// Checkpoint file path; empty disables checkpointing (and signal
  /// handling). See docs/RUNNER.md for the file format.
  std::string checkpoint_path;
  /// Label written into the checkpoint manifest (defaults to "sweep").
  std::string sweep_name;

  PointBudget budget;
};

struct SweepStats {
  std::size_t points = 0;
  std::size_t threads = 0;
  double wall_seconds = 0.0;

  // Outcome census of the last run (restored counts toward ok).
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t timeouts = 0;
  std::size_t skipped = 0;
  /// Points restored from the checkpoint instead of recomputed.
  std::size_t restored = 0;
};

/// Everything run_outcomes() produced, ordered like the input points.
struct SweepReport {
  std::vector<PointOutcome> outcomes;
  SweepStats stats;
  /// True when SIGINT/SIGTERM drained the run early (some points skipped).
  bool interrupted = false;

  bool ok(std::size_t i) const { return outcomes[i].ok(); }
  bool all_ok() const {
    for (const PointOutcome& o : outcomes) {
      if (!o.ok()) return false;
    }
    return true;
  }
  /// The result of point `i` (zeros when the point did not complete).
  const ExperimentResult& result(std::size_t i) const {
    return outcomes[i].result;
  }
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs every point (restoring checkpointed ones when configured) and
  /// returns the per-point outcomes in point order. Never throws for a
  /// point failure — errors, timeouts and skips are data in the report.
  SweepReport run_outcomes(const std::vector<SweepPoint>& points);

  /// Wall-clock, pool and outcome statistics of the last run.
  const SweepStats& stats() const { return stats_; }

 private:
  SweepOptions options_;
  SweepStats stats_;
};

/// Thread count honouring the DMN_SWEEP_THREADS environment override; used
/// by benches so one knob controls every sweep.
std::size_t sweep_threads_from_env();

/// Options populated from the runner's environment knobs, the one-liner
/// every bench uses (docs/RUNNER.md):
///   DMN_SWEEP_THREADS           pool size (default: all hardware threads)
///   DMN_SWEEP_CHECKPOINT        checkpoint file path (enables resume)
///   DMN_SWEEP_POINT_TIMEOUT     per-point wall-clock budget, seconds
///   DMN_SWEEP_POINT_MAX_EVENTS  per-point simulated-event budget
SweepOptions sweep_options_from_env();

/// Convenience builder: `count` copies of (topology, base) whose seeds run
/// first_seed, first_seed+1, ... — the common "N seeds, same scenario"
/// sweep shape.
std::vector<SweepPoint> seed_sweep(const topo::Topology& topology,
                                   const ExperimentConfig& base,
                                   std::uint64_t first_seed,
                                   std::size_t count);

}  // namespace dmn::api
