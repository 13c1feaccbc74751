#include "api/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <typeinfo>

#include "api/sweep_io.h"

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

namespace dmn::api {

const char* to_string(PointStatus s) {
  switch (s) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kError: return "error";
    case PointStatus::kTimedOut: return "timed_out";
    case PointStatus::kSkipped: return "skipped";
  }
  return "?";
}

namespace {

std::string demangled_type(const std::exception& e) {
#if defined(__GNUG__)
  int status = 0;
  char* name =
      abi::__cxa_demangle(typeid(e).name(), nullptr, nullptr, &status);
  if (status == 0 && name != nullptr) {
    std::string out(name);
    std::free(name);
    return out;
  }
#endif
  return typeid(e).name();
}

// ---- graceful-shutdown signal plumbing -------------------------------------
// Handlers are installed only while a checkpointing run is active (a plain
// sweep should die on Ctrl-C like any other batch job). The handler just
// sets a flag; workers poll it before claiming the next point, so in-flight
// points drain, the checkpoint is already flushed, and the caller gets a
// resume hint. The previous handlers are restored on exit, so a second
// Ctrl-C during the drain falls through to the default action.

std::atomic<bool> g_shutdown{false};

void shutdown_handler(int) { g_shutdown.store(true); }

class SignalGuard {
 public:
  explicit SignalGuard(bool install) : installed_(install) {
    if (!installed_) return;
    g_shutdown.store(false);
    prev_int_ = std::signal(SIGINT, shutdown_handler);
    prev_term_ = std::signal(SIGTERM, shutdown_handler);
  }
  ~SignalGuard() {
    if (!installed_) return;
    std::signal(SIGINT, prev_int_);
    std::signal(SIGTERM, prev_term_);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

  bool requested() const {
    return installed_ && g_shutdown.load(std::memory_order_relaxed);
  }

 private:
  bool installed_ = false;
  void (*prev_int_)(int) = SIG_DFL;
  void (*prev_term_)(int) = SIG_DFL;
};

// ---- watchdog --------------------------------------------------------------
// One slot per worker thread. The worker arms the slot with a wall-clock
// deadline before each attempt; the monitor thread scans the slots every
// few tens of milliseconds and trips the slot's cancellation flag once the
// deadline passes. The simulator polls that flag between events
// (Simulator::set_interrupt_flag), so a runaway point stops at a safe
// event boundary. Arming/disarming and the monitor's check are serialized
// by the slot mutex so a slow monitor scan can never cancel the *next*
// point with a stale deadline; the flag itself stays atomic because the
// simulator reads it without the lock.

struct WatchdogSlot {
  std::mutex mu;
  bool active = false;
  std::chrono::steady_clock::time_point deadline{};
  std::atomic<bool> cancel{false};
};

class WatchdogMonitor {
 public:
  WatchdogMonitor(std::vector<WatchdogSlot>& slots, double wall_seconds)
      : slots_(slots), enabled_(wall_seconds > 0.0) {
    if (enabled_) thread_ = std::thread([this] { loop(); });
  }

  ~WatchdogMonitor() {
    if (!enabled_) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(20));
      if (stop_) return;
      const auto now = std::chrono::steady_clock::now();
      for (WatchdogSlot& slot : slots_) {
        const std::lock_guard<std::mutex> slot_lock(slot.mu);
        if (slot.active && now >= slot.deadline) {
          slot.cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
  }

  std::vector<WatchdogSlot>& slots_;
  bool enabled_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ---- checkpoint sink -------------------------------------------------------
// Accumulates the manifest plus one record per completed point and rewrites
// the whole file atomically after every append. Only `ok` outcomes are
// persisted: errors and timeouts are re-run on resume (an environment flake
// deserves another chance; a deterministic failure reproduces and is
// re-reported), which also keeps resumed merged output trivially identical
// to an uninterrupted run.

class CheckpointSink {
 public:
  CheckpointSink(std::string path, const CheckpointManifest& manifest)
      : path_(std::move(path)) {
    if (!enabled()) return;
    contents_ = serialize_manifest(manifest) + "\n";
  }

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Thread-safe append + flush. Called from workers after each ok point.
  void append(const CheckpointRecord& rec) {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    contents_ += serialize_record(rec) + "\n";
    atomic_write_file(path_, contents_);
  }

  /// Re-persist restored records so a resumed-then-interrupted run keeps
  /// its full progress even if the original file predates this run.
  void seed(const std::vector<CheckpointRecord>& restored) {
    if (!enabled() || restored.empty()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const CheckpointRecord& rec : restored) {
      contents_ += serialize_record(rec) + "\n";
    }
    atomic_write_file(path_, contents_);
  }

 private:
  std::string path_;
  std::mutex mu_;
  std::string contents_;
};

}  // namespace

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)) {}

SweepReport SweepRunner::run_outcomes(const std::vector<SweepPoint>& points) {
  SweepReport report;
  report.outcomes.resize(points.size());

  std::size_t threads = options_.num_threads != 0
                            ? options_.num_threads
                            : std::thread::hardware_concurrency();
  threads = std::max<std::size_t>(1, std::min(threads, points.size()));

  const auto t0 = std::chrono::steady_clock::now();

  // ---- checkpoint restore ----
  std::vector<std::uint64_t> hashes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    hashes[i] = hash_point(points[i]);
  }
  CheckpointManifest manifest;
  manifest.num_points = points.size();
  manifest.fingerprint = runner_fingerprint();
  manifest.sweep_name =
      options_.sweep_name.empty() ? "sweep" : options_.sweep_name;
  manifest.sweep_hash = hash_sweep(points);

  CheckpointSink sink(options_.checkpoint_path, manifest);
  std::vector<CheckpointRecord> restored;
  if (sink.enabled()) {
    const LoadedCheckpoint loaded = load_checkpoint(sink.path(), manifest);
    if (loaded.compatible) {
      for (const auto& [index, rec] : loaded.records) {
        if (rec.point_hash != hashes[index]) {
          std::fprintf(stderr,
                       "sweep checkpoint: record for point %zu does not "
                       "match its definition; recomputing it\n",
                       index);
          continue;
        }
        report.outcomes[index] = rec.outcome;
        report.outcomes[index].from_checkpoint = true;
        restored.push_back(rec);
      }
    }
    // Rewrite the file up front: manifest plus surviving records. This is
    // also what truncates an incompatible file.
    sink.seed(restored);
  }

  // ---- the pool ----
  SignalGuard signals(sink.enabled());
  std::vector<WatchdogSlot> slots(threads);
  WatchdogMonitor monitor(slots, options_.budget.wall_seconds);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;  // serializes on_progress
  const bool wall_budget = options_.budget.wall_seconds > 0.0;

  auto run_point = [&](const SweepPoint& point, WatchdogSlot& slot) {
    PointOutcome outcome;
    if (wall_budget) {
      const std::lock_guard<std::mutex> lock(slot.mu);
      slot.cancel.store(false, std::memory_order_relaxed);
      slot.deadline = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              options_.budget.wall_seconds));
      slot.active = true;
    }
    try {
      Experiment exp(point.topology, point.config);
      exp.set_run_guard(wall_budget ? &slot.cancel : nullptr,
                        options_.budget.max_events);
      outcome.result = exp.run();
      outcome.status = PointStatus::kOk;
    } catch (const ExperimentInterrupted& e) {
      outcome.status = PointStatus::kTimedOut;
      outcome.sim_time_ns = e.sim_time_ns;
      outcome.events_executed = e.events_executed;
    } catch (const std::exception& e) {
      outcome.status = PointStatus::kError;
      outcome.error_type = demangled_type(e);
      outcome.error_message = e.what();
    } catch (...) {
      outcome.status = PointStatus::kError;
      outcome.error_type = "unknown";
      outcome.error_message = "non-std::exception thrown";
    }
    if (wall_budget) {
      const std::lock_guard<std::mutex> lock(slot.mu);
      slot.active = false;
    }
    return outcome;
  };

  auto worker = [&](std::size_t slot_index) {
    WatchdogSlot& slot = slots[slot_index];
    for (;;) {
      if (signals.requested()) return;  // drain: stop claiming new points
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;

      if (!report.outcomes[i].from_checkpoint) {
        // run_point is exception-free by construction (every failure is
        // captured into the outcome), so nothing can escape a worker thread
        // and terminate the process.
        PointOutcome outcome = run_point(points[i], slot);
        if (outcome.ok()) {
          sink.append(CheckpointRecord{i, hashes[i], outcome});
        }
        report.outcomes[i] = std::move(outcome);
      }

      const std::size_t finished = done.fetch_add(1) + 1;
      if (options_.on_progress) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        options_.on_progress(finished, points.size());
      }
    }
  };

  if (threads == 1) {
    worker(0);  // serial reference path: no pool, same code
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (auto& t : pool) t.join();
  }

  report.interrupted = signals.requested();

  stats_ = SweepStats{};
  stats_.points = points.size();
  stats_.threads = threads;
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const PointOutcome& o : report.outcomes) {
    switch (o.status) {
      case PointStatus::kOk: ++stats_.ok; break;
      case PointStatus::kError: ++stats_.errors; break;
      case PointStatus::kTimedOut: ++stats_.timeouts; break;
      case PointStatus::kSkipped: ++stats_.skipped; break;
    }
    if (o.from_checkpoint) ++stats_.restored;
  }
  report.stats = stats_;

  if (report.interrupted && sink.enabled()) {
    std::fprintf(stderr,
                 "sweep '%s' interrupted: %zu/%zu points completed and "
                 "checkpointed to %s\n"
                 "re-run the same command with DMN_SWEEP_CHECKPOINT=%s to "
                 "resume\n",
                 manifest.sweep_name.c_str(), stats_.ok, stats_.points,
                 sink.path().c_str(), sink.path().c_str());
  }
  return report;
}

std::size_t sweep_threads_from_env() {
  if (const char* v = std::getenv("DMN_SWEEP_THREADS")) {
    const long n = std::atol(v);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 0;  // auto
}

SweepOptions sweep_options_from_env() {
  SweepOptions o;
  o.num_threads = sweep_threads_from_env();
  if (const char* v = std::getenv("DMN_SWEEP_CHECKPOINT")) {
    if (*v != '\0') o.checkpoint_path = v;
  }
  if (const char* v = std::getenv("DMN_SWEEP_POINT_TIMEOUT")) {
    const double s = std::atof(v);
    if (s > 0.0) o.budget.wall_seconds = s;
  }
  if (const char* v = std::getenv("DMN_SWEEP_POINT_MAX_EVENTS")) {
    const long long n = std::atoll(v);
    if (n > 0) o.budget.max_events = static_cast<std::uint64_t>(n);
  }
  return o;
}

std::vector<SweepPoint> seed_sweep(const topo::Topology& topology,
                                   const ExperimentConfig& base,
                                   std::uint64_t first_seed,
                                   std::size_t count) {
  std::vector<SweepPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SweepPoint p{topology, base, "seed " + std::to_string(first_seed + i)};
    p.config.seed = first_seed + i;
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace dmn::api
