// Scale bench for the partitioned simulation kernel: a campus of
// radio-isolated buildings (block-diagonal interference structure), swept
// across worker-thread counts against the classic single-queue kernel.
//
// The quantity of interest is kernel throughput — events per second of the
// event loop itself (ExperimentResult::wall_run_seconds) — reported next to
// the end-to-end wall time of the whole run_experiment call and its split
// (substrate setup vs event loop vs result collection, plus the
// coordinator's barrier share) so a regression is attributable to a layer,
// not just visible in a single number. Alongside the sweep the bench
// asserts the partitioned kernel's two correctness claims at scale: results
// are byte-stable across thread counts, and a full audited run (DMN_AUDIT
// semantics via cfg.audit) completes violation-free.
//
// Shape knobs (defaults reproduce the 1000-AP / 24k-client campus):
//   DMN_SCALE_APS             total APs            (default 1000)
//   DMN_SCALE_BUILDINGS       radio-isolated buildings (default 100)
//   DMN_SCALE_CLIENTS_PER_AP  clients per AP       (default 24)
//   DMN_BENCH_SECONDS         simulated seconds    (default 0.05)
//   DMN_BENCH_RUNS            repetitions per point, best run kept (default 1)
//   DMN_SCALE_MIN_SCALING     when set (e.g. "1.0"): exit non-zero unless the
//                             best multi-thread events/s is at least this
//                             multiple of the 1-thread events/s — the CI
//                             scaling floor
//
// Honest caveat: on a single-core container the thread sweep cannot show
// wall-clock parallel speedup; the partitioned kernel's win there is
// algorithmic (O(partition) instead of O(all nodes) medium accounting per
// transmission, adaptive windows, sparse activation). docs/PERFORMANCE.md
// discusses both regimes.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "bench_util.h"
#include "topo/partition.h"
#include "topo/topology.h"

namespace dmn {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Block-diagonal campus: `buildings` radio-isolated buildings, each a
/// chain of APs within carrier-sense range of their neighbours, each AP
/// with `clients_per_ap` associated clients.
topo::Topology campus(std::size_t aps, std::size_t buildings,
                      std::size_t clients_per_ap) {
  if (buildings == 0) buildings = 1;
  if (buildings > aps) buildings = aps;
  topo::ManualTopologyBuilder b;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < buildings; ++k) {
    // Distribute APs as evenly as possible across buildings.
    const std::size_t quota = (aps - assigned) / (buildings - k);
    topo::NodeId prev = topo::kNoNode;
    for (std::size_t a = 0; a < quota; ++a) {
      const topo::NodeId ap = b.add_ap();
      if (prev != topo::kNoNode) b.sense(prev, ap);
      for (std::size_t c = 0; c < clients_per_ap; ++c) b.add_client(ap);
      prev = ap;
    }
    assigned += quota;
  }
  return b.build();
}

api::ExperimentConfig scale_cfg(const topo::Topology& t, TimeNs duration,
                                int sim_threads) {
  api::ExperimentConfig cfg;
  cfg.scheme = api::Scheme::kDcf;
  cfg.duration = duration;
  cfg.sim_threads = sim_threads;
  cfg.audit.mode = audit::AuditMode::kOff;
  // One rate-limited downlink flow per AP (to its first client): the node
  // count — not the flow count — is what stresses the kernel's per-
  // transmission accounting.
  cfg.traffic.custom.clear();
  for (const topo::NodeId ap : t.aps()) {
    const auto clients = t.clients_of(ap);
    if (clients.empty()) continue;
    cfg.traffic.custom.push_back(
        api::FlowSpec{ap, clients.front(), 2e6, false});
  }
  return cfg;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace
}  // namespace dmn

int main() {
  using namespace dmn;

  const std::size_t aps = env_size("DMN_SCALE_APS", 1000);
  const std::size_t buildings = env_size("DMN_SCALE_BUILDINGS", 100);
  const std::size_t clients_per_ap = env_size("DMN_SCALE_CLIENTS_PER_AP", 24);
  const TimeNs duration = sec(bench::bench_seconds(0.05));
  const int runs = bench::bench_runs(1);

  bench::print_header("partitioned-kernel scale sweep");
  std::printf("building campus: %zu APs, %zu buildings, %zu clients/AP...\n",
              aps, buildings, clients_per_ap);
  const topo::Topology t = campus(aps, buildings, clients_per_ap);
  const topo::Partitioning parts = topo::compute_partitions(t);
  std::printf("%zu nodes, %u interference partitions\n", t.num_nodes(),
              parts.count);

  bench::BenchJson json("scale");
  json.meta("nodes", static_cast<double>(t.num_nodes()));
  json.meta("aps", static_cast<double>(aps));
  json.meta("clients_per_ap", static_cast<double>(clients_per_ap));
  json.meta("partitions", static_cast<double>(parts.count));
  json.meta("sim_seconds", to_sec(duration));
  json.meta("runs_per_point", static_cast<double>(runs));

  struct Point {
    const char* label;
    int threads;
  };
  const std::vector<Point> sweep = {
      {"classic", -1}, {"part-1t", 1}, {"part-2t", 2},
      {"part-4t", 4},  {"part-8t", 8},
  };

  std::printf("%-10s %8s %10s %12s %9s %9s %9s %9s %9s %8s %12s %9s\n",
              "kernel", "threads", "partitions", "events", "total_s",
              "setup_s", "run_s", "collect_s", "barrier_s", "barr%",
              "events/s", "speedup");
  double classic_eps = 0.0;
  double one_thread_eps = 0.0;
  double best_multi_eps = 0.0;
  std::string part_bytes;  // serialized result of the first partitioned run
  bool stable = true;
  for (const Point& p : sweep) {
    // Best-of-N: keep the run with the smallest event-loop wall clock —
    // determinism makes every repetition compute identical results, so the
    // repetitions differ only in scheduler noise.
    api::ExperimentResult r;
    double total_s = 0.0;  // wall time around run_experiment for `r`
    for (int rep = 0; rep < runs; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto attempt = api::run_experiment(t, scale_cfg(t, duration, p.threads));
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      if (rep == 0 || attempt.wall_run_seconds < r.wall_run_seconds) {
        r = std::move(attempt);
        total_s = wall;
      }
    }
    // Everything after the loop: result collection (census included) and
    // teardown.
    const double collect_s =
        total_s - r.wall_setup_seconds - r.wall_run_seconds;
    const double eps = r.wall_run_seconds > 0.0
                           ? static_cast<double>(r.events_executed) /
                                 r.wall_run_seconds
                           : 0.0;
    if (p.threads < 0) classic_eps = eps;
    if (p.threads == 1) one_thread_eps = eps;
    if (p.threads > 1) best_multi_eps = std::max(best_multi_eps, eps);
    const double speedup = classic_eps > 0.0 ? eps / classic_eps : 0.0;
    const double barrier_share = r.wall_run_seconds > 0.0
                                     ? r.sim_barrier_seconds /
                                           r.wall_run_seconds
                                     : 0.0;
    std::printf(
        "%-10s %8d %10u %12llu %9.3f %9.3f %9.3f %9.3f %9.3f %7.1f%% %12.0f "
        "%8.2fx\n",
        p.label, p.threads, r.sim_partitions,
        static_cast<unsigned long long>(r.events_executed), total_s,
        r.wall_setup_seconds, r.wall_run_seconds, collect_s,
        r.sim_barrier_seconds, 100.0 * barrier_share, eps, speedup);
    const std::string bytes = api::serialize_result(r);
    if (p.threads > 0) {
      if (part_bytes.empty()) {
        part_bytes = bytes;
      } else if (bytes != part_bytes) {
        stable = false;
      }
    }
    json.add_row()
        .str("kernel", p.label)
        .num("threads", p.threads)
        .num("total_s", total_s)
        .num("collect_s", collect_s)
        .num("events_per_sec", eps)
        .num("speedup_vs_classic", speedup)
        .num("result_hash", static_cast<double>(fnv1a(bytes) >> 11))
        .metrics(r);
  }
  json.meta("byte_stable", stable ? 1.0 : 0.0);
  std::printf("byte-stable across thread counts: %s\n",
              stable ? "yes" : "NO — DETERMINISM REGRESSION");

  // Full audited run at the largest thread count: every invariant the
  // auditor knows re-checked continuously, per partition queue.
  {
    auto cfg = scale_cfg(t, duration, 8);
    cfg.audit.mode = audit::AuditMode::kRecord;
    const auto r = api::run_experiment(t, cfg);
    const bool ok = r.audit != nullptr && r.audit->violation_free();
    const double checks =
        r.audit ? static_cast<double>(r.audit->checks_run) : 0.0;
    std::printf("audited run: %.0f checks, %s\n", checks,
                ok ? "violation-free" : "VIOLATIONS FOUND");
    if (r.audit != nullptr && !ok) {
      std::printf("%s\n", r.audit->summary().c_str());
    }
    json.meta("audit_checks", checks);
    json.meta("audit_violation_free", ok ? 1.0 : 0.0);
    if (!ok) return 1;
  }
  if (!stable) return 1;

  // CI scaling floor: with DMN_SCALE_MIN_SCALING=<f> the best multi-thread
  // point must reach at least f x the 1-thread events/s — the guardrail
  // that threads never make the kernel slower than not using them. The
  // floor guards *parallelism*, so it is only enforceable where parallelism
  // exists: on a single hardware thread every extra worker is pure futex
  // churn (threads time-slice one core) and the floor is physically
  // unreachable — report the ratio, skip the verdict.
  if (const char* floor_env = std::getenv("DMN_SCALE_MIN_SCALING");
      floor_env != nullptr && *floor_env != '\0') {
    const double floor = std::atof(floor_env);
    const double scaling =
        one_thread_eps > 0.0 ? best_multi_eps / one_thread_eps : 0.0;
    json.meta("scaling_vs_1t", scaling);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw <= 1) {
      std::printf("scaling floor: best multi-thread %.0f ev/s vs 1-thread "
                  "%.0f ev/s = %.2fx — single hardware thread, floor %.2fx "
                  "not applicable (skipped)\n",
                  best_multi_eps, one_thread_eps, scaling, floor);
    } else {
      std::printf("scaling floor: best multi-thread %.0f ev/s vs 1-thread "
                  "%.0f ev/s = %.2fx (floor %.2fx, %u hw threads): %s\n",
                  best_multi_eps, one_thread_eps, scaling, floor, hw,
                  scaling >= floor ? "ok" : "BELOW FLOOR");
      if (scaling < floor) return 1;
    }
  }
  return 0;
}
