// Dense-population polling bench: client-count sweep (24 then 50-200 per
// AP) crossed with the ROP poll modes. The paper's single-symbol ROP caps a
// BSS at 24 clients; the multi-symbol planner partitions larger cells
// across ceil(N/24) poll symbols and the adaptive planner additionally
// shrinks mostly-idle rounds (A2P-style). Rows report throughput, the poll
// airtime the mode actually spends (symbols per round, i.e. the overhead
// multiplier versus the paper's one-symbol ROP) and the queue-report
// staleness the adaptive deferral trades for that airtime. The 24-client
// rows keep legacy mode as the differential baseline: multi-symbol must
// match it exactly where both are feasible. Under DMN_AUDIT=1 every point
// runs fully audited and the bench fails on any violation; the final
// self-check proves a dense run is byte-stable across DMN_SIM_THREADS.

#include <cstdio>
#include <string>
#include <vector>

#include "api/sweep_io.h"
#include "bench_util.h"
#include "topo/dynamics.h"

using namespace dmn;

namespace {

constexpr rop::PollMode kModes[] = {rop::PollMode::kLegacy,
                                    rop::PollMode::kMultiSymbol,
                                    rop::PollMode::kAdaptive};

topo::Topology dense_cell(std::size_t clients, std::uint64_t seed) {
  Rng rng(seed);
  return topo::make_floorplan_topology({}, 1, clients, {}, rng);
}

}  // namespace

int main() {
  const TimeNs duration = sec(bench::bench_seconds(1));
  const std::vector<std::size_t> populations = {24, 50, 100, 150, 200};

  auto make_cfg = [&](rop::PollMode mode) {
    api::ExperimentConfig cfg;
    cfg.scheme = api::Scheme::kDomino;
    cfg.duration = duration;
    cfg.seed = 11;
    cfg.traffic.downlink_bps = 4e6;
    cfg.traffic.uplink_bps = 1e6;  // uplink keeps queue reports non-trivial
    cfg.rop.poll_mode = mode;
    // cfg.audit.mode stays kInherit: DMN_AUDIT=1 audits every point.
    return cfg;
  };

  struct PointMeta {
    std::size_t clients;
    rop::PollMode mode;
  };
  std::vector<api::SweepPoint> points;
  std::vector<PointMeta> meta;
  for (const std::size_t n : populations) {
    const auto topo = dense_cell(n, 7 + n);
    for (const rop::PollMode mode : kModes) {
      // Legacy mode is the paper's single-symbol ROP: only feasible up to
      // 24 clients. It rides along where it can as the baseline row.
      if (mode == rop::PollMode::kLegacy && n > 24) continue;
      char label[64];
      std::snprintf(label, sizeof(label), "n=%zu %s", n,
                    rop::to_string(mode));
      points.push_back({topo, make_cfg(mode), label});
      meta.push_back({n, mode});
    }
  }

  bench::BenchJson json("dense");
  const auto report = bench::run_sweep(points, "dense", &json);

  bench::print_header(
      "dense cells: client-count x poll-mode sweep (single-AP BSS, "
      "24-client legacy ceiling broken by multi-symbol polling)");
  std::printf("%-22s %8s %9s %8s %8s %9s %9s %7s\n", "clients mode", "Mbps",
              "fairness", "rounds", "symbols", "sym/round", "staleness",
              "audit");
  std::size_t audited_rows = 0;
  std::uint64_t audit_violations = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!report.ok(i)) continue;
    const auto& r = report.result(i);
    const auto& m = meta[i];
    const double spr =
        r.domino_poll_rounds == 0
            ? 0.0
            : static_cast<double>(r.domino_poll_symbols) /
                  static_cast<double>(r.domino_poll_rounds);
    const char* audit_cell = "off";
    if (r.audit != nullptr) {
      ++audited_rows;
      audit_violations += r.audit->total_violations;
      audit_cell = r.audit->violation_free() ? "clean" : "VIOLATED";
    }
    char knob[32];
    std::snprintf(knob, sizeof(knob), "n=%-4zu %s", m.clients,
                  rop::to_string(m.mode));
    std::printf("%-22s %8.2f %9.3f %8llu %8llu %9.2f %9.2f %7s\n", knob,
                r.throughput_mbps(), r.jain_fairness,
                static_cast<unsigned long long>(r.domino_poll_rounds),
                static_cast<unsigned long long>(r.domino_poll_symbols), spr,
                r.domino_poll_staleness_rounds, audit_cell);
    json.add_row()
        .num("clients", static_cast<double>(m.clients))
        .str("poll_mode", rop::to_string(m.mode))
        .num("throughput_mbps", r.throughput_mbps())
        .metrics(r)
        .num("poll_symbols_per_round", spr)
        .num("audit_checks",
             r.audit ? static_cast<double>(r.audit->checks_run) : 0.0)
        .num("audit_violations",
             r.audit ? static_cast<double>(r.audit->total_violations) : 0.0);
  }
  if (audited_rows > 0) {
    std::printf("audited rows: %zu, violations: %llu\n", audited_rows,
                static_cast<unsigned long long>(audit_violations));
  }
  json.meta("audit_violations", static_cast<double>(audit_violations));

  // Self-check: the partitioned kernel (or its absence — a single dense
  // cell is one partition) must not leak thread count into results. Run the
  // densest population in both non-legacy modes at 1 vs 8 threads.
  bool stable = true;
  for (const rop::PollMode mode :
       {rop::PollMode::kMultiSymbol, rop::PollMode::kAdaptive}) {
    const auto topo = dense_cell(200, 7 + 200);
    auto cfg = make_cfg(mode);
    cfg.duration = std::min<TimeNs>(duration, msec(400));
    cfg.sim_threads = 1;
    const auto one = api::run_experiment(topo, cfg);
    cfg.sim_threads = 8;
    const auto eight = api::run_experiment(topo, cfg);
    const bool same =
        api::serialize_result(one) == api::serialize_result(eight);
    std::printf("thread-stability self-check (%s, DMN_SIM_THREADS 1 vs 8): "
                "%s\n",
                rop::to_string(mode), same ? "byte-identical" : "MISMATCH");
    stable = stable && same;
  }
  json.meta("thread_stable", stable ? 1.0 : 0.0);

  std::printf(
      "expected: multi-symbol rows at 24 clients match legacy exactly; "
      "symbols/round grows as ceil(N/24) for multi-symbol while adaptive "
      "stays below it on mostly-idle uplink, paying a bounded queue-report "
      "staleness (< adaptive_max_interval rounds)\n");
  return (stable && audit_violations == 0) ? 0 : 1;
}
