// Dynamic-network resilience bench: churn-rate x mobility-speed sweep over
// the two-building floor plan, crossed with DCF / CENTAUR / DOMINO. Every
// point runs waypoint mobility, seeded join/leave churn and AP-to-AP
// roaming (topo/dynamics.h) plus a light signature-fault background so the
// chain-recovery histograms (bench_resilience's metric) have episodes to
// measure: the question is how fast each scheme's schedule re-anchors while
// the network underneath it keeps changing. DOMINO rows report the
// recovery-latency percentiles and lifecycle counters; the final self-check
// proves a dynamic run is byte-stable across DMN_SIM_THREADS (dynamics
// forces the classic kernel, so thread count must not matter).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/sweep_io.h"
#include "bench_util.h"
#include "topo/dynamics.h"

using namespace dmn;

namespace {

constexpr api::Scheme kSchemes[] = {api::Scheme::kDcf, api::Scheme::kCentaur,
                                    api::Scheme::kDomino};

struct Pctls {
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

Pctls recovery_pctls(std::vector<double> samples) {
  Pctls p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = samples[samples.size() / 2];
  p.p95 = samples[(samples.size() * 95) / 100];
  p.max = samples.back();
  return p;
}

}  // namespace

int main() {
  const TimeNs duration = sec(bench::bench_seconds(2));
  const std::size_t aps = 4, clients_per_ap = 2;
  Rng topo_rng(21);
  const auto topo =
      topo::make_floorplan_topology({}, aps, clients_per_ap, {}, topo_rng);

  const std::vector<double> churn_rates_hz = {0.0, 0.5, 2.0, 5.0};
  const std::vector<double> speeds_mps = {0.0, 1.5, 5.0};

  // One walker per AP; the same trajectories for every scheme and churn
  // rate at a given speed, so rows differ only in the knob under study.
  std::vector<std::vector<topo::MobilityTrajectory>> walks(speeds_mps.size());
  for (std::size_t si = 0; si < speeds_mps.size(); ++si) {
    if (speeds_mps[si] <= 0.0) continue;  // static rows carry no trajectory
    Rng walk_rng(31 + si);
    for (std::size_t a = 0; a < aps; ++a) {
      const auto walker =
          static_cast<topo::NodeId>(aps + a * clients_per_ap);
      walks[si].push_back(topo::make_random_waypoint_trajectory(
          {}, walker, topo.node(walker).pos, speeds_mps[si], duration,
          walk_rng));
    }
  }

  auto make_cfg = [&](api::Scheme scheme, double churn_hz,
                      std::size_t speed_idx) {
    api::ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.duration = duration;
    cfg.seed = 11;
    cfg.traffic.downlink_bps = 8e6;
    cfg.traffic.uplink_bps = 1e6;
    cfg.dynamics.epoch = msec(50);
    cfg.dynamics.trajectories = walks[speed_idx];
    cfg.dynamics.churn_rate_hz = churn_hz;
    cfg.dynamics.churn_downtime = msec(300);
    cfg.dynamics.roam.enabled = true;
    // Walkers stay inside their building, so roams happen between the two
    // same-building APs; the default 6 dB hysteresis never triggers over
    // bench-scale walk distances, so use a nimbler handoff policy here.
    cfg.dynamics.roam.hysteresis_db = 2.0;
    cfg.dynamics.roam.min_dwell = msec(100);
    // Background signature faults open ground-truth recovery episodes; the
    // sweep measures how churn and mobility stretch the recovery tail.
    cfg.faults.signature.false_negative_rate = 0.02;
    return cfg;
  };

  struct PointMeta {
    api::Scheme scheme;
    double churn_hz;
    double speed_mps;
  };
  std::vector<api::SweepPoint> points;
  std::vector<PointMeta> meta;
  for (const api::Scheme s : kSchemes) {
    for (const double churn : churn_rates_hz) {
      for (std::size_t si = 0; si < speeds_mps.size(); ++si) {
        char label[96];
        std::snprintf(label, sizeof(label), "churn=%.2gHz v=%.2gm/s %s",
                      churn, speeds_mps[si], api::to_string(s));
        points.push_back({topo, make_cfg(s, churn, si), label});
        meta.push_back({s, churn, speeds_mps[si]});
      }
    }
  }

  bench::BenchJson json("churn");
  const auto report = bench::run_sweep(points, "churn", &json);

  bench::print_header(
      "dynamic networks: churn x mobility resilience (4-AP floor plan, "
      "roaming on)");
  std::printf("%-24s %8s %9s %6s %6s %6s %6s %6s %6s %6s\n",
              "churn/speed scheme", "Mbps", "fairness", "joins", "leaves",
              "roams", "rjct", "rec50", "rec95", "recmax");
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!report.ok(i)) continue;
    const auto& r = report.result(i);
    const auto& m = meta[i];
    const Pctls rec = recovery_pctls(r.domino_recovery_latency_slots);
    char knob[40];
    std::snprintf(knob, sizeof(knob), "%.2gHz/%.2gm/s %s", m.churn_hz,
                  m.speed_mps, api::to_string(m.scheme));
    std::printf(
        "%-24s %8.2f %9.3f %6llu %6llu %6llu %6llu %6.1f %6.1f %6.1f\n",
        knob, r.throughput_mbps(), r.jain_fairness,
        static_cast<unsigned long long>(r.lifecycle_joins),
        static_cast<unsigned long long>(r.lifecycle_leaves),
        static_cast<unsigned long long>(r.lifecycle_roams),
        static_cast<unsigned long long>(r.lifecycle_roam_rejections +
                                        r.lifecycle_join_rejections),
        rec.p50, rec.p95, rec.max);
    json.add_row()
        .str("scheme", api::to_string(m.scheme))
        .num("churn_rate_hz", m.churn_hz)
        .num("speed_mps", m.speed_mps)
        .num("throughput_mbps", r.throughput_mbps())
        .metrics(r)
        .num("recovery_samples",
             static_cast<double>(r.domino_recovery_latency_slots.size()))
        .num("recovery_slots_p50", rec.p50)
        .num("recovery_slots_p95", rec.p95)
        .num("recovery_slots_max", rec.max)
        .num("recovery_slots_mean", r.mean_recovery_latency_slots());
  }

  // Self-check: dynamics forces the classic kernel, so a churny DOMINO
  // point must be byte-identical at 1 and 4 simulation threads.
  auto check_cfg = make_cfg(api::Scheme::kDomino, 2.0, 1);
  check_cfg.duration = msec(400);
  check_cfg.sim_threads = 1;
  const auto one = api::run_experiment(topo, check_cfg);
  check_cfg.sim_threads = 4;
  const auto four = api::run_experiment(topo, check_cfg);
  const bool stable =
      api::serialize_result(one) == api::serialize_result(four);
  std::printf("\nthread-stability self-check (DMN_SIM_THREADS 1 vs 4): %s "
              "(partitions=%u)\n",
              stable ? "byte-identical" : "MISMATCH", four.sim_partitions);
  json.meta("thread_stable", stable ? 1.0 : 0.0);

  std::printf(
      "expected: DOMINO's relative chains re-anchor across roams and churn "
      "(bounded recovery percentiles, roam counts track mobility speed) "
      "while keeping throughput near its static level; DCF is lifecycle-"
      "insensitive but cannot use the freed airtime\n");
  return stable ? 0 : 1;
}
