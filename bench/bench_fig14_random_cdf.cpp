// Figure 14 reproduction: CDF of DOMINO's throughput gain over DCF across
// random T(20,3) topologies in an 800x800 m area (ns-3-style default path
// loss), saturated UDP.
//
// Paper: 50 runs; gain 1.22x..1.96x with a median of 1.58x. Runs default to
// fewer repetitions for laptop runtimes; raise DMN_BENCH_RUNS to 50. The
// 2 x runs experiment points fan across all cores via SweepRunner
// (DMN_SWEEP_THREADS=1 recovers the serial loop, bit-identically).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace dmn;

int main() {
  const int runs = bench::bench_runs(12);
  const TimeNs dur = sec(bench::bench_seconds(3));

  // Two points per run — DCF then DOMINO on the same random topology.
  std::vector<api::SweepPoint> points;
  for (int run = 0; run < runs; ++run) {
    Rng rng(1000 + static_cast<std::uint64_t>(run));
    topo::LogDistanceModel model;
    const auto topo = topo::Topology::random_network(20, 3, 800.0, model,
                                                     {}, rng);
    api::ExperimentConfig cfg;
    cfg.duration = dur;
    cfg.seed = 1000 + static_cast<std::uint64_t>(run);
    cfg.traffic.downlink_bps = 10e6;

    cfg.scheme = api::Scheme::kDcf;
    points.push_back({topo, cfg, "run " + std::to_string(run) + " DCF"});
    cfg.scheme = api::Scheme::kDomino;
    points.push_back({topo, cfg, "run " + std::to_string(run) + " DOMINO"});
  }

  bench::BenchJson json("fig14_random_cdf");
  const auto report = bench::run_sweep(points, "fig14_random_cdf", &json);

  std::vector<double> gains;
  for (int run = 0; run < runs; ++run) {
    const std::size_t di = static_cast<std::size_t>(2 * run);
    if (!report.ok(di) || !report.ok(di + 1)) continue;
    const auto& dcf = report.result(di);
    const auto& dom = report.result(di + 1);
    double gain = 0.0;
    if (dcf.aggregate_throughput_bps > 0) {
      gain = dom.aggregate_throughput_bps / dcf.aggregate_throughput_bps;
      gains.push_back(gain);
    }
    // Plan age: how old the plan row an AP polls from is when it polls.
    std::printf("run %2d: gain %.2fx  plan age mean %.0f us, max %.0f us\n",
                run, gain, dom.domino_plan_age_us_mean,
                dom.domino_plan_age_us_max);
    json.add_row()
        .num("run", run)
        .num("dcf_mbps", dcf.throughput_mbps())
        .num("domino_mbps", dom.throughput_mbps())
        .num("gain", gain)
        .num("plan_age_us_mean", dom.domino_plan_age_us_mean)
        .num("plan_age_us_max", dom.domino_plan_age_us_max);
  }

  std::sort(gains.begin(), gains.end());
  bench::print_header(
      "Figure 14: CDF of DOMINO/DCF throughput gain, random T(20,3)");
  std::printf("%8s %8s\n", "gain", "CDF");
  for (std::size_t i = 0; i < gains.size(); ++i) {
    std::printf("%8.2f %8.2f\n", gains[i],
                static_cast<double>(i + 1) / gains.size());
  }
  if (!gains.empty()) {
    std::printf("\nmedian gain: %.2fx (paper: 1.58x, range 1.22-1.96x)\n",
                gains[gains.size() / 2]);
  }
  return 0;
}
