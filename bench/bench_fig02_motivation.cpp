// Figure 2 reproduction: per-link and overall throughput on the Figure 1
// topology (AP1->C1, C2->AP2, AP3->C3) under DCF, CENTAUR, DOMINO and the
// omniscient scheduler.
//
// Paper's shape: DCF starves AP3->C3 (hidden) and wastes the exposed
// C2->AP2 opportunity; the omniscient scheme is ~76% above DCF; DOMINO
// lands close to omniscient; CENTAUR in between.
//
// One seed is one draw of DOMINO's chain recovery, whose timing is
// knife-edge on this topology, so every scheme runs a seed sweep
// (DMN_BENCH_RUNS, default 20, seeds 7, 8, ...) and each cell prints the
// median with the min-max spread across seeds.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace dmn;

namespace {

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double median =
      n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return {median, v.front(), v.back()};
}

}  // namespace

int main() {
  const auto topo = bench::fig1_topology();
  const TimeNs dur = sec(bench::bench_seconds(10));
  const int runs = bench::bench_runs(20);
  const api::Scheme schemes[] = {api::Scheme::kDcf, api::Scheme::kCentaur,
                                 api::Scheme::kDomino,
                                 api::Scheme::kOmniscient};

  std::vector<api::SweepPoint> points;
  for (const api::Scheme s : schemes) {
    api::ExperimentConfig cfg;
    cfg.scheme = s;
    cfg.duration = dur;
    cfg.traffic.custom = {api::FlowSpec{0, 3}, api::FlowSpec{4, 1},
                          api::FlowSpec{2, 5}};
    for (const api::SweepPoint& p : api::seed_sweep(topo, cfg, 7, runs)) {
      points.push_back(p);
      points.back().label = std::string(api::to_string(s)) + " seed " +
                            std::to_string(p.config.seed);
    }
  }
  bench::BenchJson json("fig02_motivation");
  const auto report = bench::run_sweep(points, "fig02_motivation", &json);

  bench::print_header("Figure 2: throughput on the Figure-1 topology (Mbps)");
  std::printf("median (min-max) over %d seeds\n", runs);
  std::printf("%-11s %20s %20s %20s %20s\n", "scheme", "AP1->C1", "C2->AP2",
              "AP3->C3", "overall");
  double dcf_median = 0.0;
  for (std::size_t si = 0; si < std::size(schemes); ++si) {
    std::vector<double> cells[4];  // three links, then overall
    for (int run = 0; run < runs; ++run) {
      const std::size_t i = si * static_cast<std::size_t>(runs) +
                            static_cast<std::size_t>(run);
      if (!report.ok(i)) continue;
      const api::ExperimentResult& r = report.result(i);
      for (std::size_t l = 0; l < 3; ++l) {
        cells[l].push_back(r.links[l].throughput_bps / 1e6);
      }
      cells[3].push_back(r.throughput_mbps());
    }
    std::printf("%-11s", api::to_string(schemes[si]));
    auto& row = json.add_row().str("scheme", api::to_string(schemes[si]));
    const char* names[] = {"ap1_c1", "c2_ap2", "ap3_c3", "overall"};
    Spread overall;
    for (std::size_t c = 0; c < 4; ++c) {
      const Spread s = spread(cells[c]);
      std::printf(" %6.2f (%5.2f-%5.2f)", s.median, s.min, s.max);
      row.num(std::string(names[c]) + "_median_mbps", s.median)
          .num(std::string(names[c]) + "_min_mbps", s.min)
          .num(std::string(names[c]) + "_max_mbps", s.max);
      overall = s;
    }
    std::printf("\n");
    if (schemes[si] == api::Scheme::kDcf) dcf_median = overall.median;
    if (schemes[si] == api::Scheme::kOmniscient && dcf_median > 0) {
      std::printf("  omniscient gain over DCF (medians): %.0f%% "
                  "(paper: ~76%%)\n",
                  (overall.median / dcf_median - 1.0) * 100.0);
    }
  }
  return 0;
}
