// Ablations of DOMINO's design choices (DESIGN.md §5):
//  * trigger redundancy: max inbound 1 vs 2 (backup triggers);
//  * fake-link insertion on/off;
//  * degraded signature detection (stressing the recovery paths).
// Run on the Figure 7 network with bidirectional saturated traffic; all
// variants fan across cores as one sweep.

#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace dmn;

namespace {

api::ExperimentConfig base_cfg() {
  api::ExperimentConfig cfg;
  cfg.scheme = api::Scheme::kDomino;
  cfg.duration = sec(bench::bench_seconds(5));
  cfg.seed = 9;
  cfg.traffic.saturate_downlink = true;
  cfg.traffic.saturate_uplink = true;
  return cfg;
}

}  // namespace

int main() {
  const auto topo = bench::fig7_topology();

  std::vector<api::SweepPoint> points;
  {
    api::ExperimentConfig cfg = base_cfg();
    points.push_back({topo, cfg, "baseline (inbound 2, fakes on)"});
  }
  {
    api::ExperimentConfig cfg = base_cfg();
    cfg.converter.max_inbound = 1;
    points.push_back({topo, cfg, "single trigger (inbound 1)"});
  }
  {
    api::ExperimentConfig cfg = base_cfg();
    cfg.converter.insert_fake_links = false;
    points.push_back({topo, cfg, "no fake-link insertion"});
  }
  {
    api::ExperimentConfig cfg = base_cfg();
    for (int i = 1; i <= 7; ++i) cfg.sig_model.p_by_count[i] *= 0.85;
    points.push_back({topo, cfg, "15% signature detection loss"});
  }
  {
    api::ExperimentConfig cfg = base_cfg();
    cfg.backbone.sigma_latency = usec(200);
    points.push_back({topo, cfg, "wired jitter sigma 200us"});
  }

  bench::BenchJson json("ablation_domino");
  const auto report = bench::run_sweep(points, "ablation_domino", &json);

  bench::print_header("DOMINO design ablations (Figure 7 net, saturated)");
  std::printf("%-34s %8s %9s %9s %9s\n", "variant", "Mbps", "fairness",
              "selfstart", "ack_to");
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!report.ok(i)) continue;
    const auto& r = report.result(i);
    std::printf("%-34s %8.2f %9.3f %9llu %9llu\n", points[i].label.c_str(),
                r.throughput_mbps(), r.jain_fairness,
                static_cast<unsigned long long>(r.domino_self_starts),
                static_cast<unsigned long long>(r.ack_timeouts));
    json.add_row()
        .str("variant", points[i].label)
        .num("throughput_mbps", r.throughput_mbps())
        .metrics(r);
  }
  std::printf(
      "\nexpected: backup triggers and fake links buy robustness (fewer "
      "self-starts); degradations cost throughput, not liveness\n");
  return 0;
}
