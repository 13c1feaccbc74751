#pragma once
// Shared helpers for the reproduction benches: the paper's figure
// topologies, run-length control, and table printing.
//
// Simulated duration per data point defaults to a laptop-friendly value and
// can be raised toward the paper's 50 s with DMN_BENCH_SECONDS.
//
// Environment knobs shared by all benches:
//   DMN_BENCH_SECONDS  simulated seconds per data point
//   DMN_BENCH_RUNS     repetition count for seed sweeps
//   DMN_SWEEP_THREADS  sweep pool size (default: all hardware threads)
//   DMN_BENCH_JSON     when set, benches also write machine-readable
//                      BENCH_<name>.json rows there (a directory, or a
//                      literal *.json file path)
// plus the runner knobs every sweep inherits through run_sweep (see
// docs/RUNNER.md): DMN_SWEEP_CHECKPOINT, DMN_SWEEP_POINT_TIMEOUT and
// DMN_SWEEP_POINT_MAX_EVENTS.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/experiment.h"
#include "api/sweep.h"
#include "api/sweep_io.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"

namespace dmn::bench {

inline double bench_seconds(double fallback) {
  const char* v = std::getenv("DMN_BENCH_SECONDS");
  if (v == nullptr) return fallback;
  const double s = std::atof(v);
  return s > 0 ? s : fallback;
}

inline int bench_runs(int fallback) {
  const char* v = std::getenv("DMN_BENCH_RUNS");
  if (v == nullptr) return fallback;
  return std::max(1, std::atoi(v));
}

/// Figure 1: three AP-client pairs; AP1 hidden to AP3, AP1/C2 exposed.
/// Nodes: AP1=0, AP2=1, AP3=2, C1=3, C2=4, C3=5.
inline topo::Topology fig1_topology() {
  topo::ManualTopologyBuilder b;
  const auto ap1 = b.add_ap();
  const auto ap2 = b.add_ap();
  const auto ap3 = b.add_ap();
  b.add_client(ap1);
  b.add_client(ap2);
  b.add_client(ap3);
  b.sense(ap1, 4);       // exposed pair AP1 / C2
  b.interfere(ap1, 5);   // hidden: AP1 corrupts C3
  b.sense(ap2, 3);
  (void)ap2;
  (void)ap3;
  return b.build();
}

/// Figure 7: four AP-client pairs in two conflicting halves.
/// Nodes: AP1..AP4 = 0..3, C1..C4 = 4..7.
inline topo::Topology fig7_topology() {
  topo::ManualTopologyBuilder b;
  const auto ap1 = b.add_ap();
  const auto ap2 = b.add_ap();
  const auto ap3 = b.add_ap();
  const auto ap4 = b.add_ap();
  b.add_client(ap1);  // 4
  b.add_client(ap2);  // 5
  b.add_client(ap3);  // 6
  b.add_client(ap4);  // 7
  b.interfere(ap1, 5).interfere(ap2, 4);
  b.interfere(ap3, 7).interfere(ap4, 6);
  b.sense(ap1, ap2).sense(ap3, ap4).sense(4, 5).sense(6, 7);
  return b.build();
}

/// Figure 13(a): four downlinks all mutually exposed (every AP hears every
/// other AP; receivers clean).
inline topo::Topology fig13a_topology() {
  topo::ManualTopologyBuilder b;
  topo::NodeId aps[4];
  for (auto& ap : aps) ap = b.add_ap();
  for (const auto ap : aps) b.add_client(ap);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) b.sense(aps[i], aps[j]);
  }
  return b.build();
}

/// Figure 13(b): AP1..AP3 out of range of each other; all three share an
/// exposed relationship with AP4 only.
inline topo::Topology fig13b_topology() {
  topo::ManualTopologyBuilder b;
  topo::NodeId aps[4];
  for (auto& ap : aps) ap = b.add_ap();
  for (const auto ap : aps) b.add_client(ap);
  for (int i = 0; i < 3; ++i) b.sense(aps[i], aps[3]);
  return b.build();
}

/// The paper's default large-scale setting: T(m,n) drawn from the synthetic
/// 40-node two-building trace.
inline topo::Topology trace_tmn(std::size_t m, std::size_t n,
                                std::uint64_t seed) {
  Rng rng(seed);
  const auto trace = topo::synthesize_trace({}, rng);
  return topo::Topology::build_tmn(trace.rss, m, n, {}, rng);
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// ---- machine-readable bench output (DMN_BENCH_JSON) ------------------------

/// Collects one JSON object per data point and, when DMN_BENCH_JSON is set,
/// writes them as BENCH_<name>.json on destruction. Without the env var it
/// costs a few string appends and writes nothing, so benches call it
/// unconditionally. Values are flat key -> number/string pairs — enough for
/// the perf-trajectory tooling to diff runs without scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  class Row {
   public:
    Row& num(const std::string& key, double v) {
      fields_.emplace_back(key, api::json_double(v));
      return *this;
    }
    Row& str(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, api::json_quote(v));
      return *this;
    }
    /// Every scalar metric of `r`, result and telemetry, under its
    /// field-table name (api/metrics.h). Array metrics are left to the
    /// caller's derived columns (percentiles, counts).
    Row& metrics(const api::ExperimentResult& r) {
      api::visit_fields(r, [&](const char* key, api::MetricClass,
                               const auto& v) {
        if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(v)>>) {
          num(key, static_cast<double>(v));
        }
      });
      return *this;
    }

   private:
    friend class BenchJson;
    std::vector<std::pair<std::string, std::string>> fields_;  // key, JSON
  };

  Row& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Extra top-level numeric field (e.g. sweep wall-clock seconds).
  void meta(const std::string& key, double v) {
    meta_.emplace_back(key, api::json_double(v));
  }

  ~BenchJson() {
    const char* dest = std::getenv("DMN_BENCH_JSON");
    if (dest == nullptr || *dest == '\0') return;
    std::string path(dest);
    const bool is_file = path.size() > 5 &&
                         path.compare(path.size() - 5, 5, ".json") == 0;
    if (!is_file) path += "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "DMN_BENCH_JSON: cannot open %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n", api::json_quote(name_).c_str());
    for (const auto& [k, v] : meta_) {
      std::fprintf(f, "  %s: %s,\n", api::json_quote(k).c_str(), v.c_str());
    }
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "    {");
      const Row& row = rows_[r];
      for (std::size_t i = 0; i < row.fields_.size(); ++i) {
        const auto& [k, v] = row.fields_[i];
        std::fprintf(f, "%s%s: %s", i == 0 ? "" : ", ",
                     api::json_quote(k).c_str(), v.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Row> rows_;
};

// ---- outcome-aware sweep entry point ---------------------------------------

/// Runs a sweep with the full robustness stack (checkpointing, watchdogs,
/// retries, graceful shutdown — all wired from the environment) and prints
/// the shared summary line. Failed points are reported to stderr instead of
/// aborting the bench; callers guard each row with `report.ok(i)`.
/// When `json` is given, the sweep metadata rows every bench used to emit by
/// hand are attached to it.
inline api::SweepReport run_sweep(const std::vector<api::SweepPoint>& points,
                                  const std::string& name,
                                  BenchJson* json = nullptr) {
  api::SweepOptions options = api::sweep_options_from_env();
  options.sweep_name = name;
  api::SweepRunner runner(options);
  api::SweepReport report = runner.run_outcomes(points);
  const api::SweepStats& st = report.stats;

  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const api::PointOutcome& o = report.outcomes[i];
    if (o.ok()) continue;
    const char* label =
        points[i].label.empty() ? "(unlabeled)" : points[i].label.c_str();
    switch (o.status) {
      case api::PointStatus::kError:
        std::fprintf(stderr, "%s: point %zu [%s] failed: %s: %s\n",
                     name.c_str(), i, label, o.error_type.c_str(),
                     o.error_message.c_str());
        break;
      case api::PointStatus::kTimedOut:
        std::fprintf(stderr,
                     "%s: point %zu [%s] timed out at sim t=%.3fs after "
                     "%llu events\n",
                     name.c_str(), i, label,
                     static_cast<double>(o.sim_time_ns) * 1e-9,
                     static_cast<unsigned long long>(o.events_executed));
        break;
      default:
        std::fprintf(stderr, "%s: point %zu [%s] skipped\n", name.c_str(), i,
                     label);
        break;
    }
  }

  std::printf(
      "sweep: %zu points on %zu threads in %.2fs "
      "(%zu ok, %zu restored, %zu failed, %zu timed out, %zu skipped)\n",
      st.points, st.threads, st.wall_seconds, st.ok, st.restored, st.errors,
      st.timeouts, st.skipped);
  if (json != nullptr) {
    json->meta("wall_seconds", st.wall_seconds);
    json->meta("threads", static_cast<double>(st.threads));
    json->meta("points_ok", static_cast<double>(st.ok));
    json->meta("points_failed", static_cast<double>(st.errors));
    json->meta("points_timed_out", static_cast<double>(st.timeouts));
    json->meta("points_skipped", static_cast<double>(st.skipped));
  }
  return report;
}

}  // namespace dmn::bench
