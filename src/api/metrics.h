#pragma once
// Result structures shared by examples, tests and benches, and the field
// tables that name, classify and order their metrics (see visit_fields).

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "api/timeline.h"
#include "topo/conflict_graph.h"
#include "traffic/packet.h"

namespace dmn::audit {
struct AuditReport;
}

namespace dmn::api {

struct LinkResult {
  traffic::Flow flow;
  bool uplink = false;
  double throughput_bps = 0.0;
  double mean_delay_us = 0.0;
  std::uint64_t delivered = 0;
};

/// Per-AP chain-health snapshot: the recovery counters that were previously
/// buried in DominoApMac, promoted so benches and tests can see *which* AP
/// is struggling, not just network totals.
struct ApChainHealth {
  topo::NodeId ap = topo::kNoNode;
  std::uint64_t self_starts = 0;
  std::uint64_t missed_rows = 0;
  std::uint64_t ack_timeouts = 0;
  std::uint64_t retry_drops = 0;
  std::uint64_t anchor_rejections = 0;
  std::uint64_t forced_trigger_losses = 0;
  std::uint64_t recovery_samples = 0;
};

struct ExperimentResult {
  std::vector<LinkResult> links;
  double aggregate_throughput_bps = 0.0;
  double jain_fairness = 1.0;
  double mean_delay_us = 0.0;

  std::uint64_t ack_timeouts = 0;
  std::uint64_t mac_drops = 0;
  topo::PairCensus census;

  /// DOMINO-only diagnostics.
  std::uint64_t domino_self_starts = 0;
  std::uint64_t domino_missed_rows = 0;
  std::uint64_t domino_rows_executed = 0;
  std::uint64_t domino_untriggerable = 0;
  std::uint64_t domino_batches = 0;
  std::uint64_t domino_retry_drops = 0;
  std::uint64_t domino_anchor_rejections = 0;
  std::uint64_t domino_forced_trigger_losses = 0;
  std::uint64_t domino_controller_outage_skips = 0;
  /// Recovery latency samples across all DOMINO nodes: slots elapsed
  /// between a fault-forced trigger loss and the next chain activity at the
  /// losing node (trigger detection, row execution, or recovery kick).
  std::vector<double> domino_recovery_latency_slots;
  std::vector<ApChainHealth> ap_chain_health;

  /// Poll-plane diagnostics (bench/bench_dense.cpp). Telemetry: the legacy
  /// differential oracle in tests/polling_test.cpp compares serialized
  /// bytes with pre-multi-symbol runs.
  std::uint64_t domino_poll_rounds = 0;
  std::uint64_t domino_poll_symbols = 0;
  double domino_poll_staleness_rounds = 0.0;
  /// Age of the plan row an AP polls from, over every DOMINO poll: the
  /// time from the controller planning the row to the AP polling (us).
  double domino_plan_age_us_mean = 0.0;
  double domino_plan_age_us_max = 0.0;

  /// Ground-truth totals of what the fault injector actually injected
  /// (all zero when the experiment ran without faults).
  std::uint64_t fault_backbone_drops = 0;
  std::uint64_t fault_backbone_dups = 0;
  std::uint64_t fault_backbone_spikes = 0;
  std::uint64_t fault_interference_bursts = 0;
  std::uint64_t fault_controller_outage_skips = 0;
  std::uint64_t fault_forced_trigger_losses = 0;
  std::uint64_t fault_forced_false_positives = 0;

  /// Lifecycle totals from the dynamics driver (api/lifecycle.h); all zero
  /// when the experiment ran with a static topology.
  std::uint64_t lifecycle_epochs = 0;
  std::uint64_t lifecycle_rss_updates = 0;
  std::uint64_t lifecycle_joins = 0;
  std::uint64_t lifecycle_leaves = 0;
  std::uint64_t lifecycle_roams = 0;
  std::uint64_t lifecycle_roam_rejections = 0;
  std::uint64_t lifecycle_join_rejections = 0;

  /// Simulation-kernel diagnostics: total events executed and how many
  /// interference partitions the run used (1 = one event queue). Like the wall-clock split and window statistics below, these
  /// are telemetry: they describe how the run was scheduled and timed,
  /// which varies with thread count.
  std::uint64_t events_executed = 0;
  std::uint32_t sim_partitions = 1;
  /// Wall-clock split of run(): substrate assembly (conflict graph, stacks,
  /// traffic) vs the event loop itself — the denominator for kernel
  /// events/sec comparisons (bench/bench_scale.cpp).
  double wall_setup_seconds = 0.0;
  double wall_run_seconds = 0.0;
  /// Shared conflict-graph builds, in-loop lifecycle rebuilds included: 0
  /// when no consumer (DOMINO, Omniscient, the auditor) asked for the
  /// graph.
  std::uint64_t graph_builds = 0;
  /// Kernel window statistics (sim::KernelStats; one queue runs one window
  /// per run and activates no node queue).
  std::uint64_t sim_windows = 0;            ///< synchronization windows
  std::uint64_t sim_ff_jumps = 0;           ///< windows that skipped idle time
  std::uint64_t sim_elongated_windows = 0;  ///< windows with an extended bound
  std::uint32_t sim_activated_p50 = 0;      ///< median partitions active/window
  std::uint32_t sim_activated_max = 0;      ///< max partitions active in a window
  std::uint64_t sim_spin_wakes = 0;         ///< worker wakeups served by spinning
  std::uint64_t sim_sleep_wakes = 0;        ///< worker wakeups via condition var
  double sim_barrier_seconds = 0.0;         ///< coordinator publish+wait time

  // Attachments, not metrics: outside the field tables, so audit-on and
  // timeline-recording runs serialize like plain ones.

  /// Present when the config asked for timeline recording (DOMINO only).
  std::shared_ptr<TimelineRecorder> timeline;
  /// Present when invariant auditing was enabled (cfg.audit / DMN_AUDIT).
  std::shared_ptr<const audit::AuditReport> audit;

  double throughput_mbps() const { return aggregate_throughput_bps / 1e6; }
  double mean_recovery_latency_slots() const {
    if (domino_recovery_latency_slots.empty()) return 0.0;
    double acc = 0.0;
    for (double s : domino_recovery_latency_slots) acc += s;
    return acc / static_cast<double>(domino_recovery_latency_slots.size());
  }
};

// ---- field tables -----------------------------------------------------------
//
// Every metric is declared once, below: its JSON key, its class and the
// member it lives in. The checkpoint codec (api/sweep_io.cpp), the bench
// JSON rows (bench/bench_util.h) and the codec tests walk these tables, so
// adding a metric is one line here. `visit(key, cls, member)` is called in
// table order, which is the serialized key order; the member is const when
// the struct is.

enum class MetricClass {
  kResult,     ///< what the run computed: serialized, checkpointed, compared
  kTelemetry,  ///< how the run was scheduled and timed: never serialized
};

template <typename T, typename U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

template <MaybeConst<LinkResult> L, typename Visit>
void visit_fields(L& l, Visit&& visit) {
  using enum MetricClass;
  visit("flow_id", kResult, l.flow.id);
  visit("src", kResult, l.flow.src);
  visit("dst", kResult, l.flow.dst);
  visit("uplink", kResult, l.uplink);
  visit("throughput_bps", kResult, l.throughput_bps);
  visit("mean_delay_us", kResult, l.mean_delay_us);
  visit("delivered", kResult, l.delivered);
}

template <MaybeConst<ApChainHealth> H, typename Visit>
void visit_fields(H& h, Visit&& visit) {
  using enum MetricClass;
  visit("ap", kResult, h.ap);
  visit("self_starts", kResult, h.self_starts);
  visit("missed_rows", kResult, h.missed_rows);
  visit("ack_timeouts", kResult, h.ack_timeouts);
  visit("retry_drops", kResult, h.retry_drops);
  visit("anchor_rejections", kResult, h.anchor_rejections);
  visit("forced_trigger_losses", kResult, h.forced_trigger_losses);
  visit("recovery_samples", kResult, h.recovery_samples);
}

template <MaybeConst<ExperimentResult> E, typename Visit>
void visit_fields(E& r, Visit&& visit) {
  using enum MetricClass;
  visit("links", kResult, r.links);
  visit("aggregate_throughput_bps", kResult, r.aggregate_throughput_bps);
  visit("jain_fairness", kResult, r.jain_fairness);
  visit("mean_delay_us", kResult, r.mean_delay_us);
  visit("ack_timeouts", kResult, r.ack_timeouts);
  visit("mac_drops", kResult, r.mac_drops);
  visit("census_hidden", kResult, r.census.hidden);
  visit("census_exposed", kResult, r.census.exposed);
  visit("census_total", kResult, r.census.total);
  visit("domino_self_starts", kResult, r.domino_self_starts);
  visit("domino_missed_rows", kResult, r.domino_missed_rows);
  visit("domino_rows_executed", kResult, r.domino_rows_executed);
  visit("domino_untriggerable", kResult, r.domino_untriggerable);
  visit("domino_batches", kResult, r.domino_batches);
  visit("domino_retry_drops", kResult, r.domino_retry_drops);
  visit("domino_anchor_rejections", kResult, r.domino_anchor_rejections);
  visit("domino_forced_trigger_losses", kResult,
        r.domino_forced_trigger_losses);
  visit("domino_controller_outage_skips", kResult,
        r.domino_controller_outage_skips);
  visit("recovery_slots", kResult, r.domino_recovery_latency_slots);
  visit("ap_health", kResult, r.ap_chain_health);
  visit("domino_poll_rounds", kTelemetry, r.domino_poll_rounds);
  visit("domino_poll_symbols", kTelemetry, r.domino_poll_symbols);
  visit("domino_poll_staleness_rounds", kTelemetry,
        r.domino_poll_staleness_rounds);
  visit("domino_plan_age_us_mean", kTelemetry, r.domino_plan_age_us_mean);
  visit("domino_plan_age_us_max", kTelemetry, r.domino_plan_age_us_max);
  visit("fault_backbone_drops", kResult, r.fault_backbone_drops);
  visit("fault_backbone_dups", kResult, r.fault_backbone_dups);
  visit("fault_backbone_spikes", kResult, r.fault_backbone_spikes);
  visit("fault_interference_bursts", kResult, r.fault_interference_bursts);
  visit("fault_controller_outage_skips", kResult,
        r.fault_controller_outage_skips);
  visit("fault_forced_trigger_losses", kResult, r.fault_forced_trigger_losses);
  visit("fault_forced_false_positives", kResult,
        r.fault_forced_false_positives);
  visit("lifecycle_epochs", kResult, r.lifecycle_epochs);
  visit("lifecycle_rss_updates", kResult, r.lifecycle_rss_updates);
  visit("lifecycle_joins", kResult, r.lifecycle_joins);
  visit("lifecycle_leaves", kResult, r.lifecycle_leaves);
  visit("lifecycle_roams", kResult, r.lifecycle_roams);
  visit("lifecycle_roam_rejections", kResult, r.lifecycle_roam_rejections);
  visit("lifecycle_join_rejections", kResult, r.lifecycle_join_rejections);
  visit("events_executed", kTelemetry, r.events_executed);
  visit("sim_partitions", kTelemetry, r.sim_partitions);
  visit("wall_setup_seconds", kTelemetry, r.wall_setup_seconds);
  visit("wall_run_seconds", kTelemetry, r.wall_run_seconds);
  visit("graph_builds", kTelemetry, r.graph_builds);
  visit("sim_windows", kTelemetry, r.sim_windows);
  visit("sim_ff_jumps", kTelemetry, r.sim_ff_jumps);
  visit("sim_elongated_windows", kTelemetry, r.sim_elongated_windows);
  visit("sim_activated_p50", kTelemetry, r.sim_activated_p50);
  visit("sim_activated_max", kTelemetry, r.sim_activated_max);
  visit("sim_spin_wakes", kTelemetry, r.sim_spin_wakes);
  visit("sim_sleep_wakes", kTelemetry, r.sim_sleep_wakes);
  visit("sim_barrier_seconds", kTelemetry, r.sim_barrier_seconds);
}

/// Misalignment restricted to transmitters that share a collision domain
/// (any endpoint pair within carrier-sense range): offsets between chains
/// that cannot even hear each other are physically harmless and would
/// otherwise dominate the Figure 11 metric on multi-building topologies.
double coupled_misalignment_us(const TimelineRecorder& timeline,
                               const topo::Topology& topo,
                               std::uint64_t slot);

}  // namespace dmn::api
