#pragma once
// Result structures shared by examples, tests and benches.

#include <memory>
#include <string>
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
  std::size_t recovery_samples = 0;
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

  /// Poll-plane diagnostics (bench/bench_dense.cpp). Deliberately NOT
  /// serialized by serialize_result: the serialized byte stream must stay
  /// comparable with pre-multi-symbol runs (the legacy differential oracle
  /// in tests/polling_test.cpp depends on it).
  std::uint64_t domino_poll_rounds = 0;
  std::uint64_t domino_poll_symbols = 0;
  double domino_poll_staleness_rounds = 0.0;

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
  /// when the experiment ran with a static topology. Serialized by
  /// serialize_result — churn results must reproduce byte-for-byte.
  std::uint64_t lifecycle_epochs = 0;
  std::uint64_t lifecycle_rss_updates = 0;
  std::uint64_t lifecycle_joins = 0;
  std::uint64_t lifecycle_leaves = 0;
  std::uint64_t lifecycle_roams = 0;
  std::uint64_t lifecycle_roam_rejections = 0;
  std::uint64_t lifecycle_join_rejections = 0;

  /// Simulation-kernel diagnostics: total events executed and how many
  /// interference partitions the run used (1 = classic single-queue
  /// kernel). Like `timeline`/`audit`, deliberately NOT serialized by
  /// serialize_result — results must stay byte-stable across thread counts.
  std::uint64_t events_executed = 0;
  std::uint32_t sim_partitions = 1;
  /// Wall-clock split of run(): substrate assembly (conflict graph, stacks,
  /// traffic) vs the event loop itself — the denominator for kernel
  /// events/sec comparisons (bench/bench_scale.cpp).
  double wall_setup_seconds = 0.0;
  double wall_run_seconds = 0.0;
  /// Shared conflict-graph builds, in-loop lifecycle rebuilds included: 0
  /// when no consumer (DOMINO, Omniscient, the auditor) asked for the
  /// graph. Not serialized, like `events_executed`.
  std::uint64_t graph_builds = 0;
  /// Partitioned-kernel telemetry (all zero on the classic kernel). Like
  /// `events_executed`, deliberately NOT serialized — these describe how
  /// the run was scheduled, not what it computed, and must never leak into
  /// the byte-stability comparison. Surfaced by bench_scale under
  /// DMN_SIM_STATS=1.
  std::uint64_t sim_windows = 0;            ///< synchronization windows
  std::uint64_t sim_ff_jumps = 0;           ///< windows that skipped idle time
  std::uint64_t sim_elongated_windows = 0;  ///< windows with an extended bound
  std::uint32_t sim_activated_p50 = 0;      ///< median partitions active/window
  std::uint32_t sim_activated_max = 0;      ///< max partitions active in a window
  std::uint64_t sim_spin_wakes = 0;         ///< worker wakeups served by spinning
  std::uint64_t sim_sleep_wakes = 0;        ///< worker wakeups via condition var
  double sim_barrier_seconds = 0.0;         ///< coordinator publish+wait time

  /// Present when the config asked for timeline recording (DOMINO only).
  std::shared_ptr<TimelineRecorder> timeline;

  /// Present when invariant auditing was enabled (cfg.audit / DMN_AUDIT).
  /// Like `timeline`, deliberately NOT serialized by serialize_result —
  /// audit-on results must stay byte-identical to audit-off results.
  std::shared_ptr<const audit::AuditReport> audit;

  double throughput_mbps() const { return aggregate_throughput_bps / 1e6; }
  double mean_recovery_latency_slots() const {
    if (domino_recovery_latency_slots.empty()) return 0.0;
    double acc = 0.0;
    for (double s : domino_recovery_latency_slots) acc += s;
    return acc / static_cast<double>(domino_recovery_latency_slots.size());
  }
};

/// Pretty one-line summary for benches and examples.
std::string summarize(const ExperimentResult& r);

/// Misalignment restricted to transmitters that share a collision domain
/// (any endpoint pair within carrier-sense range): offsets between chains
/// that cannot even hear each other are physically harmless and would
/// otherwise dominate the Figure 11 metric on multi-building topologies.
double coupled_misalignment_us(const TimelineRecorder& timeline,
                               const topo::Topology& topo,
                               std::uint64_t slot);

}  // namespace dmn::api
