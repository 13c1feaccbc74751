#pragma once
// The top-level experiment facade: give it a Topology, a scheme and a
// traffic spec, and it assembles the full stack (medium, MACs, controller,
// backbone, sources, sinks), runs the discrete-event simulation and returns
// the evaluation metrics. Every example and bench goes through this API.
//
//   api::ExperimentConfig cfg;
//   cfg.scheme = api::Scheme::kDomino;
//   cfg.traffic.downlink_bps = 10e6;
//   api::ExperimentResult r = api::Experiment(topology, cfg).run();

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "api/metrics.h"
#include "audit/audit.h"
#include "domino/controller.h"
#include "domino/domino_mac.h"
#include "fault/fault_plan.h"
#include "mac/mac_common.h"
#include "phy/signature_model.h"
#include "topo/dynamics.h"
#include "topo/topology.h"
#include "wired/backbone.h"

namespace dmn::api {

enum class Scheme { kDcf, kCentaur, kDomino, kOmniscient };

const char* to_string(Scheme s);

enum class TrafficKind { kUdp, kTcp };

/// An explicitly chosen flow (Figure 2 / Table 2 style scenarios where only
/// some links carry traffic).
struct FlowSpec {
  topo::NodeId src = topo::kNoNode;
  topo::NodeId dst = topo::kNoNode;
  double rate_bps = 0.0;  // <= 0 with saturate=false disables
  bool saturate = true;
};

struct TrafficSpec {
  TrafficKind kind = TrafficKind::kUdp;
  /// Per-flow application rates; <= 0 disables that direction. Saturated
  /// workloads use `saturate_downlink` / `saturate_uplink` instead.
  double downlink_bps = 10e6;
  double uplink_bps = 0.0;
  bool saturate_downlink = false;
  bool saturate_uplink = false;
  std::size_t packet_bytes = 512;
  /// When non-empty, overrides the per-client defaults above.
  std::vector<FlowSpec> custom;
};

struct ExperimentConfig {
  Scheme scheme = Scheme::kDcf;
  TrafficSpec traffic;
  TimeNs duration = sec(50);
  std::uint64_t seed = 1;

  mac::WifiParams wifi;
  wired::BackboneParams backbone;
  domino::DominoParams domino;
  domino::ConverterParams converter;
  phy::SignatureDetectionModel sig_model;
  rop::RopParams rop;

  /// Scripted impairments (fault/fault_plan.h). Default-constructed plan =
  /// strict no-op: the injector is not even instantiated, so results stay
  /// byte-identical to the fault-free path.
  fault::FaultPlan faults;

  /// Dynamic-network plan (topo/dynamics.h): waypoint mobility, seeded
  /// join/leave churn and AP-to-AP roaming, compiled into deterministic
  /// simulator events by the api::LifecycleDriver. A default-constructed
  /// plan is a strict no-op — the topology is not copied, the driver is not
  /// instantiated, and results stay byte-identical to static builds.
  /// Dynamic runs keep one event queue (a topology change could couple two
  /// partitions), reject TCP traffic (flows have fixed endpoints) and
  /// reject the omniscient scheme (its TDMA frame is precomputed).
  topo::DynamicsPlan dynamics;

  /// Online invariant auditing (src/audit). `mode` defaults to
  /// AuditMode::kInherit, which reads the DMN_AUDIT environment variable
  /// (off when unset). The auditor is strictly passive, so audit-on results
  /// are byte-identical to audit-off results and `mode` is telemetry in the
  /// field table below. `mutation` compiles a deliberate defect into the
  /// stack, which changes results, so it is a result field.
  audit::AuditConfig audit;

  /// Records the DOMINO timeline (ExperimentResult::timeline): one recorder
  /// per event queue, merged when the run is collected. Strictly passive,
  /// on every kernel: results are byte-identical with it on or off, so it
  /// is telemetry in the field table below, like `audit.mode`.
  bool record_timeline = false;

  /// Partitioned simulation kernel (src/sim, src/topo/partition.h).
  ///   0   consult the DMN_SIM_THREADS environment variable; unset / 0 /
  ///       unparsable keeps one event queue;
  ///   >=1 partition the run into its coupling components and execute them
  ///       on up to this many worker threads;
  ///   <0  keep one queue regardless of the environment.
  /// A performance choice only: results are byte-identical on one queue
  /// and partitioned, at every thread count, so it is telemetry in the
  /// field table below. Omniscient and CENTAUR runs (their controllers
  /// drive or read node state synchronously), dynamic runs and
  /// single-component topologies keep one queue automatically.
  int sim_threads = 0;
};

// ---- config field tables ----------------------------------------------------
//
// Every settable ExperimentConfig value, declared once in the idiom of the
// metric tables (api/metrics.h): its key, its class and its member.
// `result` values change what a run computes; `telemetry` ones (the passive
// recorders and the thread count) never do. hash_point (api/sweep_io.h)
// hashes the canonical bytes of the `result` values, so listing a value
// here is what makes a checkpoint tell it apart. A struct that appears once
// is flattened into dotted keys; one that appears in a vector or in more
// than one place has a table of its own. Enums are written as their
// underlying integer, so enum values are append-only.
// Runner.PointHashSeesEveryKnob fails when a struct gains a member its
// table does not name.

template <MaybeConst<FlowSpec> F, typename Visit>
void visit_fields(F& f, Visit&& visit) {
  using enum MetricClass;
  visit("src", kResult, f.src);
  visit("dst", kResult, f.dst);
  visit("rate_bps", kResult, f.rate_bps);
  visit("saturate", kResult, f.saturate);
}

template <MaybeConst<fault::TimeWindow> W, typename Visit>
void visit_fields(W& w, Visit&& visit) {
  using enum MetricClass;
  visit("start", kResult, w.start);
  visit("duration", kResult, w.duration);
}

template <MaybeConst<fault::SignatureFaults::Blackout> B, typename Visit>
void visit_fields(B& b, Visit&& visit) {
  using enum MetricClass;
  visit("node", kResult, b.node);
  visit("window", kResult, b.window);
}

template <MaybeConst<fault::ApOutage> O, typename Visit>
void visit_fields(O& o, Visit&& visit) {
  using enum MetricClass;
  visit("ap", kResult, o.ap);
  visit("window", kResult, o.window);
}

template <MaybeConst<topo::Waypoint> W, typename Visit>
void visit_fields(W& w, Visit&& visit) {
  using enum MetricClass;
  visit("at", kResult, w.at);
  visit("pos.x", kResult, w.pos.x);
  visit("pos.y", kResult, w.pos.y);
}

template <MaybeConst<topo::MobilityTrajectory> T, typename Visit>
void visit_fields(T& t, Visit&& visit) {
  using enum MetricClass;
  visit("node", kResult, t.node);
  visit("waypoints", kResult, t.waypoints);
}

template <MaybeConst<topo::MembershipEvent> E, typename Visit>
void visit_fields(E& e, Visit&& visit) {
  using enum MetricClass;
  visit("at", kResult, e.at);
  visit("node", kResult, e.node);
  visit("join", kResult, e.join);
}

template <MaybeConst<ExperimentConfig> C, typename Visit>
void visit_fields(C& c, Visit&& visit) {
  using enum MetricClass;
  visit("scheme", kResult, c.scheme);
  visit("traffic.kind", kResult, c.traffic.kind);
  visit("traffic.downlink_bps", kResult, c.traffic.downlink_bps);
  visit("traffic.uplink_bps", kResult, c.traffic.uplink_bps);
  visit("traffic.saturate_downlink", kResult, c.traffic.saturate_downlink);
  visit("traffic.saturate_uplink", kResult, c.traffic.saturate_uplink);
  visit("traffic.packet_bytes", kResult, c.traffic.packet_bytes);
  visit("traffic.custom", kResult, c.traffic.custom);
  visit("duration", kResult, c.duration);
  visit("seed", kResult, c.seed);
  visit("wifi.data_rate_bps", kResult, c.wifi.data_rate_bps);
  visit("wifi.queue_capacity", kResult, c.wifi.queue_capacity);
  visit("backbone.mean_latency", kResult, c.backbone.mean_latency);
  visit("backbone.sigma_latency", kResult, c.backbone.sigma_latency);
  visit("backbone.min_latency", kResult, c.backbone.min_latency);
  visit("domino.batch_slots", kResult, c.domino.batch_slots);
  visit("converter.max_inbound", kResult, c.converter.max_inbound);
  visit("converter.max_outbound", kResult, c.converter.max_outbound);
  visit("converter.insert_fake_links", kResult,
        c.converter.insert_fake_links);
  visit("sig_model.p_by_count", kResult, c.sig_model.p_by_count);
  visit("sig_model.beyond_decay", kResult, c.sig_model.beyond_decay);
  visit("rop.data_per_subchannel", kResult, c.rop.data_per_subchannel);
  visit("rop.guard_per_subchannel", kResult, c.rop.guard_per_subchannel);
  visit("rop.poll_mode", kResult, c.rop.poll_mode);
  visit("rop.max_poll_symbols", kResult, c.rop.max_poll_symbols);
  visit("rop.assign_seed", kResult, c.rop.assign_seed);
  auto& f = c.faults;
  visit("faults.backbone.drop_rate", kResult, f.backbone.drop_rate);
  visit("faults.backbone.dup_rate", kResult, f.backbone.dup_rate);
  visit("faults.backbone.spike_rate", kResult, f.backbone.spike_rate);
  visit("faults.backbone.spike_extra", kResult, f.backbone.spike_extra);
  visit("faults.controller.outages", kResult, f.controller.outages);
  visit("faults.interference.duty", kResult, f.interference.duty);
  visit("faults.interference.period", kResult, f.interference.period);
  visit("faults.interference.power_dbm", kResult, f.interference.power_dbm);
  visit("faults.signature.false_negative_rate", kResult,
        f.signature.false_negative_rate);
  visit("faults.signature.false_positive_rate", kResult,
        f.signature.false_positive_rate);
  visit("faults.signature.blackouts", kResult, f.signature.blackouts);
  visit("faults.clock.max_skew_ppm", kResult, f.clock.max_skew_ppm);
  visit("faults.ap_outages", kResult, f.ap_outages);
  auto& d = c.dynamics;
  visit("dynamics.epoch", kResult, d.epoch);
  visit("dynamics.floorplan.num_nodes", kResult, d.floorplan.num_nodes);
  visit("dynamics.floorplan.building_w", kResult, d.floorplan.building_w);
  visit("dynamics.floorplan.building_h", kResult, d.floorplan.building_h);
  visit("dynamics.floorplan.building_gap", kResult, d.floorplan.building_gap);
  visit("dynamics.floorplan.tx_power_dbm", kResult, d.floorplan.tx_power_dbm);
  visit("dynamics.floorplan.ref_loss_db", kResult, d.floorplan.ref_loss_db);
  visit("dynamics.floorplan.exponent", kResult, d.floorplan.exponent);
  visit("dynamics.floorplan.wall_db", kResult, d.floorplan.wall_db);
  visit("dynamics.floorplan.room_w", kResult, d.floorplan.room_w);
  visit("dynamics.floorplan.room_h", kResult, d.floorplan.room_h);
  visit("dynamics.floorplan.exterior_wall_db", kResult,
        d.floorplan.exterior_wall_db);
  visit("dynamics.floorplan.shadowing_sigma_db", kResult,
        d.floorplan.shadowing_sigma_db);
  visit("dynamics.floorplan.max_interior_walls", kResult,
        d.floorplan.max_interior_walls);
  visit("dynamics.trajectories", kResult, d.trajectories);
  visit("dynamics.membership", kResult, d.membership);
  visit("dynamics.churn_rate_hz", kResult, d.churn_rate_hz);
  visit("dynamics.churn_downtime", kResult, d.churn_downtime);
  visit("dynamics.churn_nodes", kResult, d.churn_nodes);
  visit("dynamics.roam.enabled", kResult, d.roam.enabled);
  visit("dynamics.roam.hysteresis_db", kResult, d.roam.hysteresis_db);
  visit("dynamics.roam.min_dwell", kResult, d.roam.min_dwell);
  visit("audit.mode", kTelemetry, c.audit.mode);
  visit("audit.mutation", kResult, c.audit.mutation);
  visit("record_timeline", kTelemetry, c.record_timeline);
  visit("sim_threads", kTelemetry, c.sim_threads);
}

/// Thrown out of Experiment::run() when an armed run guard (see
/// Experiment::set_run_guard) stopped the simulation before the configured
/// duration — the cooperative cancellation path the sweep watchdogs use.
/// Carries the last-known progress at the safe event boundary where the
/// simulation was terminated.
class ExperimentInterrupted : public std::runtime_error {
 public:
  ExperimentInterrupted(TimeNs sim_time, std::uint64_t events);

  TimeNs sim_time_ns = 0;
  std::uint64_t events_executed = 0;
};

class Experiment {
 public:
  Experiment(const topo::Topology& topology, ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Arms cooperative cancellation for the upcoming run(): the simulator
  /// polls `cancel` (may be set from another thread; never written here)
  /// between events, and `max_events` caps the executed event count
  /// (0 = unlimited). When either fires, run() throws
  /// ExperimentInterrupted instead of returning metrics. Call before run().
  void set_run_guard(const std::atomic<bool>* cancel,
                     std::uint64_t max_events);

  ExperimentResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper.
ExperimentResult run_experiment(const topo::Topology& topology,
                                const ExperimentConfig& config);

/// The worker-thread count `cfg.sim_threads` resolves to: an explicit
/// positive value wins, a negative value forces 0 (one queue), and 0
/// defers to DMN_SIM_THREADS. 0 means "do not partition".
unsigned resolve_sim_threads(const ExperimentConfig& cfg);

}  // namespace dmn::api
