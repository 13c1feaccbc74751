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
  /// are byte-identical to audit-off results and hash_config (sweep_io)
  /// leaves `mode` out. `mutation` compiles a deliberate defect into the
  /// stack, which changes results, so hash_config covers it.
  audit::AuditConfig audit;

  /// Records the DOMINO timeline (ExperimentResult::timeline): one recorder
  /// per event queue, merged when the run is collected. Strictly passive,
  /// on every kernel: results are byte-identical with it on or off, so
  /// hash_config (sweep_io) leaves it out, like `audit`.
  bool record_timeline = false;

  /// Partitioned simulation kernel (src/sim, src/topo/partition.h).
  ///   0   consult the DMN_SIM_THREADS environment variable; unset / 0 /
  ///       unparsable keeps one event queue;
  ///   >=1 partition the run into its coupling components and execute them
  ///       on up to this many worker threads;
  ///   <0  keep one queue regardless of the environment.
  /// A performance choice only: results are byte-identical on one queue
  /// and partitioned, at every thread count, so hash_point (sweep_io)
  /// leaves it out. Omniscient and CENTAUR runs (their controllers drive or
  /// read node state synchronously), dynamic runs and single-component
  /// topologies keep one queue automatically.
  int sim_threads = 0;
};

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
