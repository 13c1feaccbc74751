#pragma once
// The lifecycle driver: compiles a topo::DynamicsPlan (mobility, churn,
// roaming) into deterministic simulator events and drives them through the
// experiment facade's hooks.
//
// The driver is the only writer of the experiment's mutable topology. All
// randomness (churn arrival times, downtimes) is drawn once in prepare()
// from an experiment-forked RNG, so the event timeline is fixed before the
// simulation starts and the same seed + plan reproduces bit-identical runs.
//
// Event discipline: every handler runs as one synchronous simulator event —
// it mutates the topology, re-registers clients through the scheme stack,
// and only then flushes the PHY (phy::Medium::on_topology_changed) and the
// scheduling plane (in-place rebuild of the conflict graph if one was built,
// controller/auditor resets) before returning to the event loop. No other
// event can observe a half-applied epoch. Dynamics runs force the classic
// single-queue kernel (api/experiment.cpp gates partitioning on
// !cfg.dynamics.any()), so this also holds trivially at any
// DMN_SIM_THREADS.

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/simulator.h"
#include "topo/dynamics.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "util/time.h"

namespace dmn::api {

struct LifecycleCounters {
  std::uint64_t epochs = 0;        // epoch ticks executed
  std::uint64_t rss_updates = 0;   // update_rss calls after prepare()
  std::uint64_t joins = 0;         // successful (re)joins
  std::uint64_t leaves = 0;        // departures (scripted + churn)
  std::uint64_t roams = 0;         // successful AP-to-AP handoffs
  std::uint64_t roam_rejections = 0;  // admission-control rejections
  std::uint64_t join_rejections = 0;  // no admissible AP / attach rejected
};

class LifecycleDriver {
 public:
  /// Facade callbacks. All are invoked synchronously from lifecycle events;
  /// `try_attach` runs BEFORE the topology records the new association (the
  /// stack reads the old AP through the topology), and returns false when
  /// admission control rejects the handoff.
  struct Hooks {
    std::function<void()> refresh_medium;
    std::function<void()> rebuild_graph;
    std::function<bool(topo::NodeId client, topo::NodeId to)> try_attach;
    std::function<void(topo::NodeId client)> detach;
    std::function<void(topo::NodeId node, bool active, TimeNs now)>
        lifecycle_note;
    std::function<void(topo::NodeId client)> reassociated;
  };

  /// `topo` is the experiment's OWNED mutable copy; the driver holds a
  /// reference for the run's lifetime.
  LifecycleDriver(sim::Simulator& sim, topo::Topology& topo,
                  const topo::DynamicsPlan& plan, Rng rng);

  /// Pre-build step (call BEFORE make_links / conflict-graph construction):
  /// re-derives every pair involving a dynamic node from the floor-plan
  /// model at initial positions, compiles seeded churn into a concrete
  /// event list, and marks initially-absent clients inactive with isolated
  /// RSS rows so the initial graph and MACs never see them.
  void prepare(TimeNs duration);

  /// Post-build step (call AFTER the stack and traffic are assembled):
  /// detaches initially-absent clients from their MACs and schedules the
  /// epoch ticks and membership events.
  void arm(Hooks hooks);

  const LifecycleCounters& counters() const { return counters_; }
  const std::vector<topo::NodeId>& initially_absent() const {
    return initially_absent_;
  }

  /// Audit mutants (audit::Mutation::kLifecycleGhostRadio / StaleRoam).
  /// Ghost radio: departures are recorded in the lifecycle ledger but the
  /// driver "forgets" to detach the MAC or isolate the radio — the departed
  /// client keeps receiving, which the auditor's delivery-to-departed check
  /// must catch. Stale roam: a roam updates the topology association only,
  /// skipping stack re-registration and the graph rebuild — the controller
  /// keeps planning over the stale graph, which the auditor's
  /// stale-association check must catch.
  void set_test_ghost_radio(bool on) { test_ghost_radio_ = on; }
  void set_test_stale_roam(bool on) { test_stale_roam_ = on; }

 private:
  struct CompiledEvent {
    TimeNs at = 0;
    topo::NodeId node = topo::kNoNode;
    bool join = false;
  };

  topo::Position position_at(const topo::MobilityTrajectory& traj,
                             TimeNs t) const;
  /// Floor-plan RSS refresh of `node` against every other ACTIVE node.
  void refresh_rows(topo::NodeId node);
  /// Severs `node` from the radio environment (-inf both directions).
  void isolate_rows(topo::NodeId node);
  /// Strongest admissible AP for `node` (assoc threshold), or kNoNode.
  topo::NodeId best_ap(topo::NodeId node) const;

  void schedule_epoch(TimeNs at);
  void epoch_tick(TimeNs now);
  void handle_leave(topo::NodeId node, TimeNs now);
  void handle_join(topo::NodeId node, TimeNs now);
  /// Applies pending PHY / scheduling-plane refreshes exactly once per
  /// simulator event.
  void flush();

  sim::Simulator& sim_;
  topo::Topology& topo_;
  topo::DynamicsPlan plan_;
  Rng rng_;
  Hooks hooks_;

  TimeNs duration_ = 0;
  std::vector<CompiledEvent> events_;
  /// Clients whose earliest membership event is a join (absent at t=0).
  std::vector<topo::NodeId> initially_absent_;
  /// Union of mobile / churning / scripted clients — the only roam
  /// candidates, so static topologies never mass-roam off trace RSS.
  std::vector<topo::NodeId> dynamic_nodes_;
  std::map<topo::NodeId, TimeNs> last_roam_;

  LifecycleCounters counters_;
  bool rss_dirty_ = false;
  bool graph_dirty_ = false;
  bool test_ghost_radio_ = false;
  bool test_stale_roam_ = false;
};

}  // namespace dmn::api
