#pragma once
// The scheme-plugin seam of the experiment layer.
//
// A SchemeStack owns everything specific to one channel-access scheme: the
// per-node MAC entities, controllers, backbones and signature plans. The
// Experiment facade owns the shared substrate (simulator, medium, topology,
// conflict graph built on first use, traffic sources, flow stats) and hands
// it to the stack through a StackContext. Stacks register themselves by
// name in the SchemeStackRegistry, so adding a scheme (or an ablation
// variant of an existing one) means adding one file under src/api/stacks/
// and one registration call — the facade, benches and tests need no
// changes.
//
//   class MyStack : public SchemeStack { ... };
//   SchemeStackRegistry::instance().add("MY-SCHEME", [] {
//     return std::make_unique<MyStack>();
//   });
//   cfg.scheme_name = "MY-SCHEME";  // overrides cfg.scheme when non-empty

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mac/mac_common.h"
#include "topo/conflict_graph.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace dmn::sim {
class Simulator;
}
namespace dmn::phy {
class Medium;
}
namespace dmn::domino {
struct DominoTrace;
}
namespace dmn::fault {
class FaultInjector;
}
namespace dmn::audit {
class SimAuditor;
}

namespace dmn::api {

struct ExperimentConfig;
struct ExperimentResult;

/// Everything a stack may depend on, owned by the Experiment facade. Stacks
/// must not reach past this struct: no globals, no facade internals. The
/// `rng` is the experiment's root generator — fork() per stochastic
/// component so schemes draw from independent streams.
struct StackContext {
  sim::Simulator& sim;
  phy::Medium& medium;
  /// Medium carrying `node`'s airtime. Equal to `medium` for every node in
  /// a single-kernel run; under the partitioned kernel each interference
  /// partition has its own Medium and MAC entities must attach to (and
  /// transmit on) their node's. Always non-null.
  std::function<phy::Medium&(topo::NodeId)> medium_of;
  const topo::Topology& topo;
  const ExperimentConfig& cfg;
  /// Conflict graph over the directions the traffic spec exercises, built
  /// on the first call (during setup only) and shared by every consumer.
  /// Stacks that schedule from it call this in build(); stacks that never
  /// call it keep the O(links^2) build out of their runs.
  std::function<const topo::ConflictGraph&()> graph;
  Rng& rng;
  /// Invoked when a data packet is decoded at its MAC destination.
  mac::DeliveryFn deliver;
  /// Non-null when the config asked for timeline recording; stacks that
  /// support tracing should wire their tx/poll events into it.
  domino::DominoTrace* trace = nullptr;
  /// Non-null only when cfg.faults has an active knob: the per-experiment
  /// fault injector. Stacks route their backbone, controller and MAC fault
  /// hooks through it so every scheme runs under the same impairments.
  fault::FaultInjector* faults = nullptr;
  /// Non-null when invariant auditing is enabled (cfg.audit / DMN_AUDIT):
  /// stacks with auditable seams (DOMINO's schedule observer) attach it and
  /// apply cfg.audit.mutation test defects to their components.
  audit::SimAuditor* audit = nullptr;
};

/// One channel-access scheme's assembly and bookkeeping. Lifetime: built
/// once per experiment, outlives the simulation run, queried for
/// scheme-specific metrics afterwards.
class SchemeStack {
 public:
  virtual ~SchemeStack() = default;

  /// Instantiate the scheme's MAC entities and controllers. `macs` arrives
  /// sized to the node count, all null; the stack must install one entity
  /// per node (indexed by NodeId).
  virtual void build(StackContext& ctx,
                     std::vector<mac::MacEntity*>& macs) = 0;

  /// Accumulate scheme-specific counters (ACK timeouts, drops, DOMINO
  /// diagnostics, ...) into the result after the simulation ran.
  virtual void collect(ExperimentResult& result) const = 0;

  /// Whether this stack is safe to run on the partitioned kernel (per-node
  /// state confined to its node's partition, controller state to the wired
  /// queue, all cross-partition traffic via the backbone). Stacks with
  /// global synchronous coupling (the omniscient oracle) return false and
  /// always run on the single-queue kernel.
  virtual bool supports_partitioning() const { return true; }

  // ---- lifecycle (dynamic topologies) ------------------------------------
  // Invoked by the api::LifecycleDriver between simulator events. A stack
  // that returns false from supports_dynamics() is rejected up front when
  // cfg.dynamics has any active knob.

  /// Whether this stack can absorb joins/leaves/roams at runtime.
  virtual bool supports_dynamics() const { return true; }

  /// Attach (join or roam-in) `client` to AP `to`: admission control plus
  /// MAC re-registration and queued-traffic hand-off. Returns false to
  /// reject the handoff (e.g. the target AP is out of ROP subchannels); the
  /// driver then leaves the association as it was and retries later.
  virtual bool on_client_attach(topo::NodeId client, topo::NodeId to) {
    (void)client;
    (void)to;
    return true;
  }

  /// Detach (leave or roam-out) `client` from its current AP. Queued
  /// downlink packets for it are dropped or handed off by the stack.
  virtual void on_client_detach(topo::NodeId client) { (void)client; }

  /// The link set changed after a topology change; the shared conflict
  /// graph, if any consumer built it, was rebuilt in place. Controllers
  /// caching LinkIds must refresh.
  virtual void on_conflict_graph_rebuilt() {}
};

using SchemeStackFactory = std::function<std::unique_ptr<SchemeStack>()>;

/// Name -> factory registry. The four built-in schemes self-register on
/// first access; callers may add further schemes at any time (ablation
/// variants, experimental stacks) and select them via
/// ExperimentConfig::scheme_name.
class SchemeStackRegistry {
 public:
  static SchemeStackRegistry& instance();

  /// Registers (or replaces) a factory under `name`.
  void add(const std::string& name, SchemeStackFactory factory);

  bool contains(const std::string& name) const;

  /// Throws std::out_of_range naming the scheme and the known schemes when
  /// `name` is not registered.
  std::unique_ptr<SchemeStack> create(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, SchemeStackFactory> factories_;
};

}  // namespace dmn::api
