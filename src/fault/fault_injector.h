#pragma once
// Per-experiment fault injector: executes a FaultPlan deterministically.
//
// One injector is built per Experiment (only when the plan has any active
// knob), seeded by a fork of the experiment's root RNG, and handed to the
// scheme stack through StackContext. It is the single decision point for
// every impairment, so the counters it keeps are the ground truth of what
// was actually injected — benches and tests read them back through
// ExperimentResult.
//
// Thread safety: an injector belongs to exactly one Experiment. Its
// decisions are taken from every event queue, so the counters are striped
// into per-queue lanes: each lane is only touched by its queue's executing
// thread, and counters() merges the lanes on read. The injector draws no
// randomness while the simulation runs: backbone verdicts draw from the
// backbone stream of the message's AP endpoint (wired/backbone.h), and
// signature faults from the node's own stream. Its root stream serves only
// the setup draws (clock skews, the interference phase), so results are
// the same on one event queue and on K.

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "util/rng.h"
#include "util/time.h"
#include "wired/backbone.h"

namespace dmn::phy {
class Medium;
}

namespace dmn::fault {

/// Running totals of injected impairments (ground truth for observability).
struct FaultCounters {
  std::uint64_t backbone_drops = 0;
  std::uint64_t backbone_dups = 0;
  std::uint64_t backbone_spikes = 0;
  std::uint64_t interference_bursts = 0;
  std::uint64_t controller_outage_skips = 0;
  std::uint64_t forced_trigger_losses = 0;
  std::uint64_t forced_trigger_false_positives = 0;
};

class FaultInjector {
 public:
  /// `num_nodes` sizes the per-node clock-skew table; skews are drawn at
  /// construction so lookup order cannot affect the RNG stream, and so is
  /// the interference phase. Must be built after
  /// Simulator::configure_partitions (it sizes the counter lanes).
  FaultInjector(sim::Simulator& sim, std::size_t num_nodes,
                const FaultPlan& plan, Rng rng);

  const FaultPlan& plan() const { return plan_; }

  /// Schedules the medium-level impairments (interference burst on/off
  /// chain) for a run of `duration`, one chain per medium: `mediums[q]`
  /// carries node queue q's airtime. Every chain shares one phase, drawn
  /// once, so each queue sees the identical external interferer; bursts
  /// are counted once (on the first chain). Called once by the experiment
  /// facade before the simulation starts, so every scheme sees identical
  /// bursts.
  void arm_mediums(const std::vector<std::unique_ptr<phy::Medium>>& mediums,
                   TimeNs duration);

  // ---- backbone ----------------------------------------------------------

  /// Delivery hook for wired::Backbone::set_fault_hook. Decides drop /
  /// duplicate / latency spike for one message, drawing from `rng`, the
  /// stream of the message's backbone endpoint.
  wired::DeliveryMod backbone_delivery(Rng& rng);

  // ---- controller --------------------------------------------------------

  bool controller_down(TimeNs now) const { return plan_.controller.down_at(now); }
  /// End of the outage covering `now` (call only when controller_down).
  TimeNs controller_up_at(TimeNs now) const {
    return plan_.controller.up_at(now);
  }
  void note_controller_outage_skip();

  // ---- signature detection ----------------------------------------------

  /// True when `node` must miss an entire signature burst ending at `now`:
  /// scripted blackout, or a Bernoulli forced false negative drawn from the
  /// *node's* RNG (keeps per-node streams independent). Only bursts
  /// carrying the node's own trigger are counted as trigger losses by the
  /// caller via note_trigger_loss().
  bool suppress_burst(topo::NodeId node, TimeNs now, Rng& node_rng) const {
    if (plan_.signature.blacked_out(node, now)) return true;
    return node_rng.chance(plan_.signature.false_negative_rate);
  }
  /// True when `node` should act on a start burst that did not carry its
  /// code (forced correlator false positive).
  bool forge_trigger(Rng& node_rng);
  void note_trigger_loss();

  // ---- clock skew --------------------------------------------------------

  /// Rate error (ppm) of `node`'s local clock; 0 when the knob is off.
  double clock_skew_ppm(topo::NodeId node) const {
    const auto i = static_cast<std::size_t>(node);
    return i < skew_ppm_.size() ? skew_ppm_[i] : 0.0;
  }

  /// Injected-impairment totals, merged across queue lanes.
  FaultCounters counters() const;

 private:
  void schedule_burst(phy::Medium& medium, TimeNs at, TimeNs until,
                      bool count_bursts);
  FaultCounters& lane_counters() {
    return lane_counters_[sim_.active_queue_index()];
  }

  sim::Simulator& sim_;
  FaultPlan plan_;
  /// Setup draws from the root stream, in this order.
  std::vector<double> skew_ppm_;
  TimeNs interference_phase_ = 0;
  /// One counter lane per event queue.
  std::vector<FaultCounters> lane_counters_;
};

}  // namespace dmn::fault
