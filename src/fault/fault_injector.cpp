#include "fault/fault_injector.h"

#include <algorithm>

#include "phy/medium.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace dmn::fault {

namespace {

/// Per-node clock skews, drawn up front so lookup order cannot perturb the
/// RNG stream; all-zero when the knob is off (no draws consumed).
std::vector<double> draw_skews(const ClockFaults& clock, std::size_t num_nodes,
                               Rng& rng) {
  std::vector<double> skew(num_nodes, 0.0);
  if (clock.any()) {
    for (double& s : skew) {
      s = rng.uniform(-clock.max_skew_ppm, clock.max_skew_ppm);
    }
  }
  return skew;
}

/// Phase of the interference burst chain, shared by every medium; 0 (no
/// draw) when the knob is off.
TimeNs draw_phase(const InterferenceFaults& intf, Rng& rng) {
  if (!intf.any() || intf.period <= 0) return 0;
  return static_cast<TimeNs>(
      rng.uniform(0.0, static_cast<double>(intf.period)));
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, std::size_t num_nodes,
                             const FaultPlan& plan, Rng rng)
    : sim_(sim),
      plan_(plan),
      skew_ppm_(draw_skews(plan_.clock, num_nodes, rng)),
      interference_phase_(draw_phase(plan_.interference, rng)),
      lane_counters_(sim.queue_count()) {}

FaultCounters FaultInjector::counters() const {
  FaultCounters out;
  for (const FaultCounters& c : lane_counters_) {
    out.backbone_drops += c.backbone_drops;
    out.backbone_dups += c.backbone_dups;
    out.backbone_spikes += c.backbone_spikes;
    out.interference_bursts += c.interference_bursts;
    out.controller_outage_skips += c.controller_outage_skips;
    out.forced_trigger_losses += c.forced_trigger_losses;
    out.forced_trigger_false_positives += c.forced_trigger_false_positives;
  }
  return out;
}

void FaultInjector::note_controller_outage_skip() {
  ++lane_counters().controller_outage_skips;
}

bool FaultInjector::forge_trigger(Rng& node_rng) {
  if (!node_rng.chance(plan_.signature.false_positive_rate)) return false;
  ++lane_counters().forced_trigger_false_positives;
  return true;
}

void FaultInjector::note_trigger_loss() {
  ++lane_counters().forced_trigger_losses;
}

wired::DeliveryMod FaultInjector::backbone_delivery(Rng& rng) {
  wired::DeliveryMod mod;
  const BackboneFaults& bf = plan_.backbone;
  FaultCounters& counters = lane_counters();
  if (rng.chance(bf.drop_rate)) {
    mod.copies = 0;
    ++counters.backbone_drops;
    return mod;
  }
  if (rng.chance(bf.dup_rate)) {
    mod.copies = 2;
    ++counters.backbone_dups;
  }
  if (rng.chance(bf.spike_rate)) {
    mod.extra_latency = bf.spike_extra;
    ++counters.backbone_spikes;
  }
  return mod;
}

void FaultInjector::arm_mediums(
    const std::vector<std::unique_ptr<phy::Medium>>& mediums,
    TimeNs duration) {
  const InterferenceFaults& intf = plan_.interference;
  if (!intf.any() || intf.period <= 0 || mediums.empty()) return;
  // A self-rescheduling on/off chain per medium, all from the one phase
  // drawn at construction: one pending event at a time per chain regardless
  // of run length. Each chain lives on its medium's queue; the
  // environment-wide interferer is counted once, on the first chain.
  for (std::size_t i = 0; i < mediums.size(); ++i) {
    sim::Simulator::Scope scope(sim_, static_cast<std::uint32_t>(i));
    schedule_burst(*mediums[i], interference_phase_, duration,
                   /*count_bursts=*/i == 0);
  }
}

void FaultInjector::schedule_burst(phy::Medium& medium, TimeNs at,
                                   TimeNs until, bool count_bursts) {
  if (at > until) return;
  const TimeNs on_time = static_cast<TimeNs>(
      plan_.interference.duty * static_cast<double>(plan_.interference.period));
  const TimeNs period = plan_.interference.period;
  const double mw = dbm_to_mw(plan_.interference.power_dbm);
  sim_.post_at(at, [this, &medium, on_time, period, mw, until, count_bursts] {
    if (count_bursts) ++lane_counters().interference_bursts;
    medium.set_external_interference_mw(mw);
    sim_.post_in(on_time, [this, &medium, period, on_time, until,
                           count_bursts] {
      medium.set_external_interference_mw(0.0);
      schedule_burst(medium, sim_.now() - on_time + period, until,
                     count_bursts);
    });
  });
}

}  // namespace dmn::fault
