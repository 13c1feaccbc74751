#pragma once
// The DOMINO central server: collects queue state from the reports APs send
// over the wired backbone after each poll (uplink backlog learned through
// ROP, the AP's own downlink backlog alongside it), runs the RAND greedy
// scheduler per batch, converts to a relative schedule and distributes
// per-AP plans over the jittery backbone (§3.3, §4.2.1).

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "domino/converter.h"
#include "domino/rand_scheduler.h"
#include "domino/relative_schedule.h"
#include "rop/poll_planner.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "wired/backbone.h"

namespace dmn::fault {
class FaultInjector;
}

namespace dmn::domino {

struct DominoParams {
  std::size_t batch_slots = 10;
  /// Poll every N batches (1 = every batch, the paper's default; larger
  /// values are the §5 polling-frequency study).
  std::size_t batches_per_poll = 1;
  /// Payload bytes of every virtual packet (fixed slot assumption, §3.5).
  std::size_t payload_bytes = 512;
};

/// One client's queue report relayed by an AP.
struct ClientQueueReport {
  topo::NodeId client = topo::kNoNode;
  unsigned reported = 0;
};

/// What an AP sends the controller after polling (plus its own queues).
struct ApReport {
  topo::NodeId ap = topo::kNoNode;
  /// Global slot the poll followed: tags the report with its batch.
  std::uint64_t poll_slot = 0;
  std::vector<ClientQueueReport> clients;
  /// AP-side downlink backlog per client.
  std::vector<ClientQueueReport> downlink;
};

/// Passive audit seam (src/audit): sees every planned batch — the strict
/// schedule the RAND scheduler produced, the relative schedule converted
/// from it, the previous batch's retained last slot and the APs that needed
/// an ROP poll — before the controller advances its own batch state.
/// Implementations must not mutate anything.
class ScheduleObserver {
 public:
  virtual ~ScheduleObserver() = default;

  virtual void on_batch_planned(
      const std::vector<std::vector<topo::LinkId>>& strict,
      const RelativeSchedule& rs, const std::vector<SlotEntry>& prev_last,
      const std::vector<topo::NodeId>& rop_aps_needed) = 0;
};

class DominoController {
 public:
  using DispatchFn = std::function<void(const ApSchedule&)>;

  /// `rop` selects the polling mode and sizing (legacy single-symbol by
  /// default); `rop_symbol_step` is the extra lattice stretch per poll
  /// symbol beyond the first (DominoTiming::rop_symbol), used only for the
  /// airtime fallback timer.
  DominoController(sim::Simulator& sim, wired::Backbone& backbone,
                   const topo::Topology& topo,
                   const topo::ConflictGraph& graph,
                   const SignaturePlan& signatures,
                   const DominoParams& params,
                   const ConverterParams& conv_params, TimeNs slot_duration,
                   TimeNs rop_duration, const rop::RopParams& rop = {},
                   TimeNs rop_symbol_step = 0);

  /// `dispatch` delivers an ApSchedule to the given AP's executor; the
  /// controller wraps it in backbone latency.
  void set_dispatch(DispatchFn dispatch) { dispatch_ = std::move(dispatch); }

  /// Static poll modes: how many poll symbols `ap` announces
  /// (rop::SlotTable::symbols(), kept current by the stack; default 1).
  void set_poll_symbols(topo::NodeId ap, std::size_t symbols) {
    static_symbols_[ap] = static_cast<std::uint32_t>(symbols);
  }

  void start(TimeNs at);

  /// APs call this (already backbone-delayed by the AP side). Only a report
  /// on a poll of the newest batch counts toward releasing the next plan.
  void on_ap_report(const ApReport& report);

  /// Fault injection (nullable): while the injector reports a controller
  /// outage, plan_batch neither plans nor dispatches and incoming AP
  /// reports are lost; planning resumes when the outage window ends. APs
  /// keep executing the last received plan meanwhile.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  /// Audit seam (nullable): observes every planned batch.
  void set_schedule_observer(ScheduleObserver* obs) { schedule_obs_ = obs; }

  /// The conflict graph / link set changed under the controller (roam,
  /// join/leave). Drops the cross-batch chaining state and the scheduler's
  /// fairness queue — stale LinkIds must not leak into the next batch. The
  /// demand estimates are keyed by endpoints and survive; the planning
  /// cadence and the global slot counter continue unchanged.
  void on_topology_changed();

  std::uint64_t batches_planned() const { return batches_; }
  /// Planning rounds skipped because the controller was down.
  std::uint64_t outage_skips() const { return outage_skips_; }
  const ScheduleConverter& converter() const { return converter_; }
  ScheduleConverter& converter() { return converter_; }

  // ---- polling metrics (not serialized; bench/bench_dense.cpp) ---------

  /// Per-AP poll rounds planned (one per polled AP per poll batch).
  std::uint64_t poll_rounds() const { return poll_rounds_; }
  /// Total poll symbols across all planned rounds — the poll-airtime proxy.
  std::uint64_t poll_symbols_total() const { return poll_symbols_; }
  /// Mean rounds a client had waited when it was finally rostered (0 in
  /// the static modes, which poll every client every round).
  double mean_poll_staleness_rounds() const {
    return staleness_samples_ == 0
               ? 0.0
               : static_cast<double>(staleness_sum_) /
                     static_cast<double>(staleness_samples_);
  }

  /// Test-only roster defects for the auditor self-test (src/audit): the
  /// planner output is corrupted after planning so the auditor must catch
  /// the violation downstream. Rosters exist only in kAdaptive.
  enum class PollDefect {
    kNone = 0,
    /// Spread the roster one-client-per-symbol so the round spans more
    /// symbols than the airtime budget allows (rop.airtime-over-budget).
    kOverwideRounds,
    /// Silently drop the highest-id client from every roster so it is
    /// never polled again (rop.starved-client).
    kStarveClient,
  };
  void set_test_poll_defect(PollDefect d) { test_poll_defect_ = d; }

 private:
  void plan_batch();
  std::vector<std::size_t> demand_vector() const;
  /// Fills `rop_symbols` parallel to `rop_aps`. kAdaptive also plans one
  /// roster per AP, applies test defects and updates ages/staleness.
  std::map<topo::NodeId, rop::PollRound> plan_poll_rounds(
      const std::vector<topo::NodeId>& rop_aps,
      std::vector<std::uint32_t>& rop_symbols);

  sim::Simulator& sim_;
  wired::Backbone& backbone_;
  const topo::Topology& topo_;
  const topo::ConflictGraph& graph_;
  ScheduleConverter converter_;
  RandScheduler rand_;
  DominoParams params_;
  rop::RopParams rop_params_;
  rop::PollPlanner poll_planner_;
  TimeNs slot_duration_;
  TimeNs rop_duration_;
  TimeNs rop_symbol_step_;
  DispatchFn dispatch_;
  fault::FaultInjector* faults_ = nullptr;
  ScheduleObserver* schedule_obs_ = nullptr;
  std::uint64_t outage_skips_ = 0;

  /// Backlog by (sender, receiver): endpoint keys survive graph rebuilds.
  std::map<std::pair<topo::NodeId, topo::NodeId>, std::size_t> estimates_;
  std::vector<SlotEntry> prev_last_;
  std::uint64_t next_global_slot_ = 0;
  std::uint64_t batches_ = 0;
  /// Polling APs of the newest batch, which starts at newest_first_slot_.
  std::set<topo::NodeId> pending_polls_;
  std::uint64_t newest_first_slot_ = 0;
  sim::EventHandle plan_timer_;

  std::map<topo::NodeId, std::uint32_t> static_symbols_;

  // Planner history for adaptive polling: last reported uplink backlog and
  // rounds since each client was last rostered. Keyed by client id; entries
  // for departed clients are harmless (the planner only sees clients_of()).
  std::map<topo::NodeId, std::size_t> client_backlog_;
  std::map<topo::NodeId, std::size_t> poll_age_;
  std::uint64_t poll_rounds_ = 0;
  std::uint64_t poll_symbols_ = 0;
  std::uint64_t staleness_sum_ = 0;
  std::uint64_t staleness_samples_ = 0;
  PollDefect test_poll_defect_ = PollDefect::kNone;
};

}  // namespace dmn::domino
