#include "domino/controller.h"

#include <algorithm>

#include "fault/fault_injector.h"

namespace dmn::domino {

DominoController::DominoController(sim::Simulator& sim,
                                   wired::Backbone& backbone,
                                   const topo::Topology& topo,
                                   const topo::ConflictGraph& graph,
                                   const SignaturePlan& signatures,
                                   const DominoParams& params,
                                   const ConverterParams& conv_params,
                                   TimeNs slot_duration, TimeNs rop_duration,
                                   const rop::RopParams& rop,
                                   TimeNs rop_symbol_step)
    : sim_(sim),
      backbone_(backbone),
      topo_(topo),
      graph_(graph),
      converter_(topo, graph, signatures, conv_params),
      rand_(graph),
      params_(params),
      rop_params_(rop),
      poll_planner_(rop),
      slot_duration_(slot_duration),
      rop_duration_(rop_duration),
      rop_symbol_step_(rop_symbol_step) {}

void DominoController::start(TimeNs at) {
  sim_.post_at(at, [this] { plan_batch(); });
}

std::vector<std::size_t> DominoController::demand_vector() const {
  std::vector<std::size_t> demand(graph_.num_links(), 0);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    const topo::Link& l = graph_.link(static_cast<topo::LinkId>(i));
    const auto it = estimates_.find({l.sender, l.receiver});
    if (it != estimates_.end()) demand[i] = it->second;
  }
  return demand;
}

std::map<topo::NodeId, rop::PollRound> DominoController::plan_poll_rounds(
    const std::vector<topo::NodeId>& rop_aps,
    std::vector<std::uint32_t>& rop_symbols) {
  std::map<topo::NodeId, rop::PollRound> rounds;
  rop_symbols.assign(rop_aps.size(), 1);
  if (rop_aps.empty()) return rounds;
  poll_rounds_ += rop_aps.size();
  for (std::size_t i = 0; i < rop_aps.size(); ++i) {
    const topo::NodeId ap = rop_aps[i];
    if (rop_params_.poll_mode != rop::PollMode::kAdaptive) {
      // Static modes: no roster; every client answers on its slot.
      const auto it = static_symbols_.find(ap);
      if (it != static_symbols_.end()) rop_symbols[i] = it->second;
      poll_symbols_ += rop_symbols[i];
      continue;
    }
    std::vector<rop::PollClient> clients;
    for (topo::NodeId c : topo_.clients_of(ap)) {
      if (!topo_.node_active(c)) continue;
      clients.push_back({c, topo_.rss(c, ap), client_backlog_[c],
                         poll_age_[c]});
    }
    rop::PollRound round = poll_planner_.plan_adaptive(clients, batches_);

    if (mutation_ == audit::Mutation::kRopAirtimeOverBudget) {
      // One client per symbol: the round spans slots.size() symbols,
      // blowing past max_poll_symbols whenever the roster is larger.
      for (std::size_t s = 0; s < round.slots.size(); ++s) {
        round.slots[s].symbol = s;
      }
      round.symbols = std::max<std::size_t>(round.slots.size(), 1);
    } else if (mutation_ == audit::Mutation::kRopStarvedClient) {
      // Drop the highest-id rostered client — it will never be polled.
      auto victim = std::max_element(
          round.slots.begin(), round.slots.end(),
          [](const rop::PollSlot& a, const rop::PollSlot& b) {
            return a.client < b.client;
          });
      if (victim != round.slots.end()) round.slots.erase(victim);
    }

    poll_symbols_ += round.symbols;
    rop_symbols[i] = static_cast<std::uint32_t>(round.symbols);

    // Age bookkeeping from the FINAL roster (defects included): rostered
    // clients record how stale their report was and reset; the rest age.
    std::set<topo::NodeId> rostered;
    for (const rop::PollSlot& s : round.slots) rostered.insert(s.client);
    for (const rop::PollClient& pc : clients) {
      if (rostered.count(pc.client)) {
        staleness_sum_ += pc.rounds_since_polled;
        ++staleness_samples_;
        poll_age_[pc.client] = 0;
      } else {
        poll_age_[pc.client] = pc.rounds_since_polled + 1;
      }
    }
    rounds.emplace(ap, std::move(round));
  }
  return rounds;
}

void DominoController::plan_batch() {
  sim_.cancel(plan_timer_);
  if (faults_ != nullptr && faults_->controller_down(sim_.now())) {
    // Controller outage: no planning, no dispatch. Resume at the window's
    // end; the chain keeps running on the last plans the APs received.
    ++outage_skips_;
    faults_->note_controller_outage_skip();
    plan_timer_ = sim_.schedule_at(faults_->controller_up_at(sim_.now()),
                                   [this] { plan_batch(); });
    return;
  }
  ++batches_;

  // Every AP polls in every batch.
  const std::vector<topo::NodeId> rop_aps = topo_.aps();

  std::vector<std::size_t> demand = demand_vector();
  std::vector<std::vector<topo::LinkId>> strict =
      rand_.schedule_batch(demand, params_.batch_slots);
  // Pad with empty slots so the batch (and thus the trigger chain / polling
  // cadence) keeps a steady length even with no demand; fake-link insertion
  // fills these with maximal covers.
  while (strict.size() < params_.batch_slots) strict.emplace_back();

  // Optimistically decrement estimates by what got scheduled.
  for (const auto& slot : strict) {
    for (topo::LinkId id : slot) {
      const topo::Link& l = graph_.link(id);
      auto it = estimates_.find({l.sender, l.receiver});
      if (it != estimates_.end() && it->second > 0) --it->second;
    }
  }

  std::vector<std::uint32_t> rop_symbols;
  std::map<topo::NodeId, rop::PollRound> rounds =
      plan_poll_rounds(rop_aps, rop_symbols);

  RelativeSchedule rs =
      converter_.convert(strict, prev_last_, rop_aps, batches_,
                         next_global_slot_, rop_symbols);
  if (schedule_obs_ != nullptr) {
    schedule_obs_->on_batch_planned(strict, rs, prev_last_, rop_aps);
  }
  prev_last_ = rs.slots.back().entries;
  newest_first_slot_ = next_global_slot_ + 1;
  next_global_slot_ += rs.slots.size() - 1;  // overlap slot is shared

  pending_polls_.clear();
  for (const RelSlot& s : rs.slots) {
    for (topo::NodeId ap : s.rop_aps) pending_polls_.insert(ap);
  }

  if (dispatch_) {
    for (ApSchedule& plan : converter_.make_ap_plans(rs)) {
      if (plan.slots.empty()) continue;
      plan.planned_at = sim_.now();
      // kAdaptive: stamp the planned roster onto every polling row so the
      // AP broadcasts it in its kPoll (static-mode polls carry no roster:
      // clients answer on their slots).
      auto rit = rounds.find(plan.ap);
      if (rit != rounds.end()) {
        std::vector<phy::PollAssignment> roster;
        roster.reserve(rit->second.slots.size());
        for (const rop::PollSlot& s : rit->second.slots) {
          roster.push_back(
              {s.client, static_cast<std::uint32_t>(s.subchannel),
               static_cast<std::uint32_t>(s.symbol)});
        }
        for (ApSlotPlan& slot : plan.slots) {
          if (slot.polls_in_rop) slot.poll_roster = roster;
        }
      }
      // Routed to the AP's partition queue; the dispatch closure only
      // touches that AP's MAC (the controller-side state stays here). The
      // plan moves into the closure, and the closure into its event.
      const topo::NodeId ap = plan.ap;
      backbone_.send_to_node(
          ap, [this, plan = std::move(plan)] { dispatch_(plan); });
    }
  }

  // Plan the next batch once all polls report, or — when reports are lost
  // or this batch has no polls — when the batch's expected airtime elapses.
  // The fallback must not exceed the batch airtime: a late plan means the
  // overlap slot executes before its follow-up triggers arrive.
  TimeNs rop_airtime = 0;
  for (const RelSlot& s : rs.slots) {
    if (!s.rop_after) continue;
    // Each extra poll symbol beyond the first stretches the boundary by
    // rop_symbol_step_.
    rop_airtime += rop_duration_ +
                   static_cast<TimeNs>(std::max<std::uint32_t>(
                       s.rop_symbols, 1) - 1) * rop_symbol_step_;
  }
  const TimeNs batch_airtime =
      static_cast<TimeNs>(params_.batch_slots) * slot_duration_ +
      rop_airtime;
  plan_timer_ = sim_.schedule_in(batch_airtime, [this] { plan_batch(); });
}

void DominoController::on_topology_changed() {
  // LinkIds are indices into the (rebuilt) link set. prev_last_ must go —
  // relative anchoring against a link that no longer exists would chain the
  // next batch to a ghost slot — and the scheduler's fairness queue holds
  // LinkIds as well. The estimates are keyed by endpoints and stay valid.
  prev_last_.clear();
  rand_.on_graph_changed();
}

void DominoController::on_ap_report(const ApReport& report) {
  if (faults_ != nullptr && faults_->controller_down(sim_.now())) {
    return;  // the silent controller loses reports addressed to it
  }
  for (const ClientQueueReport& c : report.clients) {
    estimates_[{c.client, report.ap}] = c.reported;
    // Planner history for adaptive polling: a backlogged client is polled
    // every round until a later report shows it drained.
    client_backlog_[c.client] = c.reported;
  }
  for (const ClientQueueReport& c : report.downlink) {
    estimates_[{report.ap, c.client}] = c.reported;
  }
  // A poll of an older batch says nothing about the newest batch's polls;
  // letting it release the plan would plan early again and again.
  if (report.poll_slot >= newest_first_slot_ &&
      pending_polls_.erase(report.ap) > 0 && pending_polls_.empty()) {
    // All polls in: plan the next batch now (pipelined with execution).
    plan_batch();
  }
}

}  // namespace dmn::domino
