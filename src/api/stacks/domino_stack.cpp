#include "api/stacks/domino_stack.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "api/experiment.h"
#include "api/metrics.h"
#include "audit/audit.h"
#include "fault/fault_injector.h"
#include "rop/poll_planner.h"
#include "rop/rop_protocol.h"
#include "sim/simulator.h"

namespace dmn::api {

void DominoStack::build(StackContext& ctx,
                        std::vector<mac::MacEntity*>& macs) {
  const topo::Topology& topo = ctx.topo;
  const ExperimentConfig& cfg = ctx.cfg;

  signatures_ = std::make_unique<domino::SignaturePlan>(topo.num_nodes());
  backbone_ = std::make_unique<wired::Backbone>(ctx.sim, cfg.backbone,
                                                ctx.rng.fork());
  if (ctx.faults != nullptr) {
    backbone_->set_fault_hook(
        [f = ctx.faults] { return f->backbone_delivery(); });
  }

  domino::DominoTiming timing;
  timing.wifi = cfg.wifi;
  timing.payload_bytes = cfg.traffic.packet_bytes;

  domino::DominoParams domino_params = cfg.domino;
  domino_params.payload_bytes = cfg.traffic.packet_bytes;
  controller_ = std::make_unique<domino::DominoController>(
      ctx.sim, *backbone_, topo, ctx.graph(), *signatures_, domino_params,
      cfg.converter, timing.slot_duration(), timing.rop_duration(), cfg.rop,
      timing.rop_symbol);
  if (ctx.faults != nullptr) controller_->set_fault_injector(ctx.faults);
  if (ctx.audit != nullptr) controller_->set_schedule_observer(ctx.audit);
  const audit::Mutation mutation = cfg.audit.mutation;
  if (mutation == audit::Mutation::kConverterExtraTrigger) {
    controller_->converter().set_test_defect(
        domino::ScheduleConverter::TestDefect::kExtraTrigger);
  } else if (mutation == audit::Mutation::kConverterConflictingEntry) {
    controller_->converter().set_test_defect(
        domino::ScheduleConverter::TestDefect::kConflictingEntry);
  } else if (mutation == audit::Mutation::kRopAirtimeOverBudget) {
    controller_->set_test_poll_defect(
        domino::DominoController::PollDefect::kOverwideRounds);
  } else if (mutation == audit::Mutation::kRopStarvedClient) {
    controller_->set_test_poll_defect(
        domino::DominoController::PollDefect::kStarveClient);
  }

  // APs, each with its static poll slot table.
  topo_ = &topo;
  const rop::PollPlanner planner(cfg.rop);
  std::map<topo::NodeId, rop::PollSlot> slot_of;
  for (topo::NodeId ap : topo.aps()) {
    const std::vector<topo::NodeId> clients = topo.clients_of(ap);
    // Each client needs a slot of its own: two clients on one (symbol,
    // subchannel) would answer the same poll and collide silently.
    if (clients.size() > cfg.rop.client_capacity()) {
      const std::string subs = std::to_string(cfg.rop.num_subchannels);
      throw std::invalid_argument(
          "DOMINO: AP " + std::to_string(ap) + " serves " +
          std::to_string(clients.size()) + " clients but " +
          (cfg.rop.symbol_cap() == 1
               ? "ROP polls at most " + subs + " subchannels per symbol"
               : std::to_string(cfg.rop.symbol_cap()) + " poll symbols x " +
                     subs + " subchannels cap a BSS at " +
                     std::to_string(cfg.rop.client_capacity()) + " clients") +
          "; split the BSS or poll across more symbols "
          "(rop.poll_mode, rop.max_poll_symbols)");
    }
    // Reports ride the backbone to the controller's (wired) queue.
    auto report_fn = [this](const domino::ApReport& rep) {
      backbone_->send_to_wired([this, rep] { controller_->on_ap_report(rep); });
    };
    // Build on the AP's partition queue so outage events and any
    // construction-time self-scheduling land with the AP.
    sim::Simulator::Scope scope(
        ctx.sim, ctx.sim.queue_of_node(static_cast<std::size_t>(ap)));
    auto node = std::make_unique<domino::DominoApMac>(
        ctx.sim, ctx.medium_of(ap), ap, timing, *signatures_, cfg.sig_model,
        cfg.rop, ctx.rng.fork(), ctx.deliver, report_fn, ctx.trace);
    // Every mode seeds the AP's slot table from the static plan; kAdaptive
    // clients use their slot only for a kPoll that carries no roster.
    std::vector<rop::PollClient> pcs;
    for (topo::NodeId c : clients) pcs.push_back({c, topo.rss(c, ap)});
    rop::SlotTable& table = slots_.try_emplace(ap, cfg.rop).first->second;
    for (const rop::PollSlot& s : planner.plan_static(pcs).slots) {
      slot_of[s.client] = *table.take(s.client, s);
      node->register_client({s.client, topo.rss(ap, s.client)});
    }
    controller_->set_poll_symbols(ap, table.symbols());
    if (ctx.faults != nullptr) {
      node->set_faults(ctx.faults);
      node->set_clock_skew_ppm(ctx.faults->clock_skew_ppm(ap));
      // Scripted power outages: one down/up event pair per window.
      for (const fault::ApOutage& o : ctx.faults->plan().ap_outages) {
        if (o.ap != ap || o.window.duration <= 0) continue;
        domino::DominoApMac* raw = node.get();
        ctx.sim.post_at(o.window.start,
                            [raw] { raw->set_powered(false); });
        ctx.sim.post_at(o.window.end(),
                            [raw] { raw->set_powered(true); });
      }
    }
    macs[static_cast<std::size_t>(ap)] = node.get();
    ap_map_[ap] = node.get();
    aps_.push_back(std::move(node));
  }
  for (topo::NodeId c : topo.all_clients()) {
    // A client its AP never assigned a slot would silently collide on
    // slot 0; fail loudly instead so topology bugs surface.
    const auto sc = slot_of.find(c);
    if (sc == slot_of.end()) {
      throw std::runtime_error(
          "DOMINO: client " + std::to_string(c) + " (AP " +
          std::to_string(topo.node(c).ap) +
          ") received no ROP slot assignment");
    }
    sim::Simulator::Scope scope(
        ctx.sim, ctx.sim.queue_of_node(static_cast<std::size_t>(c)));
    auto node = std::make_unique<domino::DominoClientMac>(
        ctx.sim, ctx.medium_of(c), c, topo.node(c).ap, sc->second, timing,
        *signatures_, cfg.sig_model, ctx.rng.fork(), ctx.deliver, ctx.trace);
    if (ctx.faults != nullptr) {
      node->set_faults(ctx.faults);
      node->set_clock_skew_ppm(ctx.faults->clock_skew_ppm(c));
    }
    if (mutation == audit::Mutation::kMacTriggerWithoutSignature) {
      node->set_test_trigger_on_any_burst(true);
    } else if (mutation == audit::Mutation::kMacDoubleDelivery) {
      node->set_test_double_delivery(true);
    } else if (mutation == audit::Mutation::kRopReportOffset) {
      node->set_test_rop_report_offset(true);
    } else if (mutation == audit::Mutation::kRopCrossSymbolCollision) {
      node->set_test_poll_symbol_collapse(true);
    }
    macs[static_cast<std::size_t>(c)] = node.get();
    client_map_[c] = node.get();
    clients_.push_back(std::move(node));
  }

  controller_->set_dispatch([this](const domino::ApSchedule& plan) {
    const auto it = ap_map_.find(plan.ap);
    if (it != ap_map_.end()) it->second->receive_plan(plan);
  });
  // The controller lives on the wired queue and learns queue state only
  // from AP reports, which reach it over the backbone.
  sim::Simulator::Scope scope(ctx.sim, ctx.sim.wired_queue_index());
  controller_->start(usec(100));
}

bool DominoStack::on_client_attach(topo::NodeId client, topo::NodeId to) {
  domino::DominoClientMac* c = client_map_.at(client);
  domino::DominoApMac* new_ap = ap_map_.at(to);
  // Called before the topology records the new association.
  const topo::NodeId old = topo_->node(client).ap;

  // Admission control: the client needs a free poll slot at `to`. A rejoin
  // at the same AP keeps its old slot unless another client took it
  // meanwhile.
  rop::SlotTable& table = slots_.at(to);
  const std::optional<rop::PollSlot> slot =
      table.take(client, old == to ? std::optional(c->slot()) : std::nullopt);
  if (!slot) return false;  // every poll slot taken — rejected
  controller_->set_poll_symbols(to, table.symbols());
  c->reassociate(to, *slot);

  if (old == to) {
    // Rejoin at the same AP after a leave: the association stands, and the
    // retained dedup state keeps a lost-ACK retransmit from being
    // delivered twice.
    new_ap->register_client({client, topo_->rss(to, client)});
    return true;
  }

  std::vector<traffic::Packet> handoff;
  domino::BoundedIdFilter carried_dedup;
  if (const auto it = ap_map_.find(old); it != ap_map_.end()) {
    handoff = it->second->extract_queued_for(client);
    // The uplink dedup filter follows the client: the old AP may already
    // have delivered a packet whose ACK the client missed, and the client
    // will retransmit it through the new AP.
    carried_dedup = it->second->take_uplink_seen(client);
    it->second->unregister_client(client);
    release_slot(client, old);
  }
  new_ap->register_client({client, topo_->rss(to, client)});
  new_ap->adopt_uplink_seen(client, std::move(carried_dedup));
  for (traffic::Packet& p : handoff) {
    p.src = to;  // downlink source is now the new AP
    new_ap->enqueue(std::move(p));
  }
  controller_->on_topology_changed();
  return true;
}

void DominoStack::on_client_detach(topo::NodeId client) {
  const topo::NodeId old = topo_->node(client).ap;
  if (const auto it = ap_map_.find(old); it != ap_map_.end()) {
    (void)it->second->extract_queued_for(client);
    it->second->unregister_client(client);
    release_slot(client, old);
  }
  controller_->on_topology_changed();
}

void DominoStack::release_slot(topo::NodeId client, topo::NodeId ap) {
  rop::SlotTable& table = slots_.at(ap);
  table.release(client);
  controller_->set_poll_symbols(ap, table.symbols());
}

void DominoStack::on_conflict_graph_rebuilt() {
  controller_->on_topology_changed();
}

void DominoStack::collect(ExperimentResult& result) const {
  domino::DominoApMac::PlanAge age;
  for (const auto& n : aps_) {
    age.sum_us += n->plan_age().sum_us;
    age.samples += n->plan_age().samples;
    age.max_us = std::max(age.max_us, n->plan_age().max_us);
    result.ack_timeouts += n->ack_timeouts();
    result.domino_self_starts += n->self_starts();
    result.domino_missed_rows += n->missed_rows();
    result.domino_rows_executed += n->rows_executed();
    result.domino_retry_drops += n->retry_drops();
    result.domino_anchor_rejections += n->anchor_rejections();
    result.domino_forced_trigger_losses += n->forced_trigger_losses();
    const auto& lat = n->recovery_latency_slots();
    result.domino_recovery_latency_slots.insert(
        result.domino_recovery_latency_slots.end(), lat.begin(), lat.end());
    ApChainHealth h;
    h.ap = n->node();
    h.self_starts = n->self_starts();
    h.missed_rows = n->missed_rows();
    h.ack_timeouts = n->ack_timeouts();
    h.retry_drops = n->retry_drops();
    h.anchor_rejections = n->anchor_rejections();
    h.forced_trigger_losses = n->forced_trigger_losses();
    h.recovery_samples = lat.size();
    result.ap_chain_health.push_back(h);
  }
  if (age.samples > 0) {
    result.domino_plan_age_us_mean =
        age.sum_us / static_cast<double>(age.samples);
  }
  result.domino_plan_age_us_max = age.max_us;
  for (const auto& n : clients_) {
    result.ack_timeouts += n->ack_timeouts();
    result.domino_anchor_rejections += n->anchor_rejections();
    result.domino_forced_trigger_losses += n->forced_trigger_losses();
    const auto& lat = n->recovery_latency_slots();
    result.domino_recovery_latency_slots.insert(
        result.domino_recovery_latency_slots.end(), lat.begin(), lat.end());
  }
  if (controller_) {
    result.domino_untriggerable =
        controller_->converter().untriggerable_drops();
    result.domino_batches = controller_->batches_planned();
    result.domino_controller_outage_skips = controller_->outage_skips();
    result.domino_poll_rounds = controller_->poll_rounds();
    result.domino_poll_symbols = controller_->poll_symbols_total();
    result.domino_poll_staleness_rounds =
        controller_->mean_poll_staleness_rounds();
  }
}

}  // namespace dmn::api
