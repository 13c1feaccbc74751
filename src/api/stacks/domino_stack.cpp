#include "api/stacks/domino_stack.h"

#include <map>
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

  // APs with subchannel allocation for their clients.
  topo_ = &topo;
  rop_ = cfg.rop;
  num_subchannels_ = cfg.rop.num_subchannels;
  rop::SubchannelAllocator alloc(cfg.rop);
  rop::PollPlanner planner(cfg.rop);
  std::map<topo::NodeId, std::size_t> subchannel_of;
  for (topo::NodeId ap : topo.aps()) {
    const std::vector<topo::NodeId> clients = topo.clients_of(ap);
    // Legacy mode executes every ROP poll in a single symbol, so each
    // client needs a dedicated subchannel — two clients on the same
    // subchannel would answer the same poll and collide silently. The
    // multi-symbol modes lift the ceiling to subchannels x max_poll_symbols.
    if (clients.size() > cfg.rop.client_capacity()) {
      if (cfg.rop.poll_mode == rop::PollMode::kLegacy) {
        throw std::invalid_argument(
            "DOMINO: AP " + std::to_string(ap) + " serves " +
            std::to_string(clients.size()) +
            " clients but ROP polls at most " +
            std::to_string(cfg.rop.num_subchannels) +
            " subchannels per symbol; split the BSS, raise "
            "rop.num_subchannels, or set rop.poll_mode to multi_symbol");
      }
      throw std::invalid_argument(
          "DOMINO: AP " + std::to_string(ap) + " serves " +
          std::to_string(clients.size()) + " clients but " +
          std::to_string(cfg.rop.max_poll_symbols) + " poll symbols x " +
          std::to_string(cfg.rop.num_subchannels) +
          " subchannels cap a BSS at " +
          std::to_string(cfg.rop.client_capacity()) +
          " clients; split the BSS or raise rop.max_poll_symbols");
    }
    std::vector<double> rss;
    rss.reserve(clients.size());
    for (topo::NodeId c : clients) rss.push_back(topo.rss(ap, c));
    // The static fallback assignment: legacy clients always answer here;
    // multi-symbol clients use it only for a kPoll with no roster. The
    // planner's static partition keeps per-symbol packing identical to the
    // single-symbol allocator for populations that fit one symbol.
    std::vector<rop::SubchannelAllocator::Assignment> assigns;
    if (cfg.rop.poll_mode == rop::PollMode::kLegacy) {
      assigns = alloc.assign(clients, rss);
    } else {
      std::vector<rop::PollClient> pcs;
      pcs.reserve(clients.size());
      for (std::size_t i = 0; i < clients.size(); ++i) {
        pcs.push_back(rop::PollClient{clients[i], rss[i], 0, 0});
      }
      for (const rop::PollSlot& s : planner.plan_static(pcs).slots) {
        assigns.push_back({s.client, s.subchannel, 0});
      }
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
    std::vector<domino::DominoApMac::ClientInfo> infos;
    for (const auto& a : assigns) {
      infos.push_back(domino::DominoApMac::ClientInfo{
          a.client, a.subchannel, topo.rss(ap, a.client)});
      subchannel_of[a.client] = a.subchannel;
    }
    node->set_clients(std::move(infos));
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
    // A client its AP never assigned a subchannel would silently collide on
    // subchannel 0; fail loudly instead so topology bugs surface.
    const auto sc = subchannel_of.find(c);
    if (sc == subchannel_of.end()) {
      throw std::runtime_error(
          "DOMINO: client " + std::to_string(c) + " (AP " +
          std::to_string(topo.node(c).ap) +
          ") received no ROP subchannel assignment");
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
  controller_->set_downlink_peek([this](const topo::Link& l) {
    const auto it = ap_map_.find(l.sender);
    return it == ap_map_.end() ? std::size_t{0}
                              : it->second->queued_for(l.receiver);
  });
  // The controller lives on the wired queue; under the partitioned kernel
  // it runs at window barriers, where its synchronous downlink peeks of AP
  // MAC queues are race-free (at most one lookahead stale).
  sim::Simulator::Scope scope(ctx.sim, ctx.sim.wired_queue_index());
  controller_->start(usec(100));
}

bool DominoStack::on_client_attach(topo::NodeId client, topo::NodeId to) {
  domino::DominoClientMac* c = client_map_.at(client);
  domino::DominoApMac* new_ap = ap_map_.at(to);
  // Called before the topology records the new association.
  const topo::NodeId old = topo_->node(client).ap;

  if (old == to) {
    // Rejoin at the same AP after a leave: the association stands, and the
    // retained dedup state keeps a lost-ACK retransmit from being
    // delivered twice.
    new_ap->register_client(domino::DominoApMac::ClientInfo{
        client, c->subchannel(), topo_->rss(to, client)});
    return true;
  }

  // Admission control. Legacy: the AP polls all clients in one ROP symbol,
  // so a roam-in needs a dedicated free subchannel. Multi-symbol modes: the
  // ceiling is subchannels x max_poll_symbols and the controller re-plans
  // rosters every round, so the roam-in only needs headroom under the
  // capacity; its fallback subchannel is the least-loaded one.
  std::size_t subch = 0;
  if (rop_.poll_mode == rop::PollMode::kLegacy) {
    std::vector<bool> used(num_subchannels_, false);
    for (const auto& info : new_ap->clients()) {
      if (info.subchannel < used.size()) used[info.subchannel] = true;
    }
    subch = used.size();
    for (std::size_t s = 0; s < used.size(); ++s) {
      if (!used[s]) {
        subch = s;
        break;
      }
    }
    if (subch == used.size()) return false;  // poll symbol full — rejected
  } else {
    if (new_ap->clients().size() >= rop_.client_capacity()) {
      return false;  // every poll symbol full — rejected
    }
    std::vector<std::size_t> load(num_subchannels_, 0);
    for (const auto& info : new_ap->clients()) {
      if (info.subchannel < load.size()) ++load[info.subchannel];
    }
    for (std::size_t s = 1; s < load.size(); ++s) {
      if (load[s] < load[subch]) subch = s;
    }
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
  }
  new_ap->register_client(
      domino::DominoApMac::ClientInfo{client, subch, topo_->rss(to, client)});
  new_ap->adopt_uplink_seen(client, std::move(carried_dedup));
  c->reassociate(to, subch);
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
  }
  controller_->on_topology_changed();
}

void DominoStack::on_conflict_graph_rebuilt() {
  controller_->on_topology_changed();
}

void DominoStack::collect(ExperimentResult& result) const {
  for (const auto& n : aps_) {
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
