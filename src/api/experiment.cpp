#include "api/experiment.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "api/lifecycle.h"
#include "api/scheme_stack.h"
#include "fault/fault_injector.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "topo/partition.h"
#include "traffic/flow_stats.h"
#include "traffic/tcp_reno.h"

namespace dmn::api {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kDcf: return "DCF";
    case Scheme::kCentaur: return "CENTAUR";
    case Scheme::kDomino: return "DOMINO";
    case Scheme::kOmniscient: return "Omniscient";
  }
  return "?";
}

namespace {

/// Whether `cfg` over `topology` runs partitioned: a pure performance
/// choice, since results are the same bytes on one queue and on K.
bool runs_partitioned(const topo::Topology& topology,
                      const ExperimentConfig& cfg) {
  // Dynamic runs keep one queue: a topology change could couple two
  // partitions (phy::Medium::on_topology_changed throws), and a mid-window
  // RSS change would violate the lookahead contract. The omniscient oracle
  // drives every node synchronously from one global TDMA clock, and
  // CENTAUR's controller reads AP queue backlogs synchronously
  // (CentaurController::plan_batch), which no partition boundary can split.
  // One component gains nothing.
  return resolve_sim_threads(cfg) > 0 && !cfg.dynamics.any() &&
         cfg.scheme != Scheme::kOmniscient &&
         cfg.scheme != Scheme::kCentaur && topology.component_count() >= 2;
}

}  // namespace

// The facade owns the scheme-independent substrate — simulator, mediums,
// traffic (CBR arrival processes attached to the MAC queues, TCP endpoints),
// flow statistics — and delegates scheme assembly to
// the SchemeStack make_stack() picks for cfg.scheme (see api/scheme_stack.h).
//
// Per-queue state (mediums, packet-id lanes, auditors, timeline recorders)
// is held one entry per event queue and looked up through the simulator's
// queue_of_node() / wired_queue_index(); an unpartitioned run is the
// one-queue case. Only the kernel choice in run() decides how many queues
// there are.
struct Experiment::Impl {
  ExperimentConfig cfg;
  /// Dynamic runs own a mutable copy of the caller's topology — the
  /// lifecycle driver is its only writer. Null (and never copied: the
  /// 1000-AP scale topology carries an O(N^2) RSS matrix) on static runs.
  std::unique_ptr<topo::Topology> owned_topo;
  /// The topology every subsystem reads: the owned copy on dynamic runs,
  /// otherwise borrowed from the caller (run_experiment's argument outlives
  /// run()).
  const topo::Topology& topo;
  Rng root;

  sim::Simulator sim;

  /// One Medium per node queue: a single unrestricted medium on one queue,
  /// otherwise one medium restricted to each partition's coupling
  /// components.
  std::vector<std::unique_ptr<phy::Medium>> mediums;

  /// Packet-id lanes, one per node queue with disjoint bases (q << 44); lane
  /// 0 yields ids 1, 2, 3, ... Never resized after build_traffic — arrival
  /// processes and TCP endpoints hold references into it.
  std::vector<traffic::PacketIdGen> id_gens;
  traffic::FlowStats stats;

  struct FlowCtx {
    traffic::Flow flow;
    bool uplink = false;
    double rate_bps = 0.0;
    bool saturate = false;
    /// Node whose MAC queue holds the flow's CBR arrivals (kNoNode for TCP
    /// and disabled flows). A roam moves a downlink flow to the new AP.
    topo::NodeId holder = topo::kNoNode;

    topo::NodeId client() const { return uplink ? flow.src : flow.dst; }
  };
  std::vector<FlowCtx> flows;

  // One MAC entity per node (indexed by NodeId), owned by the stack.
  std::vector<mac::MacEntity*> macs;
  std::unique_ptr<SchemeStack> stack;

  /// The shared conflict graph: null until a consumer (the DOMINO or
  /// Omniscient stack, the auditors) asks for it through shared_graph().
  std::unique_ptr<topo::ConflictGraph> graph;
  std::uint64_t graph_builds = 0;
  /// Set when the event loop starts: from then on the graph may only be
  /// rebuilt (the lifecycle hook of a dynamic, hence one-queue, run), never
  /// built for the first time, so no partition worker ever runs the build.
  bool loop_started = false;

  std::map<traffic::FlowId, std::unique_ptr<traffic::TcpSender>> tcp_senders;
  std::map<traffic::FlowId, std::unique_ptr<traffic::TcpReceiver>>
      tcp_receivers;

  // Built only when cfg.record_timeline. One per event queue, like the
  // auditors: each is written only by its own queue, and collect merges
  // them into the result's one timeline.
  std::vector<TimelineRecorder> timelines;
  domino::DominoTrace trace;

  // Built only when auditing resolves on (cfg.audit / DMN_AUDIT). The
  // auditors are strictly passive — no RNG draws, no scheduled events — so
  // their presence cannot perturb results. One per event queue, so every
  // check runs race-free on its own queue (reports merged at the end via
  // audit::merge_reports).
  std::vector<std::unique_ptr<audit::SimAuditor>> auditors;

  // Built only when cfg.faults has an active knob: the fault-free path
  // consumes no extra RNG fork and schedules no extra events, keeping its
  // results byte-identical to builds without the fault subsystem.
  std::unique_ptr<fault::FaultInjector> injector;

  // Built only when cfg.dynamics has an active knob; same byte-identity
  // discipline as the injector (no RNG fork, no events otherwise).
  std::unique_ptr<LifecycleDriver> lifecycle;

  // Run guard (sweep watchdogs): armed before run() via set_run_guard.
  const std::atomic<bool>* cancel = nullptr;
  std::uint64_t max_events = 0;

  Impl(const topo::Topology& t, ExperimentConfig c)
      : cfg(std::move(c)),
        owned_topo(cfg.dynamics.any() ? std::make_unique<topo::Topology>(t)
                                      : nullptr),
        topo(owned_topo ? *owned_topo : t),
        root(cfg.seed),
        sim() {}

  std::uint32_t queue_of(topo::NodeId node) const {
    return sim.queue_of_node(static_cast<std::size_t>(node));
  }
  /// The medium carrying `node`'s airtime.
  phy::Medium& medium_of(topo::NodeId node) {
    return *mediums[queue_of(node)];
  }
  /// The auditor owning `node`'s queue (null when auditing is off).
  audit::SimAuditor* auditor_of(topo::NodeId node) {
    return auditors.empty() ? nullptr : auditors[queue_of(node)].get();
  }
  /// The timeline recorder owning `node`'s queue (null when not recording).
  TimelineRecorder* timeline_of(topo::NodeId node) {
    return timelines.empty() ? nullptr : &timelines[queue_of(node)];
  }
  /// The auditor owning the wired/controller queue (null when auditing is
  /// off).
  audit::SimAuditor* wired_auditor() {
    return auditors.empty() ? nullptr
                            : auditors[sim.wired_queue_index()].get();
  }
  /// The packet-id lane for packets generated at `node`.
  traffic::PacketIdGen& ids_for(topo::NodeId node) {
    return id_gens[queue_of(node)];
  }

  bool tcp() const { return cfg.traffic.kind == TrafficKind::kTcp; }
  bool want_downlink() const {
    if (!cfg.traffic.custom.empty()) {
      for (const FlowSpec& f : cfg.traffic.custom) {
        if (topo.node(f.src).is_ap) return true;
      }
      return false;
    }
    return cfg.traffic.saturate_downlink || cfg.traffic.downlink_bps > 0.0;
  }
  bool want_uplink() const {
    if (!cfg.traffic.custom.empty()) {
      for (const FlowSpec& f : cfg.traffic.custom) {
        if (!topo.node(f.src).is_ap) return true;
      }
      return false;
    }
    return cfg.traffic.saturate_uplink || cfg.traffic.uplink_bps > 0.0;
  }
  /// Directions the scheduled schemes must cover. TCP needs both (ACKs
  /// travel the reverse path as regular data packets).
  bool graph_downlink() const { return want_downlink() || tcp(); }
  bool graph_uplink() const { return want_uplink() || tcp(); }
  std::vector<topo::Link> graph_links() const {
    return topo.make_links(graph_downlink(), graph_uplink());
  }

  const topo::ConflictGraph& shared_graph() {
    if (!graph) {
      if (loop_started) {
        throw std::logic_error(
            "conflict graph first requested after setup; consumers must "
            "ask for it while the experiment is assembled");
      }
      graph = std::make_unique<topo::ConflictGraph>(
          topo::ConflictGraph::build(topo, graph_links()));
      ++graph_builds;
    }
    return *graph;
  }

  void deliver(const traffic::Packet& p, topo::NodeId at, TimeNs now) {
    if (at != p.dst) return;
    // TCP ACKs are reverse-path control enqueued outside the offered-packet
    // hook; the conservation ledger tracks generated data packets only.
    audit::SimAuditor* aud = auditor_of(at);
    if (aud && !p.tcp_is_ack) aud->on_delivered(p, at, now);
    if (tcp()) {
      if (p.tcp_is_ack) {
        const auto it = tcp_senders.find(p.flow);
        if (it != tcp_senders.end()) it->second->on_ack(p);
      } else {
        const auto it = tcp_receivers.find(p.flow);
        if (it != tcp_receivers.end()) it->second->on_data(p, now);
      }
    } else {
      stats.record_delivery(p, now);
    }
  }

  mac::DeliveryFn delivery_fn() {
    return [this](const traffic::Packet& p, topo::NodeId at, TimeNs now) {
      deliver(p, at, now);
    };
  }

  void build_flows() {
    int next_id = 0;
    if (!cfg.traffic.custom.empty()) {
      for (const FlowSpec& f : cfg.traffic.custom) {
        const bool uplink = !topo.node(f.src).is_ap;
        flows.push_back(FlowCtx{traffic::Flow{next_id++, f.src, f.dst},
                                uplink, f.rate_bps, f.saturate});
      }
      return;
    }
    for (topo::NodeId c : topo.all_clients()) {
      const topo::NodeId ap = topo.node(c).ap;
      if (want_downlink()) {
        flows.push_back(FlowCtx{traffic::Flow{next_id++, ap, c}, false,
                                cfg.traffic.downlink_bps,
                                cfg.traffic.saturate_downlink});
      }
      if (want_uplink()) {
        flows.push_back(FlowCtx{traffic::Flow{next_id++, c, ap}, true,
                                cfg.traffic.uplink_bps,
                                cfg.traffic.saturate_uplink});
      }
    }
  }

  void build_traffic() {
    for (FlowCtx& fc : flows) {
      // Everything a flow offers belongs to its source node's queue: its
      // auditor and packet-id lane are resolved once, by source node, and
      // the Scopes below pin construction-time scheduling there.
      audit::SimAuditor* aud = auditor_of(fc.flow.src);
      if (tcp()) {
        mac::MacEntity* src_mac = macs[static_cast<std::size_t>(fc.flow.src)];
        auto enqueue = [src_mac, aud](traffic::Packet p) {
          if (!aud) return src_mac->enqueue(std::move(p));
          aud->on_offered(p);
          const traffic::PacketId id = p.id;
          const traffic::FlowId flow = p.flow;
          const bool accepted = src_mac->enqueue(std::move(p));
          if (!accepted) aud->on_offer_rejected(id, flow);
          return accepted;
        };
        const traffic::TcpParams tp{
            .app_rate_bps = fc.saturate ? 0.0 : fc.rate_bps,
            .mss_bytes = cfg.traffic.packet_bytes};
        // Pre-register the accounting slot so concurrent record_* calls
        // from partition queues never mutate the map structure.
        stats.ensure_flow(fc.flow.id);
        sim::Simulator::Scope scope(sim, queue_of(fc.flow.src));
        auto sender = std::make_unique<traffic::TcpSender>(
            sim, fc.flow, tp, ids_for(fc.flow.src), enqueue);
        mac::MacEntity* dst_mac =
            macs[static_cast<std::size_t>(fc.flow.dst)];
        auto send_ack = [this, dst_mac](traffic::Packet p) {
          return dst_mac->enqueue(std::move(p));
        };
        auto receiver = std::make_unique<traffic::TcpReceiver>(
            fc.flow, tp, ids_for(fc.flow.src), send_ack,
            [this](const traffic::Packet& p) {
              stats.record_delivery(p, sim.now());
            });
        sender->start(usec(root.uniform(500, 1500)));
        tcp_senders[fc.flow.id] = std::move(sender);
        tcp_receivers[fc.flow.id] = std::move(receiver);
      } else {
        // Saturated flows offer ~3x the PHY rate so the queue never runs
        // dry; arrivals past a full queue cost a counter, not an event.
        const double rate =
            fc.saturate ? 3.0 * cfg.wifi.data_rate_bps : fc.rate_bps;
        if (rate <= 0.0) continue;
        stats.ensure_flow(fc.flow.id);
        traffic::CbrArrivals a;
        a.flow = fc.flow;
        a.bytes = cfg.traffic.packet_bytes;
        a.interval = traffic::cbr_interval(rate, a.bytes);
        a.next = usec(root.uniform(0, 1000));
        a.ids = &ids_for(fc.flow.src);
        a.observer = aud;
        fc.holder = fc.flow.src;
        if (lifecycle) fc.holder = follow_client_state(a, fc);
        sim::Simulator::Scope scope(sim, queue_of(fc.holder));
        macs[static_cast<std::size_t>(fc.holder)]->add_arrivals(a);
      }
    }
  }

  /// Points a CBR flow's arrival process at its client's lifecycle state:
  /// an absent client offers nothing, and the AP endpoint follows the
  /// association, so a roam moves a downlink flow to the new AP's queue and
  /// retargets an uplink flow. Returns the node whose queue must hold it.
  topo::NodeId follow_client_state(traffic::CbrArrivals& a,
                                   const FlowCtx& fc) const {
    const topo::NodeId client = fc.client();
    a.active = topo.node_active(client);
    if (!a.active) return fc.holder;  // parked until the client is back
    const topo::NodeId ap = topo.node(client).ap;
    if (fc.uplink) {
      a.flow.dst = ap;
      return fc.holder;
    }
    a.flow.src = ap;
    return ap;
  }

  /// Lifecycle hook, after a client's join, leave or roam took effect:
  /// its flows' arrivals up to now settle under the old state (each flow
  /// keeps its own copy of it), the rest follow the new one.
  void follow_client(topo::NodeId client) {
    for (FlowCtx& fc : flows) {
      if (fc.holder == topo::kNoNode || fc.client() != client) continue;
      traffic::CbrArrivals a =
          *macs[static_cast<std::size_t>(fc.holder)]->queue().take_arrivals(
              fc.flow.id);
      fc.holder = follow_client_state(a, fc);
      macs[static_cast<std::size_t>(fc.holder)]->add_arrivals(a);
    }
  }

  void build_stack() {
    if (cfg.record_timeline) timelines.resize(sim.queue_count());
    // The trace fans out to the timeline recorders and/or the auditors;
    // hooks stay unset (and cost nothing) when neither consumer wants them.
    // Trace callbacks fire on the emitting node's queue, so each is routed
    // to that queue's recorder and auditor.
    const bool recorded = !timelines.empty();
    const bool audited = !auditors.empty();
    if (recorded || audited) {
      trace.on_data_tx = [this](std::uint64_t slot, topo::NodeId s,
                                topo::NodeId r, TimeNs t, bool fake,
                                bool uplink) {
        if (TimelineRecorder* tl = timeline_of(s)) {
          tl->record_tx(slot, s, r, t, fake, uplink);
        }
        if (audit::SimAuditor* a = auditor_of(s)) {
          a->on_data_tx(slot, s, r, t, fake, uplink);
        }
      };
      trace.on_poll = [this](std::uint64_t slot, topo::NodeId ap, TimeNs t) {
        if (TimelineRecorder* tl = timeline_of(ap)) {
          tl->record_poll(slot, ap, t);
        }
        if (audit::SimAuditor* a = auditor_of(ap)) a->on_poll(slot, ap, t);
      };
    }
    if (audited) {
      trace.on_trigger = [this](std::uint64_t tag, topo::NodeId n, TimeNs t) {
        auditor_of(n)->on_trigger(tag, n, t);
      };
      trace.on_continuation = [this](std::uint64_t slot, topo::NodeId n,
                                     TimeNs t) {
        auditor_of(n)->on_continuation(slot, n, t);
      };
    }

    // The stack object itself is created early in run(), so an
    // out-of-range scheme fails before the mediums are built; here we
    // assemble it.
    StackContext ctx{sim,
                     [this](topo::NodeId n) -> phy::Medium& {
                       return medium_of(n);
                     },
                     topo,
                     cfg,
                     [this]() -> const topo::ConflictGraph& {
                       return shared_graph();
                     },
                     root,
                     delivery_fn(),
                     (recorded || audited) ? &trace : nullptr,
                     injector.get(),
                     wired_auditor()};
    macs.assign(topo.num_nodes(), nullptr);
    stack->build(ctx, macs);
    for (auto& a : auditors) a->attach_macs(macs);
  }

  ExperimentResult run() {
    const auto wall_start = std::chrono::steady_clock::now();
    fault::validate(cfg.faults);
    if (cfg.dynamics.any()) {
      cfg.dynamics.validate(topo);
      if (tcp()) {
        throw std::invalid_argument(
            "dynamics: TCP traffic is not supported under a dynamic "
            "topology (TCP flows have fixed endpoints)");
      }
      // prepare() runs before make_links / graph construction so the
      // initial link set and conflict graph already exclude
      // initially-absent clients and use floor-plan RSS for dynamic pairs.
      lifecycle = std::make_unique<LifecycleDriver>(
          sim, *owned_topo, cfg.dynamics, root.fork());
      lifecycle->prepare(cfg.duration);
    }
    build_flows();

    stack = make_stack(cfg.scheme);
    // The omniscient oracle precomputes its TDMA frame from the initial
    // conflict graph and has no re-registration path, so dynamic topologies
    // are rejected up front rather than silently mis-scheduled.
    if (lifecycle && cfg.scheme == Scheme::kOmniscient) {
      throw std::invalid_argument(
          std::string(to_string(cfg.scheme)) +
          ": scheme does not support dynamic topologies "
          "(its TDMA frame is precomputed from the initial conflict graph)");
    }

    // Partitioned kernel: one event queue and one restricted medium per
    // coupling component (see runs_partitioned).
    if (runs_partitioned(topo, cfg)) {
      const topo::Partitioning parts = topo::compute_partitions(topo);
      // The window width follows from the cross-queue channels the stack
      // declares: DOMINO's backbone sets it to min_latency; a stack with no
      // backbone runs each run_until() as one window.
      sim.configure_partitions(parts.assignment, parts.count,
                               resolve_sim_threads(cfg));
      for (std::uint32_t q = 0; q < parts.count; ++q) {
        auto m = std::make_unique<phy::Medium>(sim, topo);
        m->restrict_to_nodes(parts.members_of(q));
        mediums.push_back(std::move(m));
      }
    }
    if (mediums.empty()) {
      mediums.push_back(std::make_unique<phy::Medium>(sim, topo));
    }

    // Packet-id lanes (sources hold references; sized once, never resized).
    id_gens.reserve(mediums.size());
    for (std::size_t q = 0; q < mediums.size(); ++q) {
      id_gens.emplace_back(static_cast<traffic::PacketId>(q) << 44);
    }

    // The injector sizes its per-queue counter lanes in its constructor, so
    // it must be built after configure_partitions.
    if (cfg.faults.any()) {
      injector = std::make_unique<fault::FaultInjector>(
          sim, topo.num_nodes(), cfg.faults, root.fork());
    }

    const audit::AuditMode audit_mode = audit::resolve_mode(cfg.audit);
    if (audit_mode != audit::AuditMode::kOff) {
      audit::AuditSettings as;
      as.converter = cfg.converter;
      as.rop_max_report = static_cast<unsigned>(cfg.rop.max_queue_report());
      as.signature_forging = cfg.faults.signature.false_positive_rate > 0.0;
      as.poll_symbol_budget = static_cast<unsigned>(cfg.rop.symbol_cap());
      if (cfg.rop.poll_mode == rop::PollMode::kAdaptive) {
        // Rosters reassign subchannels and defer idle clients up to
        // adaptive_max_interval rounds, plus one round of planning/air
        // skew. Under dynamics, rosters planned before a join air after
        // it: the airtime timer plans at nominal pitch, the chain runs
        // slower, and plans get up to 8 batches ahead (4x2 floor plans,
        // seeds 1-20, churn 3 Hz: +3 rounds failed 2 runs, +4 none).
        as.adaptive_polling = true;
        as.starvation_rounds =
            static_cast<unsigned>(cfg.rop.adaptive_max_interval + 1) +
            (cfg.dynamics.any() ? 4u : 0u);
      }
      // One auditor per event queue, each watching its queue's medium (a
      // wired queue of its own has none).
      auditors.reserve(sim.queue_count());
      for (std::uint32_t q = 0; q < sim.queue_count(); ++q) {
        auditors.push_back(
            std::make_unique<audit::SimAuditor>(sim, topo, audit_mode, as));
        auditors.back()->attach_graph(shared_graph());
        if (q < mediums.size()) auditors.back()->attach_medium(*mediums[q]);
      }
    }
    for (auto& m : mediums) m->set_mutation(cfg.audit.mutation);
    if (lifecycle) lifecycle->set_mutation(cfg.audit.mutation);

    build_stack();
    build_traffic();
    if (lifecycle) {
      LifecycleDriver::Hooks h;
      h.refresh_medium = [this] {
        for (auto& m : mediums) m->on_topology_changed();
      };
      h.rebuild_graph = [this] {
        // In-place rebuild of a graph some consumer built: every holder of
        // the graph reference (stack, auditors) sees the new links/edges;
        // LinkIds change meaning, so the scheduling plane and the auditors
        // reset their link-keyed state in the same synchronous event. A
        // graph nobody asked for stays unbuilt.
        if (graph) {
          *graph = topo::ConflictGraph::build(topo, graph_links());
          ++graph_builds;
        }
        stack->on_conflict_graph_rebuilt();
        for (auto& a : auditors) a->on_schedule_reset();
      };
      h.try_attach = [this](topo::NodeId c, topo::NodeId to) {
        return stack->on_client_attach(c, to);
      };
      h.detach = [this](topo::NodeId c) { stack->on_client_detach(c); };
      h.lifecycle_note = [this](topo::NodeId n, bool active, TimeNs now) {
        for (auto& a : auditors) a->on_lifecycle(n, active, now);
      };
      h.reassociated = [this](topo::NodeId c) {
        for (auto& a : auditors) a->on_client_reassociated(c);
      };
      h.membership_changed = [this](topo::NodeId c) { follow_client(c); };
      lifecycle->arm(std::move(h));
    }
    if (injector) injector->arm_mediums(mediums, cfg.duration);

    sim.set_interrupt_flag(cancel);
    sim.set_event_budget(max_events);
    loop_started = true;
    const auto wall_loop = std::chrono::steady_clock::now();
    sim.run_until(cfg.duration);
    if (sim.interrupted()) {
      throw ExperimentInterrupted(sim.now(), sim.events_executed());
    }
    // Account the CBR arrivals no MAC read before the horizon (drop
    // counters, the auditor's offer ledger): every clock reads the horizon.
    for (mac::MacEntity* m : macs) {
      if (m != nullptr) m->queue().settle();
    }
    const auto wall_end = std::chrono::steady_clock::now();

    ExperimentResult result;
    result.wall_setup_seconds =
        std::chrono::duration<double>(wall_loop - wall_start).count();
    result.wall_run_seconds =
        std::chrono::duration<double>(wall_end - wall_loop).count();
    // Over the final link set: on dynamic runs the RSS map and membership
    // the census reads are the post-run ones, so the links must be too.
    result.census = topo::classify_pairs(topo, graph_links());
    result.graph_builds = graph_builds;
    std::vector<double> xs;
    for (const FlowCtx& fc : flows) {
      LinkResult lr;
      lr.flow = fc.flow;
      lr.uplink = fc.uplink;
      lr.throughput_bps = stats.throughput_bps(fc.flow.id, cfg.duration);
      lr.mean_delay_us = stats.mean_delay_us(fc.flow.id);
      lr.delivered = stats.delivered(fc.flow.id);
      xs.push_back(lr.throughput_bps);
      result.links.push_back(lr);
    }
    result.aggregate_throughput_bps =
        stats.aggregate_throughput_bps(cfg.duration);
    result.jain_fairness = traffic::FlowStats::jain_index(xs);
    result.mean_delay_us = stats.mean_delay_us_all();
    result.events_executed = sim.events_executed();
    result.sim_partitions = static_cast<std::uint32_t>(mediums.size());
    const sim::KernelStats& ks = sim.kernel_stats();
    result.sim_windows = ks.windows;
    result.sim_ff_jumps = ks.ff_jumps;
    result.sim_elongated_windows = ks.elongated_windows;
    result.sim_activated_p50 = ks.activated_p50();
    result.sim_activated_max = ks.activated_max();
    result.sim_spin_wakes = ks.spin_wakes;
    result.sim_sleep_wakes = ks.sleep_wakes;
    result.sim_barrier_seconds = ks.barrier_seconds;
    result.sim_lookahead_ns =
        sim.lookahead() == sim::kTimeNever ? 0 : sim.lookahead();
    stack->collect(result);
    if (injector) {
      const fault::FaultCounters fc = injector->counters();
      result.fault_backbone_drops = fc.backbone_drops;
      result.fault_backbone_dups = fc.backbone_dups;
      result.fault_backbone_spikes = fc.backbone_spikes;
      result.fault_interference_bursts = fc.interference_bursts;
      result.fault_controller_outage_skips = fc.controller_outage_skips;
      result.fault_forced_trigger_losses = fc.forced_trigger_losses;
      result.fault_forced_false_positives = fc.forced_trigger_false_positives;
    }
    if (lifecycle) {
      const LifecycleCounters& lc = lifecycle->counters();
      result.lifecycle_epochs = lc.epochs;
      result.lifecycle_rss_updates = lc.rss_updates;
      result.lifecycle_joins = lc.joins;
      result.lifecycle_leaves = lc.leaves;
      result.lifecycle_roams = lc.roams;
      result.lifecycle_roam_rejections = lc.roam_rejections;
      result.lifecycle_join_rejections = lc.join_rejections;
    }
    if (!timelines.empty()) {
      result.timeline = std::make_shared<TimelineRecorder>(
          TimelineRecorder::merge(timelines));
    }
    if (!auditors.empty()) {
      std::vector<std::shared_ptr<const audit::AuditReport>> reports;
      reports.reserve(auditors.size());
      for (auto& a : auditors) {
        a->finalize();
        reports.push_back(a->report());
      }
      result.audit = std::make_shared<const audit::AuditReport>(
          audit::merge_reports(reports));
    }
    return result;
  }
};

unsigned resolve_sim_threads(const ExperimentConfig& cfg) {
  if (cfg.sim_threads > 0) return static_cast<unsigned>(cfg.sim_threads);
  if (cfg.sim_threads < 0) return 0;
  const char* env = std::getenv("DMN_SIM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<unsigned>(v) : 0;
}

ExperimentInterrupted::ExperimentInterrupted(TimeNs sim_time,
                                             std::uint64_t events)
    : std::runtime_error("experiment interrupted at " +
                         std::to_string(sim_time) + " ns after " +
                         std::to_string(events) + " events"),
      sim_time_ns(sim_time),
      events_executed(events) {}

Experiment::Experiment(const topo::Topology& topology,
                       ExperimentConfig config)
    : impl_(std::make_unique<Impl>(topology, std::move(config))) {}

Experiment::~Experiment() = default;

void Experiment::set_run_guard(const std::atomic<bool>* cancel,
                               std::uint64_t max_events) {
  impl_->cancel = cancel;
  impl_->max_events = max_events;
}

ExperimentResult Experiment::run() { return impl_->run(); }

ExperimentResult run_experiment(const topo::Topology& topology,
                                const ExperimentConfig& config) {
  return Experiment(topology, config).run();
}

}  // namespace dmn::api
