#pragma once
// DOMINO execution agents: the AP- and client-side MAC entities that run a
// relative schedule (§3.2-§3.5, Figures 8 and 10).
//
// Slot structure (fixed "virtual packet" duration, §3.5):
//   t0                 data phase      (real data, or header-only fake)
//   t0+data+SIFS       ACK             (real data only)
//   ...+ACK+slot       signature phase both endpoints broadcast combined
//                                      signatures, then S' (or the ROP
//                                      signature when an ROP slot follows)
//   burst end + slot   next slot's t0  (or + ROP duration after ROP slots)
//
// APs know their slice of the schedule (global-slot-indexed rows shipped by
// the controller); clients are purely reactive: they transmit on detecting
// their own signature, rebroadcast the signature samples their AP embedded
// in the slot's data frame / ACK, answer polls on their assigned (symbol,
// subchannel) slot, and retransmit un-ACKed packets on the next trigger
// (§3.5).
//
// Liveness / healing: every node passively re-anchors its notion of slot
// timing on the last correctly received trigger (Figure 11's convergence);
// APs additionally self-start a pending row if the chain stays silent two
// slot durations past the row's expected start — the generalization of the
// paper's "APs individually start executing the schedule" bootstrap.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "audit/mutation.h"
#include "domino/controller.h"
#include "domino/relative_schedule.h"
#include "domino/signature_plan.h"
#include "mac/mac_common.h"
#include "phy/medium.h"
#include "phy/signature_model.h"
#include "rop/poll_planner.h"
#include "rop/rop_protocol.h"
#include "sim/simulator.h"
#include "traffic/queue.h"
#include "util/rng.h"

namespace dmn::fault {
class FaultInjector;
}

namespace dmn::domino {

/// Insertion-ordered duplicate filter with a hard size bound: oldest ids
/// are evicted first, so long runs neither grow without bound nor forget
/// their entire history at once (the old cap-then-clear behaviour readmits
/// every in-flight duplicate the moment the cap is hit). Flat: a sorted id
/// set for lookup and a ring of the same ids in insertion order.
class BoundedIdFilter {
 public:
  explicit BoundedIdFilter(std::size_t cap = 4096) : cap_(cap) {
    assert(cap_ > 0);
  }

  /// Inserts `id`; returns true if it was new (i.e. not a duplicate).
  bool insert(traffic::PacketId id) {
    if (!ids_.insert(id)) return false;
    if (order_.size() < cap_) {
      order_.push_back(id);
    } else {
      // Full: the new id takes the oldest one's place in the ring.
      ids_.erase(std::exchange(order_[oldest_], id));
      oldest_ = (oldest_ + 1) % cap_;
    }
    return true;
  }

  bool contains(traffic::PacketId id) const { return ids_.contains(id); }
  std::size_t size() const { return ids_.size(); }

 private:
  std::size_t cap_;
  mac::PacketIdSet ids_;
  std::vector<traffic::PacketId> order_;  // ring once cap_ ids are held
  std::size_t oldest_ = 0;                // ring index of the oldest id
};

/// Derived airtimes of the DOMINO slot structure.
struct DominoTiming {
  mac::WifiParams wifi;
  std::size_t payload_bytes = 512;
  std::size_t fake_header_bytes = 28;  // fake packet: header only (§3.3)
  std::size_t poll_bytes = 16;
  TimeNs sig_air = usec(6.35);   // one length-127 signature at 20 MHz
  TimeNs rop_symbol = usec(16);  // Table 1
  TimeNs rop_guard = usec(40);   // absorbs residual chain misalignment

  TimeNs data_air() const { return wifi.data_airtime(payload_bytes); }
  TimeNs fake_air() const {
    return phy::frame_airtime(fake_header_bytes, wifi.data_rate_bps);
  }
  TimeNs ack_air() const { return wifi.ack_airtime(); }
  TimeNs poll_air() const {
    return phy::frame_airtime(poll_bytes + wifi.mac_header_bytes,
                              wifi.control_rate_bps);
  }
  /// Combined signatures followed by S' (or the ROP signature).
  TimeNs burst_air() const { return 2 * sig_air; }
  /// Signature phase offset from the slot's data start.
  TimeNs sig_phase_offset() const {
    return data_air() + wifi.sifs + ack_air() + wifi.slot_time;
  }
  /// Full slot pitch (slot start to next slot start).
  TimeNs slot_duration() const {
    return sig_phase_offset() + burst_air() + wifi.slot_time;
  }
  /// Extra wait when an ROP slot is inserted at the boundary: the poll
  /// broadcast is followed by `symbols` back-to-back response symbols.
  TimeNs rop_duration(std::uint32_t symbols = 1) const {
    return poll_air() + wifi.slot_time +
           static_cast<TimeNs>(std::max<std::uint32_t>(symbols, 1)) *
               rop_symbol +
           rop_guard;
  }
};

/// A DominoTiming's derived durations, evaluated once per node: each is a
/// frame_airtime() evaluation or a sum of them, and the slot lattice reads
/// them on every expected_start.
struct DominoDurations {
  explicit DominoDurations(const DominoTiming& t)
      : data_air(t.data_air()),
        fake_air(t.fake_air()),
        ack_air(t.ack_air()),
        poll_air(t.poll_air()),
        burst_air(t.burst_air()),
        sig_phase_offset(t.sig_phase_offset()),
        slot_duration(t.slot_duration()),
        rop_symbol(t.rop_symbol),
        rop_base(t.rop_duration(1) - t.rop_symbol) {}

  TimeNs data_air;
  TimeNs fake_air;
  TimeNs ack_air;
  TimeNs poll_air;
  TimeNs burst_air;
  TimeNs sig_phase_offset;
  TimeNs slot_duration;

  /// DominoTiming::rop_duration(symbols).
  TimeNs rop_duration(std::uint32_t symbols = 1) const {
    return rop_base +
           static_cast<TimeNs>(std::max<std::uint32_t>(symbols, 1)) *
               rop_symbol;
  }

 private:
  TimeNs rop_symbol;
  TimeNs rop_base;  // rop_duration minus its symbols
};

/// Hooks for the timeline / misalignment recorders (api/timeline.h).
struct DominoTrace {
  /// (slot index, node, peer, start, fake?, uplink?)
  std::function<void(std::uint64_t, topo::NodeId, topo::NodeId, TimeNs, bool,
                     bool)>
      on_data_tx;
  std::function<void(std::uint64_t, topo::NodeId, TimeNs)> on_poll;
  std::function<void(std::uint64_t, topo::NodeId, TimeNs)> on_trigger;
  /// In-band continuation instruction accepted: `node` may transmit in slot
  /// `tag` without a signature trigger (audit provenance seam).
  std::function<void(std::uint64_t, topo::NodeId, TimeNs)> on_continuation;
};

/// Shared behaviour: signature-burst detection buffer, slot anchoring and the
/// slot TX/ACK machinery (pending TX, data or fake header, ACK send/match).
class DominoNodeBase : public phy::MediumClient {
 public:
  DominoNodeBase(sim::Simulator& sim, phy::Medium& medium, topo::NodeId node,
                 const DominoTiming& timing, const SignaturePlan& signatures,
                 const phy::SignatureDetectionModel& model, Rng rng,
                 DominoTrace* trace);

  topo::NodeId node() const { return radio_.node(); }

  /// Fault injection (nullable). When set, signature bursts may be
  /// suppressed (forced false negatives / scripted blackouts) or forged
  /// (false positives); see fault::SignatureFaults.
  void set_faults(fault::FaultInjector* f) { faults_ = f; }

  /// Local clock rate error. Applied to the slot-lattice extrapolation
  /// (expected_start and everything built on it) — the only timers where
  /// ppm-scale error accumulates to observable magnitude.
  void set_clock_skew_ppm(double ppm) { clock_skew_ppm_ = ppm; }

  /// Auditor self-test switch (src/audit). The base acts on
  /// kMacTriggerWithoutSignature; DominoClientMac also on kMacDoubleDelivery,
  /// kRopReportOffset and kRopCrossSymbolCollision.
  void set_mutation(audit::Mutation m) { mutation_ = m; }

  // ---- chain-health observability ----------------------------------------
  /// Data frames whose ACK never arrived.
  std::uint64_t ack_timeouts() const { return ack_timeouts_; }
  /// Packets given up on past WifiParams::retry_limit missed ACKs.
  std::uint64_t retry_drops() const { return retry_drops_; }
  /// Trigger bursts this node was forced to miss by fault injection.
  std::uint64_t forced_trigger_losses() const {
    return forced_trigger_losses_;
  }
  /// Lattice references rejected as earlier-than-anchor (island defence).
  std::uint64_t anchor_rejections() const { return anchor_rejections_total_; }
  /// Recovery latency samples: slots elapsed between a (suppressed) trigger
  /// loss and the next chain activity at this node — the re-convergence
  /// metric of the resilience study.
  const std::vector<double>& recovery_latency_slots() const {
    return recovery_latency_slots_;
  }

 protected:
  /// Called when this node's signature (plus S'/ROP) was detected; `tag` is
  /// the slot the burst closed, `rop_symbols` how many poll symbols the
  /// following ROP slot spans (0 = no ROP slot follows).
  virtual void on_trigger_detected(std::uint64_t tag,
                                   std::uint32_t rop_symbols,
                                   TimeNs detect_time) = 0;

  /// Broadcasts the combined trigger burst at the signature phase.
  /// `recovery` marks off-lattice kick bursts (not a timing reference).
  /// `rop_symbols` rides the burst in-band when rop_flag is set so every
  /// listener stretches its lattice by the same rop_duration(symbols).
  void send_burst(const phy::SignatureCodes& codes, std::uint64_t tag,
                  bool rop_flag, bool recovery = false,
                  std::uint32_t rop_symbols = 1);

  void on_frame_rx(const phy::Frame& frame, const phy::RxInfo& info) override;

  /// Subclass hook for non-signature frames.
  virtual void handle_frame(const phy::Frame& frame,
                            const phy::RxInfo& info) = 0;

  /// Sends slot `slot`'s data phase; fire_tx has checked the radio.
  virtual void execute_tx(std::uint64_t slot) = 0;
  /// Drops the un-ACKed packet for `peer` past retry_limit missed ACKs.
  virtual void drop_unacked(topo::NodeId peer) = 0;

  /// Arms the one pending slot transmission, replacing any earlier one. It
  /// fires at the later of `at` and `fire_at` (not before now); a lattice
  /// snap compares against `at`.
  void arm_tx(std::uint64_t slot, TimeNs at, TimeNs fire_at = 0);
  void cancel_tx();
  /// Runs slot `slot`'s transmission, armed or self-started: retries while
  /// our own radio is keyed, else drops an armed TX for this or an earlier
  /// slot (one for a later slot stays) and calls execute_tx.
  void fire_tx(std::uint64_t slot);
  /// Data phase toward `peer`: `pkt` as data awaiting its ACK, or a
  /// header-only fake when null; `instr` rides AP-sent frames.
  void send_data_phase(std::uint64_t slot, topo::NodeId peer,
                       const traffic::Packet* pkt,
                       std::optional<phy::SignatureBurst> instr, bool uplink);
  void send_ack(topo::NodeId to, traffic::PacketId id, std::uint64_t tag,
                std::optional<phy::SignatureBurst> instr);
  void post_burst(const phy::SignatureCodes& codes, std::uint64_t tag,
                  bool rop_flag, std::uint32_t rop_symbols, TimeNs at);
  struct AwaitedAck {
    traffic::PacketId id;
    topo::NodeId peer;
  };
  /// The awaited packet if `frame` acknowledges it (the wait ends).
  std::optional<AwaitedAck> take_ack(const phy::Frame& frame);

  /// Updates the slot-timing anchor. Heard references are adopted
  /// monotonically: a reference implying an *earlier* lattice than the
  /// current one (by more than a quarter slot) is rejected — chains defer
  /// to the latest (slowest) reference, which is what makes misaligned
  /// chains converge instead of islands forming. `force` bypasses the
  /// check; used when a node's own slot execution establishes ground
  /// truth for its chain phase.
  void update_anchor(std::uint64_t tag, TimeNs t0, bool force = false);
  bool has_anchor() const { return anchor_valid_; }
  std::uint64_t anchor_tag() const { return anchor_tag_; }
  TimeNs expected_start(std::uint64_t tag) const;
  /// expected_start plus the known ROP boundaries before slot `g`.
  TimeNs anchored_start(std::uint64_t g) const;

  /// Closes a pending trigger-loss episode: records now - loss time in
  /// slots. Called wherever the chain demonstrably moves again (a detected
  /// trigger, an executed row, a recovery kick).
  void note_chain_resume(TimeNs now);

  /// True while this node is powered (AP outage injection). A powered-down
  /// node neither transmits nor receives; stale timer events must check.
  bool powered() const { return powered_; }

  sim::Simulator& sim_;
  phy::Transceiver radio_;
  const DominoTiming timing_;
  const DominoDurations dur_;  // of timing_
  const SignaturePlan& signatures_;
  phy::SignatureDetectionModel model_;
  Rng rng_;
  DominoTrace* trace_;
  fault::FaultInjector* faults_ = nullptr;
  double clock_skew_ppm_ = 0.0;
  bool powered_ = true;
  audit::Mutation mutation_ = audit::Mutation::kNone;

  /// Slot-lattice stretch: the poll symbols at each boundary slot, sorted
  /// by slot. Only APs learn boundaries (from their schedule).
  std::vector<ApSchedule::RopBoundary> rop_boundaries_;

  struct PendingTx {
    std::uint64_t slot;
    TimeNs at;  // what a lattice snap compares against
    sim::EventHandle event;
  };
  std::optional<PendingTx> pending_tx_;
  std::optional<AwaitedAck> awaiting_ack_;
  sim::EventHandle ack_timer_;
  std::uint64_t ack_timeouts_ = 0;
  std::uint64_t retry_drops_ = 0;
  /// Missed ACKs by packet id, bounded: ids are monotonic, so when the map
  /// outgrows the cap the smallest (oldest, long-since-resolved) entries
  /// are evicted. Unbounded growth showed up on long runs whenever a
  /// destination left the schedule with a timeout entry still parked here.
  std::map<traffic::PacketId, int> tx_attempts_;
  static constexpr std::size_t kTxAttemptsCap = 1024;

  std::uint64_t forced_trigger_losses_ = 0;
  std::uint64_t anchor_rejections_total_ = 0;
  std::vector<double> recovery_latency_slots_;
  bool loss_pending_ = false;
  TimeNs loss_time_ = 0;

 private:
  void evaluate_sig_buffer();
  /// The anchor moved the lattice later: re-time the pending transmission.
  void snap_pending_tx();
  /// Missed ACK (§3.5): the wait ends and the packet stays queued for its
  /// next slot until it has missed more than retry_limit ACKs.
  void on_ack_timeout();

  struct BufferedBurst {
    phy::SignatureBurst burst;
    double min_sinr;  // linear, as phy::RxInfo carries it
    std::uint64_t tag;
    TimeNs end_time;
  };
  std::vector<BufferedBurst> sig_buffer_;
  /// The bursts evaluate_sig_buffer is working through; swapped with
  /// sig_buffer_ so both keep their capacity.
  std::vector<BufferedBurst> sig_eval_;
  bool eval_scheduled_ = false;

  bool anchor_valid_ = false;
  std::uint64_t anchor_tag_ = 0;
  TimeNs anchor_t0_ = 0;
  int anchor_rejections_ = 0;  // consecutive earlier-than-lattice refs
};

class DominoApMac final : public DominoNodeBase, public mac::MacEntity {
 public:
  struct ClientInfo {
    topo::NodeId client;
    double rss_at_ap;
  };

  DominoApMac(sim::Simulator& sim, phy::Medium& medium, topo::NodeId node,
              const DominoTiming& timing, const SignaturePlan& signatures,
              const phy::SignatureDetectionModel& model,
              const rop::RopParams& rop_params, Rng rng,
              mac::DeliveryFn deliver,
              std::function<void(ApReport)> report_fn,
              DominoTrace* trace);

  // ---- lifecycle (join/leave/roam) ---------------------------------------
  /// Admits a client (join or roam-in). Any retained duplicate-filter state
  /// for the client survives: a re-associating client may retransmit an
  /// uplink packet whose ACK was lost before the leave, and forgetting the
  /// id would deliver it twice. Packet ids are globally unique, so retained
  /// history can never suppress fresh traffic; the filter's bounded
  /// oldest-out eviction is what ages stale entries.
  void register_client(const ClientInfo& info);
  /// Removes a client (leave or roam-out). Its duplicate-filter state is
  /// retained for a possible rejoin; a roam-out moves it to the new AP via
  /// take_uplink_seen/adopt_uplink_seen instead. No-op if not registered.
  void unregister_client(topo::NodeId client);
  /// Drains queued downlink packets for `dst` (roam hand-off). The packet
  /// awaiting its ACK stays queued: the completion path pops it by peer.
  std::vector<traffic::Packet> extract_queued_for(topo::NodeId dst);

  /// Roam hand-off of the uplink dedup state: the filter follows the client
  /// so a lost-ACK retransmit at the new AP is still recognised as a
  /// duplicate (the old AP already delivered the packet to the wire).
  BoundedIdFilter take_uplink_seen(topo::NodeId client) {
    const auto it = seen_.find(client);
    if (it == seen_.end()) return BoundedIdFilter{};
    BoundedIdFilter f = std::move(it->second);
    seen_.erase(it);
    return f;
  }
  void adopt_uplink_seen(topo::NodeId client, BoundedIdFilter f) {
    if (f.size() > 0) seen_[client] = std::move(f);
  }

  /// Test seams for the dedup hand-off regression (tests/lifecycle_test.cpp):
  /// plant / probe an uplink-seen id without running a whole slot.
  void test_note_uplink_seen(topo::NodeId client, traffic::PacketId id) {
    seen_[client].insert(id);
  }
  bool test_uplink_seen(topo::NodeId client, traffic::PacketId id) const {
    const auto it = seen_.find(client);
    return it != seen_.end() && it->second.contains(id);
  }

  /// Controller dispatch (already backbone-delayed). Merges by slot index.
  /// Dropped while the AP is powered down (outage injection).
  void receive_plan(const ApSchedule& plan);

  /// AP outage/restart injection. Powering down cancels every pending
  /// timer and silences the radio; powering up re-arms the self-start
  /// machinery from the retained schedule — the AP re-anchors off the
  /// first trigger it hears, like the paper's bootstrap.
  void set_powered(bool on);

  std::uint64_t self_starts() const { return self_starts_; }
  std::uint64_t rows_executed() const { return rows_executed_; }
  std::uint64_t missed_rows() const { return missed_rows_; }
  /// Plan age at each poll: how long before the poll went out the
  /// controller planned the row it polls from.
  struct PlanAge {
    double sum_us = 0.0;
    std::uint64_t samples = 0;
    double max_us = 0.0;
  };
  const PlanAge& plan_age() const { return plan_age_; }

 protected:
  void on_trigger_detected(std::uint64_t tag, std::uint32_t rop_symbols,
                           TimeNs detect_time) override;
  void handle_frame(const phy::Frame& frame, const phy::RxInfo& info) override;
  void execute_tx(std::uint64_t g) override;
  void drop_unacked(topo::NodeId peer) override {
    (void)queue_.pop_for(peer);
  }

 private:
  struct Row {
    ApSlotPlan plan;
    bool executed = false;
    /// Self-start already broadcast a kick trigger for this uplink row.
    bool kick_sent = false;
    /// Write-off deadline after the kick.
    TimeNs kick_deadline = kTimeNever;
    /// When the controller planned the batch that made this row poll.
    TimeNs planned_at = 0;

    std::uint64_t slot() const { return plan.global_index; }
  };
  using RowIt = std::vector<Row>::iterator;

  RowIt row_at_or_after(std::uint64_t g);
  Row* find_row(std::uint64_t g);
  /// The first row past the execution frontier (every row while nothing
  /// has executed).
  RowIt first_above_frontier();
  Row* next_pending();
  TimeNs row_due(const Row& r) const;
  /// Marks row `r` executed, every earlier row missed, and moves the
  /// execution frontier to it — slots are strictly ordered; a laggard
  /// catches up by skipping, never by running stale slots out of order.
  void mark_executed(Row& r);
  /// Times the self-start for the next pending row, no earlier than
  /// `not_before`, or cancels it (nothing pending, no anchor, dark). A
  /// pending timer due at that same time keeps its place.
  void arm_self_start(TimeNs not_before = 0);
  void on_self_start_timer();
  /// Executes row `r`, whose data phase started at `t0`: anchors the chain
  /// on it and times its signature phase and finish_slot.
  void run_row(Row& r, TimeNs t0);
  void finish_slot(std::uint64_t g);
  void execute_poll(std::uint64_t g, TimeNs at);
  void evaluate_poll(std::uint64_t g);
  void prune_executed(std::uint64_t upto);

  rop::RopParams rop_params_;
  rop::RopLinkModel rop_model_;
  mac::DeliveryFn deliver_;
  std::function<void(ApReport)> report_fn_;

  std::vector<ClientInfo> clients_;
  /// The plan rows, sorted by slot. Rows arrive at the back and leave from
  /// the front (prune_executed), so the vector keeps its capacity from
  /// batch to batch. Row pointers live only within one event.
  std::vector<Row> rows_;
  std::uint64_t frontier_ = 0;  // highest executed slot index

  sim::EventHandle self_start_timer_;
  TimeNs self_start_at_ = 0;  // when self_start_timer_ fires

  // Poll collection state.
  struct PollResponse {
    topo::NodeId client;
    std::size_t subchannel;
    unsigned report;
    bool decoded;
    std::uint32_t symbol;  // poll symbol the response rode in
  };
  std::vector<PollResponse> poll_responses_;
  bool polling_ = false;
  /// evaluate_poll's per-response scratch: the same-symbol co-clients.
  std::vector<rop::RopLinkModel::CoClient> co_clients_;

  // Per-client duplicate filter for uplink deliveries (bounded, oldest-out).
  std::map<topo::NodeId, BoundedIdFilter> seen_;

  std::uint64_t self_starts_ = 0;
  std::uint64_t rows_executed_ = 0;
  std::uint64_t missed_rows_ = 0;
  PlanAge plan_age_;
};

class DominoClientMac final : public DominoNodeBase, public mac::MacEntity {
 public:
  DominoClientMac(sim::Simulator& sim, phy::Medium& medium, topo::NodeId node,
                  topo::NodeId ap, const rop::PollSlot& slot,
                  const DominoTiming& timing, const SignaturePlan& signatures,
                  const phy::SignatureDetectionModel& model,
                  const rop::RopParams& rop_params, Rng rng,
                  mac::DeliveryFn deliver, DominoTrace* trace);

  // ---- lifecycle (roaming) -----------------------------------------------
  /// Re-homes this client to `new_ap` on poll `slot`: cancels any pending
  /// slot transmission toward the old AP, retargets queued uplink packets,
  /// and from now on reacts only to the new AP's frames. The pending ACK
  /// timer stays armed (its timeout counts a miss of the head, which waits
  /// for the next trigger), and the downlink duplicate filter is kept — packet ids are
  /// globally unique, so history still suppresses old-AP duplicates.
  void reassociate(topo::NodeId new_ap, const rop::PollSlot& slot);
  topo::NodeId ap() const { return ap_; }
  const rop::PollSlot& slot() const { return slot_; }

 protected:
  void on_trigger_detected(std::uint64_t tag, std::uint32_t rop_symbols,
                           TimeNs detect_time) override;
  void handle_frame(const phy::Frame& frame, const phy::RxInfo& info) override;
  void execute_tx(std::uint64_t slot_tag) override;
  /// The awaited packet was the head.
  void drop_unacked(topo::NodeId) override { (void)queue_.pop(); }

 private:
  void arm_slot_tx(std::uint64_t tag, TimeNs at);  // stale-trigger guard
  /// Rebroadcasts the signatures an instruction-carrying AP frame of the
  /// slot starting at `slot_t0` asks for, and follows its continuation bit.
  void follow_instruction(const phy::Frame& frame, TimeNs slot_t0);

  topo::NodeId ap_;
  rop::PollSlot slot_;
  /// Largest queue report the ROP symbol carries
  /// (RopParams::max_queue_report); a longer backlog saturates.
  std::size_t max_report_;
  mac::DeliveryFn deliver_;

  std::uint64_t last_tx_tag_ = 0;  // stale-trigger guard

  BoundedIdFilter seen_;  // downlink duplicate filter (bounded, oldest-out)
};

}  // namespace dmn::domino
