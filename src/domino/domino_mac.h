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
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

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
/// every in-flight duplicate the moment the cap is hit).
class BoundedIdFilter {
 public:
  explicit BoundedIdFilter(std::size_t cap = 4096) : cap_(cap) {}

  /// Inserts `id`; returns true if it was new (i.e. not a duplicate).
  bool insert(traffic::PacketId id) {
    if (!set_.insert(id).second) return false;
    order_.push_back(id);
    while (order_.size() > cap_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  bool contains(traffic::PacketId id) const { return set_.contains(id); }
  std::size_t size() const { return set_.size(); }

  /// Forgets all history. Lifecycle paths deliberately do NOT call this on
  /// re-association: ids are globally unique, so retained history only ever
  /// suppresses true duplicates (lost-ACK retransmits), and the bounded
  /// oldest-out eviction already ages stale entries.
  void clear() {
    set_.clear();
    order_.clear();
  }

 private:
  std::size_t cap_;
  std::set<traffic::PacketId> set_;
  std::deque<traffic::PacketId> order_;
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
  /// §5 co-existence: DOMINO frames carry a NAV covering the rest of their
  /// slot, so external 802.11 contenders defer for the contention-free
  /// period and only transmit in the gaps DOMINO leaves idle.
  bool protect_with_nav = true;

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

/// Shared behaviour: signature-burst detection buffer and slot anchoring.
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

  /// Test-only defect (audit::Mutation::kMacTriggerWithoutSignature): treat
  /// every triggering burst as carrying this node's code, firing triggers
  /// whose signature was never on the air.
  void set_test_trigger_on_any_burst(bool on) {
    test_trigger_on_any_burst_ = on;
  }

  // ---- chain-health observability ----------------------------------------
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
  void send_burst(const std::vector<std::size_t>& codes, std::uint64_t tag,
                  bool rop_flag, bool recovery = false,
                  std::uint32_t rop_symbols = 1);

  void on_frame_rx(const phy::Frame& frame, const phy::RxInfo& info) override;

  /// Subclass hook for non-signature frames.
  virtual void handle_frame(const phy::Frame& frame,
                            const phy::RxInfo& info) = 0;

  /// Called after the anchor moved the lattice later: pending slot-timed
  /// actions should re-snap ("last correctly received trigger as time
  /// reference").
  virtual void on_anchor_moved() {}

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
  bool test_trigger_on_any_burst_ = false;

  std::uint64_t forced_trigger_losses_ = 0;
  std::uint64_t anchor_rejections_total_ = 0;
  std::vector<double> recovery_latency_slots_;
  bool loss_pending_ = false;
  TimeNs loss_time_ = 0;

 private:
  void evaluate_sig_buffer();

  struct BufferedBurst {
    phy::SignatureBurst burst;
    double sinr_db;
    std::uint64_t tag;
    TimeNs end_time;
  };
  std::vector<BufferedBurst> sig_buffer_;
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
              std::function<void(const ApReport&)> report_fn,
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

  // MacEntity.
  bool enqueue(traffic::Packet p) override;
  std::size_t queue_size() const override { return queue_.size(); }

  /// Controller dispatch (already backbone-delayed). Merges by slot index.
  /// Dropped while the AP is powered down (outage injection).
  void receive_plan(const ApSchedule& plan);

  /// AP outage/restart injection. Powering down cancels every pending
  /// timer and silences the radio; powering up re-arms the self-start
  /// machinery from the retained schedule — the AP re-anchors off the
  /// first trigger it hears, like the paper's bootstrap.
  void set_powered(bool on);

  std::uint64_t ack_timeouts() const { return ack_timeouts_; }
  std::uint64_t self_starts() const { return self_starts_; }
  std::uint64_t rows_executed() const { return rows_executed_; }
  std::uint64_t missed_rows() const { return missed_rows_; }
  std::uint64_t retry_drops() const { return retry_drops_; }
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
  };

  Row* find_row(std::uint64_t g);
  Row* next_pending();
  TimeNs row_due(const Row& r) const;
  /// Anchor-predicted start of slot g, including known ROP boundaries.
  TimeNs anchored_start(std::uint64_t g) const;
  void on_anchor_moved() override;
  /// Marks every row below `g` missed and moves the execution frontier —
  /// slots are strictly ordered; a laggard catches up by skipping, never by
  /// running stale slots out of order.
  void advance_frontier(std::uint64_t g);
  void arm_self_start();
  void on_self_start_timer();
  void schedule_tx(std::uint64_t g, TimeNs at);
  void execute_tx(std::uint64_t g);
  void after_data_phase(const Row& row, TimeNs slot_t0, bool uplink);
  void finish_slot(std::uint64_t g);
  void execute_poll(std::uint64_t g, TimeNs at);
  void evaluate_poll(std::uint64_t g);
  void prune_executed(std::uint64_t upto);

  rop::RopParams rop_params_;
  rop::RopLinkModel rop_model_;
  mac::DeliveryFn deliver_;
  std::function<void(const ApReport&)> report_fn_;

  std::vector<ClientInfo> clients_;
  traffic::PacketQueue queue_;
  std::map<std::uint64_t, Row> rows_;
  /// Shared slot-lattice stretch: boundary slot -> poll symbols there.
  std::map<std::uint64_t, std::uint32_t> rop_boundaries_;
  std::uint64_t frontier_ = 0;  // highest executed slot index

  // In-flight TX bookkeeping.
  sim::EventHandle tx_event_;
  std::uint64_t tx_pending_slot_ = 0;
  bool tx_scheduled_ = false;
  TimeNs tx_scheduled_at_ = 0;
  sim::EventHandle ack_timer_;
  traffic::PacketId awaiting_ack_ = 0;
  bool awaiting_ack_valid_ = false;
  topo::NodeId awaiting_peer_ = topo::kNoNode;
  /// Retry counts by packet id, bounded: ids are monotonic, so when the map
  /// outgrows the cap the smallest (oldest, long-since-resolved) entries
  /// are evicted. Unbounded growth showed up on long runs whenever a
  /// destination left the schedule with a timeout entry still parked here.
  std::map<traffic::PacketId, int> tx_attempts_;
  static constexpr std::size_t kTxAttemptsCap = 1024;
  void prune_tx_attempts();

  sim::EventHandle self_start_timer_;

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

  // Per-client duplicate filter for uplink deliveries (bounded, oldest-out).
  std::map<topo::NodeId, BoundedIdFilter> seen_;

  std::uint64_t ack_timeouts_ = 0;
  std::uint64_t self_starts_ = 0;
  std::uint64_t rows_executed_ = 0;
  std::uint64_t retry_drops_ = 0;
  std::uint64_t missed_rows_ = 0;
  PlanAge plan_age_;
};

class DominoClientMac final : public DominoNodeBase, public mac::MacEntity {
 public:
  DominoClientMac(sim::Simulator& sim, phy::Medium& medium, topo::NodeId node,
                  topo::NodeId ap, const rop::PollSlot& slot,
                  const DominoTiming& timing, const SignaturePlan& signatures,
                  const phy::SignatureDetectionModel& model, Rng rng,
                  mac::DeliveryFn deliver, DominoTrace* trace);

  bool enqueue(traffic::Packet p) override;
  std::size_t queue_size() const override { return queue_.size(); }

  std::uint64_t ack_timeouts() const { return ack_timeouts_; }

  // ---- lifecycle (roaming) -----------------------------------------------
  /// Re-homes this client to `new_ap` on poll `slot`: cancels any pending
  /// slot transmission toward the old AP, retargets queued uplink packets,
  /// and from now on reacts only to the new AP's frames. The pending ACK
  /// timer stays armed (its timeout just requeues the head for the next
  /// trigger), and the downlink duplicate filter is kept — packet ids are
  /// globally unique, so history still suppresses old-AP duplicates.
  void reassociate(topo::NodeId new_ap, const rop::PollSlot& slot);
  topo::NodeId ap() const { return ap_; }
  const rop::PollSlot& slot() const { return slot_; }

  /// Test-only defects for the auditor self-test (src/audit).
  void set_test_double_delivery(bool on) { test_double_delivery_ = on; }
  void set_test_rop_report_offset(bool on) { test_rop_report_offset_ = on; }
  /// audit::Mutation::kRopCrossSymbolCollision: answer every poll in symbol
  /// 0 regardless of the assigned symbol, colliding with the client
  /// legitimately holding the same subchannel there.
  void set_test_poll_symbol_collapse(bool on) {
    test_poll_symbol_collapse_ = on;
  }

 protected:
  void on_trigger_detected(std::uint64_t tag, std::uint32_t rop_symbols,
                           TimeNs detect_time) override;
  void handle_frame(const phy::Frame& frame, const phy::RxInfo& info) override;

 private:
  void execute_tx(std::uint64_t slot_tag);
  void on_anchor_moved() override;
  void schedule_data_tx(std::uint64_t tag, TimeNs at);
  void handle_continuation(const phy::SignatureBurst& instr,
                           std::uint64_t tag, TimeNs slot_t0);
  void schedule_instructed_burst(const phy::SignatureBurst& instr,
                                 std::uint64_t tag, TimeNs at);

  topo::NodeId ap_;
  rop::PollSlot slot_;
  mac::DeliveryFn deliver_;
  traffic::PacketQueue queue_;

  sim::EventHandle tx_event_;
  bool tx_scheduled_ = false;
  TimeNs tx_scheduled_at_ = 0;
  std::uint64_t tx_slot_tag_ = 0;
  sim::EventHandle ack_timer_;
  traffic::PacketId awaiting_ack_ = 0;
  bool awaiting_ack_valid_ = false;
  std::uint64_t last_tx_tag_ = 0;  // stale-trigger guard

  BoundedIdFilter seen_;  // downlink duplicate filter (bounded, oldest-out)

  std::uint64_t ack_timeouts_ = 0;
  bool test_double_delivery_ = false;
  bool test_rop_report_offset_ = false;
  bool test_poll_symbol_collapse_ = false;
};

}  // namespace dmn::domino
