#pragma once
// The shared wireless medium: SINR-based reception with full interference
// tracking, carrier-sense notifications, and half-duplex enforcement.
//
// Model (ns-3 Yans-class fidelity, which is what the paper's evaluation
// uses):
//  * every active transmission contributes rss(src, n) to the power seen at
//    each node n;
//  * a node carrier-senses busy when transmitting or when the sum of
//    received powers exceeds the CS threshold;
//  * a frame decodes at a node iff the node held the frame's whole duration
//    without transmitting and min-SINR over the duration (desired power over
//    noise + worst concurrent interference) clears the threshold for the
//    frame class;
//  * kRopResponse frames of a common poll do not interfere with each other
//    (they occupy orthogonal OFDM subchannels); their subchannel-level
//    interactions are judged by rop::RopLinkModel at the AP instead;
//  * propagation delay is folded into slot/CP margins (<= 1 us at WLAN
//    ranges), as in the paper.
//
// Implementation: interference accounting is incremental. Each node carries
// a running inbound-power sum (and a parallel sum restricted to ROP
// responses, for the orthogonality exclusion) updated with one add per node
// on every TX start/end from the topology's precomputed linear-power row.
// The interference seen by an in-flight reception is then derived in O(1)
// as sum minus the victim's own contribution, instead of re-summing all
// active transmissions per node per edge. Active transmissions live in a
// slab with a free list (stable storage, recycled RxAttempt capacity), and
// TX-end events are posted fire-and-forget, so a transmission allocates
// nothing in steady state.
//
// Each edge does only the work that can change a result. A TX edge touches
// only the transmitter's coupling component (Topology::component_of): no
// power, carrier-sense flip or interference change reaches another one.
// Its worst-case interference sweep over in-flight receptions runs on TX
// start, on a rise of external interference and on a topology change; a
// TX end sweeps only ROP-response receptions, and only when the frame that
// ended was itself a ROP response, because removing a power row can raise
// nothing else. Carrier sense is one branch-free pass over the component's
// node runs (fused with the power-row update on TX edges) that marks flips
// into a byte buffer; a second loop then notifies the marked nodes in
// ascending id order. A component's sums reset to exactly zero when its own
// last transmission ends, so they never depend on another component's
// traffic: one medium over many components computes, bit for bit, what one
// restricted medium per component computes.
// docs/PERFORMANCE.md lists the invariants this accounting preserves
// relative to the scratch-recompute reference (pinned by
// tests/golden_test.cpp and, bit for bit, by tests/phy_test.cpp's
// MediumPin case).

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "phy/frame.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace dmn::phy {

struct RxInfo {
  double rss_dbm = 0.0;
  double min_sinr_db = 0.0;
  /// SINR cleared the decode threshold and the receiver stayed listening.
  bool decoded = false;
  /// Receiver was transmitting at some point during the frame.
  bool half_duplex_loss = false;
};

/// Implemented by MAC entities. Callbacks run inside simulator events.
class MediumClient {
 public:
  virtual ~MediumClient() = default;

  /// Called at frame end for every frame whose RSS reached this node's
  /// sensitivity (decoded or not). Also called for the node's own frames
  /// with info.decoded == false (self-rx suppressed by MACs as needed).
  virtual void on_frame_rx(const Frame& frame, const RxInfo& info) = 0;

  /// Carrier-sense transitions (edge-triggered). The medium evaluates
  /// every member's carrier sense first and then notifies the nodes that
  /// flipped, in ascending id order, so an implementation must not
  /// transmit from here: Medium::transmit throws std::logic_error while
  /// these notifications are being delivered (later flips are already
  /// decided). Arm a timer instead.
  virtual void on_cs_change(bool /*busy*/) {}
};

/// Passive audit seam (src/audit). Callbacks run inside simulator events,
/// after the medium finished updating its own state; implementations must
/// not transmit or mutate the medium. Null observer = zero cost beyond one
/// pointer test per transmission.
class MediumObserver {
 public:
  virtual ~MediumObserver() = default;

  /// A transmission entered the air (after accounting was updated).
  virtual void on_medium_tx(const Frame& frame, TimeNs start, TimeNs end) = 0;

  /// The incremental accounting changed (TX start/end, external
  /// interference change) and has been refreshed.
  virtual void on_medium_accounting() = 0;
};

/// The node ids [begin, end).
struct NodeRun {
  std::size_t begin = 0;
  std::size_t end = 0;
};

class Medium {
 public:
  Medium(sim::Simulator& sim, const topo::Topology& topo);

  /// Registers the MAC entity for a node. One client per node.
  void attach(topo::NodeId node, MediumClient* client);

  /// Partitioned runs give each interference partition its own Medium and
  /// attach only that partition's nodes. Restricting pins the member set,
  /// before the first transmission: attach()/transmit() by a non-member
  /// throw. The set must be a union of whole coupling components
  /// (Topology::component_of), which is verified here in O(members); this
  /// is the kernel's "no cross-partition airtime coupling" assertion. No
  /// member's transmission deposits power on a non-member, so a restricted
  /// medium computes for its members exactly what the unrestricted medium
  /// does. Restricting to every node is the unrestricted medium.
  void restrict_to_nodes(std::vector<topo::NodeId> members);

  /// The member set as ascending, disjoint, non-adjacent runs of node ids;
  /// an unrestricted medium is the single run [0, num_nodes).
  const std::vector<NodeRun>& member_runs() const { return runs_; }

  /// Starts transmitting `frame` (frame.duration must be set). The frame is
  /// delivered to listeners at now() + duration.
  void transmit(const Frame& frame);

  /// True if `node` senses the channel busy (own TX counts).
  bool carrier_busy(topo::NodeId node) const;

  /// True if `node` is currently transmitting.
  bool transmitting(topo::NodeId node) const {
    return tx_count_[static_cast<std::size_t>(node)] > 0;
  }

  /// NAV-aware busy: carrier busy OR virtual carrier (NAV) active.
  bool virtual_busy(topo::NodeId node) const;

  const topo::Topology& topology() const { return topo_; }
  sim::Simulator& simulator() { return sim_; }

  /// Cumulative frame counts by type (diagnostics).
  std::uint64_t frames_sent(FrameType t) const {
    return sent_[static_cast<std::size_t>(t)];
  }

  /// External interference power (mW) received at every node — a wideband
  /// interferer outside the system (fault injection). Counts toward carrier
  /// sense and toward the interference term of every in-flight reception
  /// from the moment it changes: a rise re-sweeps every reception's
  /// worst-case interference, a fall (which can only lower it) re-checks
  /// carrier sense alone.
  void set_external_interference_mw(double mw);
  double external_interference_mw() const { return external_intf_mw_; }

  /// The topology's RSS matrix changed (mobility / churn epoch). Re-derives
  /// the running per-node power sums from the CURRENT linear-power rows of
  /// every active transmission, then refreshes in-flight interference
  /// tracking and edge-triggered carrier sense — the same pattern as an
  /// external-interference edge. In-flight receptions keep the desired-power
  /// (rss_mw) they started with; only their interference picture moves.
  /// Without this call, TX-end removal would subtract new-matrix rows from
  /// old-matrix sums and corrupt the accounting.
  ///
  /// Throws std::logic_error when the change couples a member with a
  /// non-member (the facade keeps dynamic runs on one medium).
  void on_topology_changed();

  // ---- audit seam -------------------------------------------------------
  // Read-only views of the incremental accounting so an auditor can diff it
  // against a from-scratch recompute (src/audit/audit.cpp).

  void set_observer(MediumObserver* obs) { observer_ = obs; }

  /// Visits every active transmission: fn(frame, start, end, is_rop).
  template <typename Fn>
  void visit_active_tx(Fn&& fn) const {
    for (std::uint32_t slot : active_) {
      const ActiveTx& tx = slab_[slot];
      fn(tx.frame, tx.start, tx.end, tx.rop);
    }
  }
  std::size_t active_tx_count() const { return active_.size(); }
  double inbound_mw(topo::NodeId n) const {
    return inbound_mw_[static_cast<std::size_t>(n)];
  }
  double rop_inbound_mw(topo::NodeId n) const {
    return rop_inbound_mw_[static_cast<std::size_t>(n)];
  }
  std::uint32_t tx_count(topo::NodeId n) const {
    return tx_count_[static_cast<std::size_t>(n)];
  }
  /// The cached edge-triggered carrier-sense state (not recomputed).
  bool cs_busy_cached(topo::NodeId n) const {
    return cs_busy_[static_cast<std::size_t>(n)] != 0;
  }
  double cs_threshold_mw() const { return cs_threshold_mw_; }

  /// Test-only defect (audit::Mutation::kMediumLeakPower): TX end removes
  /// only half of the transmission's power row, corrupting the running sums
  /// the way a missed/double bookkeeping bug would.
  void set_test_power_leak(bool on) { test_power_leak_ = on; }

 private:
  struct RxAttempt {
    topo::NodeId node;
    double rss_mw;
    double max_intf_mw;       // worst concurrent interference seen
    bool half_duplex_loss;
  };
  struct ActiveTx {
    Frame frame;
    TimeNs start = 0;
    TimeNs end = 0;
    bool rop = false;  // frame.type == kRopResponse (orthogonality class)
    std::uint32_t comp = 0;  // the sender's index into comps_
    std::vector<RxAttempt> rx;
  };
  /// One coupling component of the member set.
  struct Component {
    std::vector<NodeRun> runs;  // its nodes
    std::uint32_t active = 0;   // its transmissions in the air
  };
  /// sweep_interference's component argument for "every component".
  static constexpr std::uint32_t kEveryComponent = 0xffffffffu;
  /// comp_of_ of a node outside the member set.
  static constexpr std::uint32_t kNotMember = 0xffffffffu;

  std::uint32_t alloc_slot();
  void on_tx_end(std::uint32_t slot);
  /// Raises each in-flight reception's worst-case interference to its
  /// current value and flags receivers that are transmitting; `comp`
  /// restricts the sweep to one component's transmissions and `rop_only`
  /// to receptions of ROP responses.
  void sweep_interference(std::uint32_t comp, bool rop_only);
  /// O(1) interference at `node` against `victim`, derived from the running
  /// per-node sums (sum minus the victim's own contribution; for ROP
  /// victims, minus all concurrent ROP contributions).
  double interference_at(topo::NodeId node, const ActiveTx& victim) const;
  /// Adds (sign = +1) or removes (sign = -1) a transmission's power row
  /// from its component's sums and, in the same pass, re-evaluates carrier
  /// sense (mark_cs_flips). Returns whether any node flipped.
  bool apply_tx_power(const ActiveTx& tx, double sign);
  /// Adds a transmission's power row to its component's sums, nothing
  /// else.
  void add_tx_power(const ActiveTx& tx);
  /// Zeroes the sums of `runs` (quiescence, topology change).
  void zero_sums(const std::vector<NodeRun>& runs);
  /// Re-evaluates the carrier sense of `runs`, branch-free: stores the new
  /// state in cs_busy_ and a flip mark in cs_flip_. Returns whether any
  /// node flipped.
  bool mark_cs_flips(const std::vector<NodeRun>& runs);
  /// Calls on_cs_change for the nodes of `runs` that mark_cs_flips marked,
  /// in ascending id order (only when `any`), then the observer's
  /// on_medium_accounting.
  void notify_cs_flips(const std::vector<NodeRun>& runs, bool any);
  double decode_threshold_db(FrameType t) const;
  /// Throws std::logic_error when a member couples with a non-member.
  void check_closed() const;
  /// Rebuilds comps_ and comp_of_ from the topology's components and
  /// recounts the active transmissions per component.
  void adopt_components();

  bool is_member(topo::NodeId node) const {
    return comp_of_[static_cast<std::size_t>(node)] != kNotMember;
  }

  sim::Simulator& sim_;
  const topo::Topology& topo_;
  std::vector<NodeRun> runs_;  // the member set, see member_runs()
  // The members' components as of construction, restriction or the last
  // topology change: a snapshot, because the topology merges components
  // as soon as an RSS update couples them.
  std::vector<Component> comps_;
  // Per node: index into comps_, or kNotMember.
  std::vector<std::uint32_t> comp_of_;
  std::vector<MediumClient*> clients_;
  MediumObserver* observer_ = nullptr;
  bool test_power_leak_ = false;

  // Slab of transmissions: deque gives stable references across growth; a
  // free list recycles slots (and their RxAttempt vector capacity).
  std::deque<ActiveTx> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> active_;  // slot ids, insertion order

  // Incremental per-node accounting.
  std::vector<double> inbound_mw_;      // sum of active contributions
  std::vector<double> rop_inbound_mw_;  // same, kRopResponse sources only
  std::vector<std::uint32_t> tx_count_;   // active transmissions per node
  std::vector<std::uint8_t> cs_busy_;     // edge-triggered CS state, 0/1
  std::vector<std::uint8_t> cs_flip_;     // 1 = flipped at the last scan,
                                          // plus 8 bytes of zero padding
  bool notifying_cs_ = false;             // transmit() throws while set
  std::vector<TimeNs> nav_until_;
  std::array<std::uint64_t, kFrameTypeCount> sent_{};
  double external_intf_mw_ = 0.0;
  double cs_threshold_mw_;  // thresholds().cs_threshold_dbm, linear
  double noise_mw_;         // thresholds().noise_floor_dbm, linear
};

}  // namespace dmn::phy
