#pragma once
// IEEE 802.11 Distributed Coordination Function.
//
// Full CSMA/CA state machine: DIFS/EIFS deferral, binary-exponential
// backoff with freeze-and-resume, SIFS-spaced ACKs, ACK-timeout retries up
// to the retry limit, NAV honoring, and duplicate filtering at the
// receiver. This is the paper's baseline and also serves CENTAUR's uplink
// path and its carrier-sense-aligned downlink batches (via the fixed
// backoff and gating hooks).

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "mac/mac_common.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "traffic/queue.h"
#include "util/rng.h"

namespace dmn::mac {

class DcfNode final : public MacEntity, public phy::MediumClient {
 public:
  DcfNode(sim::Simulator& sim, phy::Medium& medium, topo::NodeId node,
          const WifiParams& params, Rng rng, DeliveryFn deliver);

  // MacEntity ------------------------------------------------------------
  bool enqueue(traffic::Packet p) override;

  // MediumClient ----------------------------------------------------------
  void on_frame_rx(const phy::Frame& frame, const phy::RxInfo& info) override;
  void on_cs_change(bool busy) override;

  // CENTAUR hooks ----------------------------------------------------------
  /// When set, backoff always draws exactly this many slots (no BEB).
  void set_fixed_backoff(std::optional<int> slots) { fixed_backoff_ = slots; }
  /// When false, the node holds its queue (used to gate scheduled batches).
  void set_service_enabled(bool enabled);
  /// When set, only packets to this destination are served (CENTAUR
  /// releases one scheduled link at a time).
  void set_dest_filter(std::optional<topo::NodeId> dst);
  /// Queued packets toward `dst`.
  std::size_t queued_for(topo::NodeId dst) {
    return queue_.count_for(dst);
  }
  /// Invoked when a head-of-line packet completes (delivered or dropped).
  void set_outcome_hook(
      std::function<void(const traffic::Packet&, bool success)> hook) {
    outcome_hook_ = std::move(hook);
  }

  // Lifecycle (roaming hand-off) -------------------------------------------
  /// Removes and returns every queued packet destined to `dst`. The
  /// in-flight head (state kWaitAck) is excluded so head_done() still pops
  /// the packet the radio actually transmitted; a retry of that packet then
  /// completes toward the old destination, mirroring a real handoff race.
  std::vector<traffic::Packet> extract_queued_for(topo::NodeId dst);
  /// Rewrites queued packets addressed to `from` so they target `to`
  /// (client-side uplink retarget on roam). The in-flight head is NOT
  /// exempt: ACK matching is by packet id, and a post-roam retry toward the
  /// new AP is exactly the roam-then-retransmit behavior we want. Returns
  /// the number of packets rewritten.
  std::size_t retarget_queued(topo::NodeId from, topo::NodeId to);

  // Introspection -----------------------------------------------------------
  std::uint64_t ack_timeouts() const { return ack_timeouts_; }
  std::uint64_t drops() { return retry_drops_ + queue_.dropped(); }
  topo::NodeId node() const { return radio_.node(); }

 private:
  enum class State { kIdle, kWaitDifs, kBackoff, kTxData, kWaitAck };

  void on_arrivals_added() override;
  /// Enters kIdle and arms the wake for the queue's next CBR arrival.
  void go_idle();
  void start_access();
  void begin_difs();
  void begin_backoff();
  void pause_backoff();
  void transmit_head();
  void on_ack_timeout();
  void head_done(bool success);
  const traffic::Packet* head();
  bool medium_idle() const { return !radio_.virtual_busy(); }
  TimeNs current_ifs() const;

  sim::Simulator& sim_;
  phy::Transceiver radio_;
  WifiParams params_;
  Rng rng_;
  DeliveryFn deliver_;

  State state_ = State::kIdle;
  bool service_enabled_ = true;
  std::optional<int> fixed_backoff_;
  std::optional<topo::NodeId> dest_filter_;

  int cw_;
  int retry_count_ = 0;
  int backoff_slots_ = 0;        // remaining full slots
  TimeNs backoff_resumed_at_ = 0;
  sim::EventHandle timer_;       // DIFS wait / backoff completion / ACK t.o.
  /// An idle node's one event per empty->non-empty edge: its queue
  /// materialises CBR arrivals only when read, so nothing else would tell
  /// it a packet arrived.
  sim::EventHandle wake_;
  TimeNs eifs_until_ = 0;        // defer-by-EIFS deadline after bad frame

  std::function<void(const traffic::Packet&, bool)> outcome_hook_;

  // Receiver-side duplicate filter: the packet ids seen per transmitter,
  // sorted by transmitter.
  std::vector<std::pair<topo::NodeId, PacketIdSet>> seen_;
  PacketIdSet& seen_from(topo::NodeId src);

  std::uint64_t ack_timeouts_ = 0;
  std::uint64_t retry_drops_ = 0;
};

}  // namespace dmn::mac
