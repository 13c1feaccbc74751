#pragma once
// Simplified TCP Reno at packet (MSS) granularity.
//
// Captures what the paper's TCP results depend on: slow start / congestion
// avoidance dynamics driven by delivery rate, triple-dupack fast retransmit,
// RTO with exponential backoff, and — critically — TCP ACKs travelling as
// ordinary MAC data packets that occupy a whole DOMINO slot (§4.2.3).
// Sequence numbers count MSS-sized packets, not bytes.

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "sim/simulator.h"
#include "traffic/packet.h"

namespace dmn::traffic {

/// Hands a freshly created segment or ACK to the MAC; returns false when
/// the MAC queue dropped it (the sender treats that as a loss).
using EnqueueFn = std::function<bool(Packet)>;

/// One flow's TCP parameters. The experiment sets the two per-flow values
/// from the flow spec; the Reno constants are fixed.
struct TcpParams {
  double app_rate_bps = 10e6;  // application-limited rate; <=0 => saturated
  std::size_t mss_bytes = 512;
  static constexpr std::size_t ack_bytes = 40;
  static constexpr double initial_cwnd = 2.0;
  static constexpr double initial_ssthresh = 64.0;
  static constexpr double max_cwnd = 64.0;  // receive-window stand-in
  static constexpr TimeNs min_rto = msec(200);
  static constexpr TimeNs max_rto = sec(2);
};

class TcpSender {
 public:
  TcpSender(sim::Simulator& sim, Flow flow, const TcpParams& params,
            PacketIdGen& ids, EnqueueFn enqueue_to_mac);

  void start(TimeNs at);

  /// Router calls this when a tcp_is_ack packet for this flow reaches the
  /// flow source.
  void on_ack(const Packet& ack);

  // Introspection for tests.
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }

 private:
  void app_tick();
  void try_send();
  void send_segment(std::uint64_t seq, bool retransmit);
  void arm_rto();
  void on_rto();
  double flight() const {
    return static_cast<double>(next_seq_ - snd_una_);
  }

  sim::Simulator& sim_;
  Flow flow_;
  TcpParams params_;
  PacketIdGen& ids_;
  EnqueueFn enqueue_;

  // App-limited data availability (packets produced so far).
  std::uint64_t app_produced_ = 0;
  TimeNs app_interval_ = 0;
  bool saturated_ = false;

  std::uint64_t next_seq_ = 0;  // next NEW sequence to send
  std::uint64_t snd_una_ = 0;   // oldest unacked
  double cwnd_;
  double ssthresh_;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;

  // RTT estimation (Karn's rule: only first transmissions sampled).
  std::map<std::uint64_t, TimeNs> send_time_;
  std::set<std::uint64_t> was_retransmitted_;
  double srtt_ns_ = 0.0;
  double rttvar_ns_ = 0.0;
  TimeNs rto_;
  int rto_backoff_ = 0;
  sim::EventHandle rto_event_;
  sim::EventHandle app_event_;

  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
};

class TcpReceiver {
 public:
  /// `send_ack` enqueues the generated ACK packet on the reverse path
  /// (receiver's MAC toward the flow source). `deliver` reports each packet
  /// the first time it arrives (counted once for goodput/delay stats).
  TcpReceiver(Flow flow, const TcpParams& params, PacketIdGen& ids,
              EnqueueFn send_ack, std::function<void(const Packet&)> deliver);

  /// Router calls this when a data packet of this flow reaches the flow
  /// destination.
  void on_data(const Packet& p, TimeNs now);

  std::uint64_t rcv_next() const { return rcv_next_; }

 private:
  Flow flow_;
  TcpParams params_;
  PacketIdGen& ids_;
  EnqueueFn send_ack_;
  std::function<void(const Packet&)> deliver_;
  std::uint64_t rcv_next_ = 0;
  std::set<std::uint64_t> out_of_order_;
  std::set<std::uint64_t> delivered_;  // dedup for stats
};

}  // namespace dmn::traffic
