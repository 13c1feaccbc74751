#pragma once
// Shared 802.11g MAC parameters and the MAC-entity/delivery interfaces all
// schemes (DCF, CENTAUR, Omniscient, DOMINO) implement.

#include <algorithm>
#include <functional>
#include <vector>

#include "phy/transceiver.h"
#include "sim/simulator.h"
#include "traffic/queue.h"
#include "util/time.h"

namespace dmn::mac {

struct WifiParams {
  /// 802.11g MAC timing and framing: fixed by the standard, not settable.
  static constexpr TimeNs slot_time = usec(9);
  static constexpr TimeNs sifs = usec(10);
  static constexpr int cw_min = 15;
  static constexpr int cw_max = 1023;
  static constexpr int retry_limit = 7;
  static constexpr double control_rate_bps = 6e6;  // ACKs / polls, base rate
  static constexpr std::size_t mac_header_bytes = 28;  // header + FCS
  static constexpr std::size_t ack_bytes = 14;

  double data_rate_bps = 12e6;  // paper §4.2.1
  std::size_t queue_capacity = 100;

  TimeNs difs() const { return sifs + 2 * slot_time; }

  /// Airtime of a data frame carrying `payload_bytes`.
  TimeNs data_airtime(std::size_t payload_bytes) const {
    return phy::frame_airtime(payload_bytes + mac_header_bytes,
                              data_rate_bps);
  }
  TimeNs ack_airtime() const {
    return phy::frame_airtime(ack_bytes, control_rate_bps);
  }
  /// Sender-side wait for the ACK after its data frame ends.
  TimeNs ack_timeout() const { return sifs + ack_airtime() + slot_time; }
  /// Extended IFS after an undecodable frame.
  TimeNs eifs() const { return sifs + ack_airtime() + difs(); }
};

/// Called when a data packet is decoded at its MAC destination.
using DeliveryFn =
    std::function<void(const traffic::Packet&, topo::NodeId at, TimeNs now)>;

/// Per-node MAC entity. It owns the node's transmit queue, which the
/// traffic layer feeds two ways: TCP pushes packets through enqueue(), and
/// CBR flows attach their arrival processes with add_arrivals(). The queue
/// runs on the clock of the node's event queue (traffic/queue.h).
class MacEntity {
 public:
  MacEntity(const sim::Simulator& sim, std::size_t queue_capacity)
      : queue_(queue_capacity, sim) {}
  virtual ~MacEntity() = default;
  MacEntity(const MacEntity&) = delete;
  MacEntity& operator=(const MacEntity&) = delete;

  /// Accepts a packet for transmission, stamping Packet::enqueued; false
  /// when the queue dropped it.
  virtual bool enqueue(traffic::Packet p) {
    p.enqueued = queue_.now();
    return queue_.push(std::move(p));
  }

  /// Attaches a CBR flow's arrival process to this node's queue.
  void add_arrivals(const traffic::CbrArrivals& a) {
    queue_.add_arrivals(a);
    on_arrivals_added();
  }

  traffic::PacketQueue& queue() { return queue_; }
  std::size_t queue_size() { return queue_.size(); }

 protected:
  /// Called after add_arrivals. Only a MAC that reacts to an arrival by
  /// itself (an idle DCF) needs it.
  virtual void on_arrivals_added() {}

  traffic::PacketQueue queue_;
};

/// A set of packet ids (the receivers' duplicate filters) in one sorted
/// vector. Ids mostly arrive rising, so an insert usually appends, and
/// erasing the smallest id only moves the start of the live range.
class PacketIdSet {
 public:
  /// Inserts `id`; returns true if it was new.
  bool insert(traffic::PacketId id) {
    const auto it = find(id);
    if (it != ids_.end() && *it == id) return false;
    ids_.insert(it, id);
    return true;
  }
  bool contains(traffic::PacketId id) const {
    return std::binary_search(ids_.begin() + lo_, ids_.end(), id);
  }
  void erase(traffic::PacketId id) {
    const auto it = find(id);
    if (it == ids_.end() || *it != id) return;
    if (it != ids_.begin() + lo_) {
      ids_.erase(it);
      return;
    }
    // Compact once the erased prefix outgrows the live ids.
    if (++lo_ > size()) {
      ids_.erase(ids_.begin(), ids_.begin() + lo_);
      lo_ = 0;
    }
  }
  std::size_t size() const { return ids_.size() - lo_; }
  void clear() {
    ids_.clear();
    lo_ = 0;
  }

 private:
  std::vector<traffic::PacketId>::iterator find(traffic::PacketId id) {
    return std::lower_bound(ids_.begin() + lo_, ids_.end(), id);
  }

  std::vector<traffic::PacketId> ids_;  // sorted; [0, lo_) is erased
  std::size_t lo_ = 0;
};

}  // namespace dmn::mac
