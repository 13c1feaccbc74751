#pragma once
// Bounded FIFO MAC queue with drop-tail accounting, fed by direct pushes
// (TCP segments and ACKs, roaming hand-offs) and by the constant-bit-rate
// arrival processes it owns (the paper's UDP workload, §4.2.1).
//
// A CBR flow's arrivals are closed-form, t_k = start + k * interval, so they
// cost no simulator event: the queue keeps each flow's next arrival time and
// materialises every arrival with t_k <= its owner's clock, in time order,
// whenever anything reads it (every accessor below settles first). This is
// exact because occupancy falls only at dequeues, and every dequeue is a
// read: drop-tail admission at catch-up sees the occupancy the queue had at
// t_k. Same-tick arrivals of different flows enter in ascending flow id.
//
// Arrivals settle to the clock of the event queue that reads the MAC
// queue, which is always the one carrying its owning node: no controller
// reads a node's queue from another event queue (the schemes whose
// controllers read node state synchronously keep one queue).

#include <cstddef>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "sim/simulator.h"
#include "traffic/packet.h"

namespace dmn::traffic {

/// Sees every arrival a queue materialises, in arrival order: the auditor's
/// conservation ledger.
class OfferObserver {
 public:
  /// An arrival was offered to the queue (before admission).
  virtual void on_offered(const Packet& p) = 0;
  /// Drop-tail rejected the offered arrival.
  virtual void on_offer_rejected(PacketId id, FlowId flow) = 0;

 protected:
  ~OfferObserver() = default;
};

/// A constant-bit-rate flow's arrival process.
struct CbrArrivals {
  Flow flow;
  std::size_t bytes = 512;
  TimeNs interval = 1;  ///< > 0
  TimeNs next = 0;      ///< t_k of the next arrival not yet materialised
  /// False while the flow's client is absent: its arrivals are skipped,
  /// never offered.
  bool active = true;
  PacketIdGen* ids = nullptr;  ///< lane the packet ids come from
  OfferObserver* observer = nullptr;  ///< optional
};

/// Spacing of `packet_bytes`-sized packets at `rate_bps` (> 0), in whole
/// nanoseconds and at least 1.
TimeNs cbr_interval(double rate_bps, std::size_t packet_bytes);

class PacketQueue {
 public:
  /// A queue without a clock: it accepts pushes but no arrival processes.
  explicit PacketQueue(std::size_t capacity = 100) : capacity_(capacity) {}
  /// A queue whose arrivals settle to the clock of `sim`.
  PacketQueue(std::size_t capacity, const sim::Simulator& sim)
      : capacity_(capacity), sim_(&sim) {}

  /// Enqueues; returns false (and counts a drop) when full.
  bool push(Packet p);

  /// Removes and returns the head, if any.
  std::optional<Packet> pop();

  /// Peeks the head (nullptr when empty).
  const Packet* front();

  /// Removes the first packet destined to `dst`, if any (DOMINO APs pick by
  /// scheduled destination).
  std::optional<Packet> pop_for(topo::NodeId dst);

  /// First packet destined to `dst` (nullptr if none).
  const Packet* front_for(topo::NodeId dst);

  std::size_t size() {
    settle();
    return q_.size();
  }
  bool empty() { return size() == 0; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() {
    settle();
    return dropped_;
  }

  /// Number of queued packets for a destination.
  std::size_t count_for(topo::NodeId dst);
  /// Number of distinct destinations with queued packets.
  std::size_t destinations() {
    settle();
    return counts_.size();
  }

  // ---- lifecycle (roaming hand-off) -------------------------------------

  /// Removes and returns every packet destined to `dst`, in queue order,
  /// except the one whose id equals `exclude` (a MAC's in-flight head must
  /// stay queued so its completion path pops the packet it transmitted).
  std::vector<Packet> extract_for(topo::NodeId dst,
                                  std::optional<PacketId> exclude = {});

  /// Rewrites the destination of every queued packet addressed to `from`
  /// (a client's uplink packets carry the AP as destination; roaming
  /// retargets them to the new AP). Returns the number rewritten.
  std::size_t retarget(topo::NodeId from, topo::NodeId to);

  // ---- CBR arrivals ------------------------------------------------------

  /// Adds a flow's arrival process; its first arrival is at `a.next`.
  /// Throws std::logic_error on a queue without a clock.
  void add_arrivals(const CbrArrivals& a);
  /// Removes and returns the flow's arrival process, settled to the
  /// owner's clock (an inactive flow's arrivals up to then are skipped);
  /// nullopt when this queue holds none.
  std::optional<CbrArrivals> take_arrivals(FlowId flow);
  /// Time of the earliest arrival not yet materialised (kTimeNever when no
  /// active flow remains). Always after the owner's clock.
  TimeNs next_arrival() {
    settle();
    return next_due_ == kNoArrival ? kTimeNever : next_due_;
  }
  /// The owner's clock (0 on a queue without one).
  TimeNs now() const { return sim_ == nullptr ? 0 : sim_->now(); }
  /// Materialises every arrival up to the owner's clock. Every accessor
  /// does this first; call it directly to account arrivals nobody read
  /// (the horizon flush).
  void settle() {
    if (next_due_ == kNoArrival) return;
    const TimeNs t = now();
    if (next_due_ <= t) materialise(t);
  }

 private:
  struct DstCount {
    topo::NodeId dst;
    std::size_t packets;
  };
  void count_add(topo::NodeId dst, std::size_t n);
  void count_sub(topo::NodeId dst, std::size_t n);

  void materialise(TimeNs now);
  /// Offers the flow's next arrival and advances it.
  void offer(CbrArrivals& f);
  /// Active flow with the earliest next arrival, lowest flow id on ties
  /// (nullptr when none).
  CbrArrivals* earliest();

  std::size_t capacity_;
  std::deque<Packet> q_;
  /// Queued packets per destination, one entry per destination present
  /// (none at zero), in no particular order. Sized by the destinations a
  /// queue actually holds — a client's queue holds one — never by the
  /// node count.
  std::vector<DstCount> counts_;
  std::uint64_t dropped_ = 0;

  const sim::Simulator* sim_ = nullptr;
  /// Arrival processes, ascending flow id.
  std::vector<CbrArrivals> flows_;
  /// Earliest next arrival of an active flow, kNoArrival when none.
  static constexpr TimeNs kNoArrival = std::numeric_limits<TimeNs>::max();
  TimeNs next_due_ = kNoArrival;
};

}  // namespace dmn::traffic
