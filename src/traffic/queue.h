#pragma once
// Bounded FIFO MAC queue with drop-tail accounting.

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "traffic/packet.h"

namespace dmn::traffic {

class PacketQueue {
 public:
  explicit PacketQueue(std::size_t capacity = 100) : capacity_(capacity) {}

  /// Enqueues; returns false (and counts a drop) when full.
  bool push(Packet p);

  /// Removes and returns the head, if any.
  std::optional<Packet> pop();

  /// Peeks the head (nullptr when empty).
  const Packet* front() const;

  /// Removes the first packet destined to `dst`, if any (DOMINO APs pick by
  /// scheduled destination).
  std::optional<Packet> pop_for(topo::NodeId dst);

  /// First packet destined to `dst` (nullptr if none).
  const Packet* front_for(topo::NodeId dst) const;

  std::size_t size() const { return q_.size(); }
  bool empty() const { return q_.empty(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Number of queued packets for a destination.
  std::size_t count_for(topo::NodeId dst) const;
  /// Number of distinct destinations with queued packets.
  std::size_t destinations() const { return counts_.size(); }

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

 private:
  struct DstCount {
    topo::NodeId dst;
    std::size_t packets;
  };
  void count_add(topo::NodeId dst, std::size_t n);
  void count_sub(topo::NodeId dst, std::size_t n);

  std::size_t capacity_;
  std::deque<Packet> q_;
  /// Queued packets per destination, one entry per destination present
  /// (none at zero), in no particular order. Sized by the destinations a
  /// queue actually holds — a client's queue holds one — never by the
  /// node count.
  std::vector<DstCount> counts_;
  std::uint64_t dropped_ = 0;
};

}  // namespace dmn::traffic
