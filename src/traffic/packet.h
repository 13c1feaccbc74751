#pragma once
// Packets and flows as the MAC layer sees them.
//
// The paper fixes the data packet size (512 B) and treats every MAC-layer
// payload — including TCP ACKs — as a regular data packet (§4.2.3), which is
// why TCP ACKs burn a whole DOMINO slot. A Packet therefore carries its TCP
// role as metadata rather than as a distinct frame type.

#include <cstdint>

#include "topo/node.h"
#include "util/time.h"

namespace dmn::traffic {

using PacketId = std::uint64_t;
using FlowId = int;

struct Flow {
  FlowId id = -1;
  topo::NodeId src = topo::kNoNode;
  topo::NodeId dst = topo::kNoNode;
};

struct Packet {
  PacketId id = 0;
  FlowId flow = -1;
  topo::NodeId src = topo::kNoNode;
  topo::NodeId dst = topo::kNoNode;
  std::size_t bytes = 512;

  TimeNs created = 0;   // when the application produced it
  TimeNs enqueued = 0;  // when it entered the MAC queue (delay reference)

  // TCP metadata (unused for UDP).
  std::uint64_t tcp_seq = 0;
  std::uint64_t tcp_ack_no = 0;  // cumulative ack carried (ack packets)
  bool tcp_is_ack = false;
};

/// Monotonically increasing packet id source, one lane per event queue with
/// disjoint bases (queue << 44), so ids stay globally unique without
/// cross-queue coordination; lane 0 yields 1, 2, 3, ... A MAC queue draws a
/// CBR arrival's id when it materialises the arrival (traffic/queue.h), not
/// at t_k, and only when it builds the packet: a drop nobody observes draws
/// none. Ids therefore rise with arrival time within one queue but not
/// across queues, and differ between audited and unaudited runs. They only
/// feed equality checks (ACK matching, duplicate filters, the auditor's
/// ledger) and the age order of one AP's own retry table, never a result.
class PacketIdGen {
 public:
  explicit PacketIdGen(PacketId base = 0) : last_(base) {}

  PacketId next() { return ++last_; }

 private:
  PacketId last_ = 0;
};

}  // namespace dmn::traffic
