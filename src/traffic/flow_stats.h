#pragma once
// Per-flow delivery accounting and the evaluation metrics: throughput,
// mean packet delay (queued -> delivered, §4.2.4) and Jain's fairness index.

#include <span>
#include <vector>

#include "traffic/packet.h"

namespace dmn::traffic {

class FlowStats {
 public:
  /// Pre-registers a flow's accounting slot. Partitioned runs register
  /// every sourced flow up front so record_* calls from concurrent
  /// partition queues hit existing slots and never resize the table
  /// (per-flow counters are only ever touched by the flow's own
  /// partition).
  void ensure_flow(FlowId flow) { slot(flow); }

  // Flow ids are non-negative (experiments number them 0, 1, 2, ...).

  /// Records a successful MAC-level delivery (UDP) or first in-order
  /// arrival (TCP). Delay is measured from Packet::enqueued.
  void record_delivery(const Packet& p, TimeNs now);

  std::uint64_t delivered(FlowId flow) const;
  std::uint64_t delivered_bytes(FlowId flow) const;

  /// Delivered bits / duration.
  double throughput_bps(FlowId flow, TimeNs duration) const;
  double aggregate_throughput_bps(TimeNs duration) const;

  /// Mean enqueue->delivery delay in microseconds (0 when nothing landed).
  double mean_delay_us(FlowId flow) const;
  double mean_delay_us_all() const;

  /// Registered flows, ascending.
  std::vector<FlowId> flows() const;

  /// Jain's fairness index over per-flow throughputs:
  /// (sum x)^2 / (n * sum x^2); 1.0 is perfectly fair.
  static double jain_index(std::span<const double> xs);

 private:
  struct PerFlow {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double delay_sum_ns = 0.0;
    bool registered = false;  // ensure_flow or a record_* call saw it
  };
  /// The flow's slot, registering it (and growing the table) if new.
  PerFlow& slot(FlowId flow);
  /// The flow's slot if registered, else nullptr.
  const PerFlow* find(FlowId flow) const;

  /// Indexed by flow id; aggregates visit registered slots in id order.
  std::vector<PerFlow> flows_;
};

}  // namespace dmn::traffic
