#pragma once
// Per-queue RNG lanes: the one rule for splitting a component's random
// stream across the simulator's event queues.
//
// A component whose decisions are taken from several event queues (the
// backbone's latency draws, the fault injector's verdicts) must draw each
// decision from the lane of the queue that asked, so its stream is a pure
// function of that queue's event sequence and results are byte-stable at any
// worker-thread count. The lanes are forked from the component's root
// stream, in queue order, when it is built. A one-queue simulator forks
// nothing: the root is its only lane, so a single-queue run draws exactly
// the stream the root alone would give.

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace dmn::sim {

class RngLanes {
 public:
  /// Must be built after Simulator::configure_partitions (the queue count
  /// is read here, once).
  RngLanes(const Simulator& sim, Rng root) : sim_(sim) {
    const std::uint32_t queues = sim.queue_count();
    lanes_.reserve(queues + 1);
    if (queues > 1) {
      for (std::uint32_t q = 0; q < queues; ++q) lanes_.push_back(root.fork());
    }
    lanes_.push_back(std::move(root));
  }

  /// The lane of the queue the calling context runs on.
  Rng& active() { return lanes_[sim_.active_queue_index()]; }

  /// The root stream, for setup-time draws every queue shares (a fault
  /// phase, say). It is the only lane of a one-queue simulator.
  Rng& root() { return lanes_.back(); }

 private:
  const Simulator& sim_;
  /// One lane per queue, then the root; a one-queue simulator keeps just
  /// the root, which doubles as lane 0.
  std::vector<Rng> lanes_;
};

}  // namespace dmn::sim
