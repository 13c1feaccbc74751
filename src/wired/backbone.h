#pragma once
// The wired backbone between APs and the central server.
//
// The paper models per-message latency as Normal(mean 285 us, sigma 22 us)
// following CENTAUR's measurements, and sweeps sigma 20-80 us for the
// misalignment study (Figure 11). This jitter is exactly what breaks strict
// scheduling and what Relative Scheduling tolerates.
//
// Every message — controller dispatch, AP report, CENTAUR release — routes
// through one delivery path: sample the Gaussian latency, ask the optional
// fault hook for a DeliveryMod (drop / duplicate / latency spike), then
// schedule the surviving copies. Nothing in the system may assume a
// backbone message arrives exactly once.
//
// Partitioned kernel: min_latency is the conservative lookahead bound of
// src/sim/simulator.h, so every delivery — including every faulted copy —
// must take at least min_latency. send_to_node()/send_to_wired() route a
// delivery to the destination's event queue, and each queue samples from
// its own RNG lane (sim/rng_lanes.h) so the latency stream is a pure
// function of the sending queue's computation (byte-stable at any thread
// count).

#include <functional>

#include "sim/rng_lanes.h"
#include "sim/simulator.h"
#include "topo/node.h"
#include "util/rng.h"
#include "util/time.h"

namespace dmn::wired {

struct BackboneParams {
  TimeNs mean_latency = usec(285);
  TimeNs sigma_latency = usec(22);
  TimeNs min_latency = usec(20);  // physical floor; Normal tail clamp
};

/// Fault verdict for one message: how many copies to deliver (0 = dropped,
/// 2 = duplicated) and extra latency added to every copy (a spike). The
/// extra latency must be non-negative — a fault may delay a message but can
/// never deliver it below the min_latency floor the partitioned kernel's
/// lookahead is derived from.
struct DeliveryMod {
  unsigned copies = 1;
  TimeNs extra_latency = 0;
};

class Backbone {
 public:
  Backbone(sim::Simulator& sim, const BackboneParams& params, Rng rng);

  /// Installs the fault hook consulted once per send(). Null (the default)
  /// means every message is delivered exactly once.
  using FaultHook = std::function<DeliveryMod()>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Delivers `fn` after one sampled one-way latency — or, under a fault
  /// hook, zero/one/two independently-delayed copies — on the caller's own
  /// event queue.
  void send(std::function<void()> fn);

  /// Same, but delivers on `node`'s event queue (an AP-bound dispatch or
  /// release). Equivalent to send() when the simulator is not partitioned.
  void send_to_node(topo::NodeId node, std::function<void()> fn);

  /// Same, but delivers on the wired queue (an AP report or completion
  /// notice headed for a controller).
  void send_to_wired(std::function<void()> fn);

  /// One latency sample (exposed for tests and the Fig-11 study).
  TimeNs sample_latency();

  const BackboneParams& params() const { return params_; }

 private:
  enum class Route { kActive, kNode, kWired };

  void deliver(Route route, topo::NodeId node, std::function<void()> fn);
  TimeNs sample_latency(Rng& rng);

  sim::Simulator& sim_;
  BackboneParams params_;
  sim::RngLanes rng_;
  FaultHook fault_hook_;
};

}  // namespace dmn::wired
