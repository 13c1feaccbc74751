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
// Each AP has two random streams, forked from the backbone's root in
// ascending AP-id order at construction: one for controller->AP messages
// and one for AP->controller messages. A message draws its latency and its
// fault verdict from the stream of the AP endpoint it names, so the draws
// are a pure function of that AP's message sequence, whatever event queue
// sends it: results are the same on one queue and on K queues. Each stream
// is drawn by one queue only (the controller's draws the controller->AP
// streams, an AP's queue its AP->controller stream), so no draw races.
//
// Partitioned kernel: the constructor declares the backbone as a
// cross-queue channel with floor min_latency
// (Simulator::add_cross_queue_channel), which bounds the kernel's lookahead
// (src/sim/simulator.h), so every delivery — including every faulted copy —
// must take at least min_latency. A backbone must therefore be built before
// the first event runs, and min_latency must be positive. send_to_node()
// delivers on the AP's event queue, send_to_wired() on the wired queue.

#include <cstdint>
#include <functional>
#include <vector>

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
  /// `aps` names every AP endpoint the backbone serves. Declares the
  /// backbone's cross-queue channel on `sim`: throws std::invalid_argument
  /// when params.min_latency is not positive, and std::logic_error once an
  /// event of `sim` has run.
  Backbone(sim::Simulator& sim, const BackboneParams& params,
           std::vector<topo::NodeId> aps, Rng rng);

  /// Installs the fault hook consulted once per message, with the stream
  /// the message draws from. Null (the default) means every message is
  /// delivered exactly once.
  using FaultHook = std::function<DeliveryMod(Rng&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Delivers `fn` on `ap`'s event queue after one sampled one-way latency
  /// — or, under a fault hook, zero/one/two independently-delayed copies
  /// (a dispatch or release headed for the AP). Throws
  /// std::invalid_argument when `ap` is not one of the backbone's APs.
  void send_to_node(topo::NodeId ap, std::function<void()> fn);

  /// Same, but from `ap` to the controller, on the wired queue (an AP
  /// report or completion notice).
  void send_to_wired(topo::NodeId ap, std::function<void()> fn);

  const BackboneParams& params() const { return params_; }

 private:
  /// Index of `ap`'s stream pair.
  std::size_t endpoint(topo::NodeId ap) const;
  void deliver(std::uint32_t queue, Rng& rng, std::function<void()> fn);
  TimeNs sample_latency(Rng& rng) const;

  sim::Simulator& sim_;
  BackboneParams params_;
  std::vector<topo::NodeId> aps_;  // ascending
  std::vector<Rng> to_ap_;         // controller->AP, parallel to aps_
  std::vector<Rng> to_wired_;      // AP->controller, parallel to aps_
  FaultHook fault_hook_;
};

}  // namespace dmn::wired
