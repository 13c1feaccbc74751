#include "wired/backbone.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace dmn::wired {

Backbone::Backbone(sim::Simulator& sim, const BackboneParams& params, Rng rng)
    : sim_(sim), params_(params), rng_(sim, std::move(rng)) {}

TimeNs Backbone::sample_latency(Rng& rng) {
  const double s = rng.normal(static_cast<double>(params_.mean_latency),
                              static_cast<double>(params_.sigma_latency));
  return std::max(params_.min_latency, static_cast<TimeNs>(s));
}

TimeNs Backbone::sample_latency() { return sample_latency(rng_.active()); }

void Backbone::send(std::function<void()> fn) {
  deliver(Route::kActive, topo::kNoNode, std::move(fn));
}

void Backbone::send_to_node(topo::NodeId node, std::function<void()> fn) {
  deliver(Route::kNode, node, std::move(fn));
}

void Backbone::send_to_wired(std::function<void()> fn) {
  deliver(Route::kWired, topo::kNoNode, std::move(fn));
}

void Backbone::deliver(Route route, topo::NodeId node,
                       std::function<void()> fn) {
  // Single delivery path: the unimpaired case is DeliveryMod{1, 0}, so the
  // hook-free RNG stream and event order are identical to a build without
  // fault support at all.
  Rng& rng = rng_.active();
  const TimeNs latency = sample_latency(rng);
  DeliveryMod mod;
  if (fault_hook_) mod = fault_hook_();
  if (mod.extra_latency < 0) {
    // A negative spike could deliver below min_latency and break the
    // partitioned kernel's lookahead horizon.
    throw std::invalid_argument(
        "backbone: DeliveryMod.extra_latency must be non-negative, got " +
        std::to_string(mod.extra_latency) + " ns");
  }
  if (mod.copies == 0) return;  // dropped in the wired fabric
  auto post = [this, route, node](TimeNs delay, std::function<void()> f) {
    const TimeNs at = sim_.now() + delay;
    switch (route) {
      case Route::kActive:
        sim_.post_at(at, std::move(f));
        break;
      case Route::kNode:
        sim_.post_to_queue(sim_.queue_of_node(static_cast<std::size_t>(node)),
                           at, std::move(f));
        break;
      case Route::kWired:
        sim_.post_to_queue(sim_.wired_queue_index(), at, std::move(f));
        break;
    }
  };
  // Only duplicates copy the closure; the last delivery takes it.
  for (unsigned c = 0; c < mod.copies; ++c) {
    // Duplicates take their own independently-sampled path through the
    // fabric (a retransmitting switch does not replay the original delay).
    const TimeNs delay = c == 0 ? latency : sample_latency(rng);
    post(delay + mod.extra_latency,
         c + 1 == mod.copies ? std::move(fn) : fn);
  }
}

}  // namespace dmn::wired
