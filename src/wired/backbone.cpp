#include "wired/backbone.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace dmn::wired {

Backbone::Backbone(sim::Simulator& sim, const BackboneParams& params,
                   std::vector<topo::NodeId> aps, Rng rng)
    : sim_(sim), params_(params), aps_(std::move(aps)) {
  // Every delivery, faulted copies included, takes at least min_latency.
  sim_.add_cross_queue_channel(params_.min_latency);
  std::sort(aps_.begin(), aps_.end());
  to_ap_.reserve(aps_.size());
  to_wired_.reserve(aps_.size());
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    to_ap_.push_back(rng.fork());
    to_wired_.push_back(rng.fork());
  }
}

std::size_t Backbone::endpoint(topo::NodeId ap) const {
  const auto it = std::lower_bound(aps_.begin(), aps_.end(), ap);
  if (it == aps_.end() || *it != ap) {
    throw std::invalid_argument("backbone: node " + std::to_string(ap) +
                                " is not an AP endpoint");
  }
  return static_cast<std::size_t>(it - aps_.begin());
}

TimeNs Backbone::sample_latency(Rng& rng) const {
  const double s = rng.normal(static_cast<double>(params_.mean_latency),
                              static_cast<double>(params_.sigma_latency));
  return std::max(params_.min_latency, static_cast<TimeNs>(s));
}

void Backbone::send_to_node(topo::NodeId ap, std::function<void()> fn) {
  deliver(sim_.queue_of_node(static_cast<std::size_t>(ap)),
          to_ap_[endpoint(ap)], std::move(fn));
}

void Backbone::send_to_wired(topo::NodeId ap, std::function<void()> fn) {
  deliver(sim_.wired_queue_index(), to_wired_[endpoint(ap)], std::move(fn));
}

void Backbone::deliver(std::uint32_t queue, Rng& rng,
                       std::function<void()> fn) {
  // Single delivery path: the unimpaired case is DeliveryMod{1, 0}, so the
  // hook-free RNG stream and event order are identical to a build without
  // fault support at all.
  const TimeNs latency = sample_latency(rng);
  DeliveryMod mod;
  if (fault_hook_) mod = fault_hook_(rng);
  if (mod.extra_latency < 0) {
    // A negative spike could deliver below min_latency and break the
    // partitioned kernel's lookahead horizon.
    throw std::invalid_argument(
        "backbone: DeliveryMod.extra_latency must be non-negative, got " +
        std::to_string(mod.extra_latency) + " ns");
  }
  // Only duplicates copy the closure; the last delivery takes it. Zero
  // copies: dropped in the wired fabric.
  for (unsigned c = 0; c < mod.copies; ++c) {
    // Duplicates take their own independently-sampled path through the
    // fabric (a retransmitting switch does not replay the original delay).
    const TimeNs delay = c == 0 ? latency : sample_latency(rng);
    sim_.post_to_queue(queue, sim_.now() + delay + mod.extra_latency,
                       c + 1 == mod.copies ? std::move(fn) : fn);
  }
}

}  // namespace dmn::wired
