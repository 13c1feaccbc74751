#include "omni/omniscient.h"

#include <algorithm>

namespace dmn::omni {

OmniNodeMac::OmniNodeMac(sim::Simulator& sim, phy::Medium& medium,
                         topo::NodeId node, const mac::WifiParams& params,
                         mac::DeliveryFn deliver)
    : MacEntity(sim, params.queue_capacity),
      sim_(sim),
      radio_(medium, node, this),
      params_(params),
      deliver_(std::move(deliver)) {}

void OmniNodeMac::on_frame_rx(const phy::Frame& frame,
                              const phy::RxInfo& info) {
  if (!info.decoded) return;
  if (frame.type != phy::FrameType::kData) return;
  if (frame.dst != radio_.node() || !frame.packet.has_value()) return;
  deliver_(*frame.packet, radio_.node(), sim_.now());
}

OmniscientScheduler::OmniscientScheduler(sim::Simulator& sim,
                                         phy::Medium& medium,
                                         const topo::ConflictGraph& graph,
                                         const mac::WifiParams& params,
                                         std::vector<OmniNodeMac*> nodes)
    : sim_(sim),
      medium_(medium),
      graph_(graph),
      params_(params),
      nodes_(std::move(nodes)),
      rand_(graph) {}

void OmniscientScheduler::start(TimeNs at) {
  sim_.post_at(at, [this] { run_slot(); });
}

TimeNs OmniscientScheduler::slot_duration(std::size_t payload_bytes) const {
  // Genie overhead: just the frame plus a SIFS turnaround guard.
  return params_.data_airtime(payload_bytes) + params_.sifs;
}

std::size_t OmniscientScheduler::link_demand(topo::LinkId l) {
  const topo::Link& link = graph_.link(l);
  OmniNodeMac* n = nodes_.at(static_cast<std::size_t>(link.sender));
  return n == nullptr ? 0 : n->queue().count_for(link.receiver);
}

void OmniscientScheduler::run_slot() {
  std::vector<std::size_t> demand(graph_.num_links());
  for (std::size_t i = 0; i < demand.size(); ++i) {
    demand[i] = link_demand(static_cast<topo::LinkId>(i));
  }
  const std::vector<topo::LinkId>& chosen = rand_.schedule_slot(demand);

  std::size_t max_payload = 0;
  for (topo::LinkId l : chosen) {
    const topo::Link& link = graph_.link(l);
    OmniNodeMac* n = nodes_.at(static_cast<std::size_t>(link.sender));
    auto pkt = n->queue().pop_for(link.receiver);
    if (!pkt) continue;
    max_payload = std::max(max_payload, pkt->bytes);
    phy::Frame f;
    f.type = phy::FrameType::kData;
    f.dst = link.receiver;
    f.bytes = pkt->bytes + params_.mac_header_bytes;
    f.duration = params_.data_airtime(pkt->bytes);
    f.packet_id = pkt->id;
    f.packet = std::move(*pkt);
    n->radio().send(f);
  }

  // Idle slots poll again quickly (the genie notices new arrivals at once).
  const TimeNs next = chosen.empty() || max_payload == 0
                          ? params_.slot_time
                          : slot_duration(max_payload);
  sim_.post_in(next, [this] { run_slot(); });
}

}  // namespace dmn::omni
