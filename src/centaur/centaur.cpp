#include "centaur/centaur.h"

#include <algorithm>

namespace dmn::centaur {
namespace {

/// Max packets released per link per batch.
constexpr std::size_t kQuota = 5;
/// Fixed backoff (slots) used by scheduled APs. One shared value aligns
/// exposed transmitters that hear each other.
constexpr int kFixedBackoffSlots = 8;
/// Controller re-poll interval when no downlink demand exists.
constexpr TimeNs kIdleRecheck = msec(1);

}  // namespace

CentaurController::CentaurController(
    sim::Simulator& sim, wired::Backbone& backbone,
    const topo::ConflictGraph& downlink_graph,
    std::map<topo::NodeId, mac::DcfNode*> ap_macs)
    : sim_(sim),
      backbone_(backbone),
      graph_(downlink_graph),
      ap_macs_(std::move(ap_macs)),
      rand_(downlink_graph) {
  // The controller owns AP downlink service from the start.
  for (auto& [id, mac] : ap_macs_) {
    (void)id;
    mac->set_service_enabled(false);
    mac->set_fixed_backoff(kFixedBackoffSlots);
  }
}

void CentaurController::start(TimeNs at) {
  sim_.post_at(at, [this] { plan_batch(); });
}

void CentaurController::plan_batch() {
  if (graph_dirty_ && outstanding_ == 0) {
    // Safe point: no release in flight holds a LinkId. Rebuild the graph in
    // place, then re-seed the fairness rotation over the new link set.
    graph_dirty_ = false;
    if (graph_refresh_) graph_refresh_();
    rand_.on_graph_changed();
  }
  std::vector<std::size_t> demand(graph_.num_links(), 0);
  for (std::size_t i = 0; i < graph_.num_links(); ++i) {
    const topo::Link& l = graph_.link(static_cast<topo::LinkId>(i));
    const auto it = ap_macs_.find(l.sender);
    if (it != ap_macs_.end()) {
      demand[i] = it->second->queued_for(l.receiver);
    }
  }
  const std::vector<topo::LinkId>& chosen = rand_.schedule_slot(demand);
  if (chosen.empty()) {
    sim_.post_in(kIdleRecheck, [this] { plan_batch(); });
    return;
  }

  ++batches_;
  outstanding_ = chosen.size();
  for (topo::LinkId l : chosen) {
    const std::size_t quota =
        std::min(kQuota, demand[static_cast<std::size_t>(l)]);
    // Dispatch travels the jittery backbone, so batch members start at
    // slightly different times — CENTAUR relies on carrier sensing plus the
    // fixed backoff to re-align them. Routed to the AP's partition queue.
    const topo::NodeId ap = graph_.link(l).sender;
    backbone_.send_to_node(ap, [this, l, quota] { release_link(l, quota); });
  }
}

void CentaurController::release_link(topo::LinkId link, std::size_t quota) {
  // Runs on the AP's partition queue (release rides the backbone), so it
  // must only touch AP-side state: the remaining quota lives in the outcome
  // hook itself, not in a controller-side map.
  const topo::Link& l = graph_.link(link);
  mac::DcfNode* ap = ap_macs_.at(l.sender);
  auto left = std::make_shared<std::size_t>(quota);
  ap->set_dest_filter(l.receiver);
  ap->set_outcome_hook(
      [this, link, ap, left](const traffic::Packet&, bool /*success*/) {
        if (*left > 0) --*left;
        const topo::Link& lk = graph_.link(link);
        if (*left == 0 || ap->queued_for(lk.receiver) == 0) {
          ap->set_service_enabled(false);
          ap->set_outcome_hook(nullptr);
          // Completion report rides the backbone back to the controller.
          backbone_.send_to_wired(lk.sender,
                                  [this, link] { link_finished(link); });
        }
      });
  ap->set_service_enabled(true);
}

void CentaurController::link_finished(topo::LinkId /*link*/) {
  if (outstanding_ > 0) --outstanding_;
  if (outstanding_ == 0) {
    plan_batch();  // epoch barrier: everyone finished, plan the next batch
  }
}

}  // namespace dmn::centaur
