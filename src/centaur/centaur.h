#pragma once
// CENTAUR-style hybrid data path (Shrivastava et al., MobiCom'09), the
// paper's strongest prior-work comparison.
//
// Downlink: the central controller groups non-conflicting downlink links
// into batches and releases a per-link packet quota to each AP over the
// jittery wired backbone. Released APs contend with carrier sensing and a
// *fixed* backoff so exposed transmissions align. The next batch is
// dispatched only after every AP in the current batch reports completion —
// the epoch barrier that makes CENTAUR underperform DCF on the Figure 13(b)
// topology.
//
// Uplink: untouched clients run plain DCF and disturb the schedule, exactly
// as §1/§6 describe.

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "domino/rand_scheduler.h"
#include "mac/dcf.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "wired/backbone.h"

namespace dmn::centaur {

class CentaurController {
 public:
  /// `downlink_graph` must contain only AP->client links. `ap_macs` maps
  /// every AP NodeId to its (gated) DcfNode; the controller takes over
  /// service gating for those nodes.
  CentaurController(sim::Simulator& sim, wired::Backbone& backbone,
                    const topo::ConflictGraph& downlink_graph,
                    std::map<topo::NodeId, mac::DcfNode*> ap_macs);

  void start(TimeNs at);

  std::uint64_t batches_dispatched() const { return batches_; }

  /// Deferred downlink-graph refresh (roam / churn). `refresh` rebuilds the
  /// referenced graph IN PLACE; it is invoked at the next plan_batch entry
  /// with no links outstanding. Rebuilding mid-batch is unsafe: the
  /// release/outcome hooks capture LinkIds and dereference graph_.link()
  /// while their quota is in flight.
  void set_graph_refresh(std::function<void()> refresh) {
    graph_refresh_ = std::move(refresh);
  }
  void request_graph_refresh() { graph_dirty_ = true; }

 private:
  void plan_batch();
  void release_link(topo::LinkId link, std::size_t quota);
  void link_finished(topo::LinkId link);

  sim::Simulator& sim_;
  wired::Backbone& backbone_;
  const topo::ConflictGraph& graph_;
  std::map<topo::NodeId, mac::DcfNode*> ap_macs_;
  domino::RandScheduler rand_;

  std::function<void()> graph_refresh_;
  bool graph_dirty_ = false;

  std::size_t outstanding_ = 0;  // links in flight in the current batch
  std::uint64_t batches_ = 0;
};

}  // namespace dmn::centaur
