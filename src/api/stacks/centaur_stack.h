#pragma once
// CENTAUR: DCF at every node plus a wired controller that schedules the
// downlink conflict graph epoch by epoch.

#include <memory>
#include <vector>

#include "api/scheme_stack.h"
#include "api/stacks/dcf_stack.h"
#include "centaur/centaur.h"
#include "topo/conflict_graph.h"
#include "wired/backbone.h"

namespace dmn::api {

class CentaurStack : public SchemeStack {
 public:
  void build(StackContext& ctx, std::vector<mac::MacEntity*>& macs) override;
  void collect(ExperimentResult& result) const override;

  /// Lifecycle: the DCF substrate moves the queues; the controller is
  /// marked dirty and rebuilds its private downlink graph at the next
  /// epoch barrier (mid-batch rebuild would invalidate in-flight LinkIds).
  bool on_client_attach(topo::NodeId client, topo::NodeId to) override;
  void on_client_detach(topo::NodeId client) override;
  void on_conflict_graph_rebuilt() override;

 private:
  DcfStack dcf_;
  const topo::Topology* topo_ = nullptr;
  std::unique_ptr<topo::ConflictGraph> downlink_graph_;
  std::unique_ptr<wired::Backbone> backbone_;
  std::unique_ptr<centaur::CentaurController> controller_;
};

}  // namespace dmn::api
