#pragma once
// 802.11 DCF: one contention-based DcfNode per node, no controller.

#include <memory>
#include <vector>

#include "api/scheme_stack.h"
#include "mac/dcf.h"

namespace dmn::api {

class DcfStack : public SchemeStack {
 public:
  void build(StackContext& ctx, std::vector<mac::MacEntity*>& macs) override;
  void collect(ExperimentResult& result) const override;

  /// Roam/join: hand queued downlink packets from the old AP to the new
  /// one (rewriting their source) and retarget the client's uplink queue.
  /// DCF has no admission control — always succeeds.
  bool on_client_attach(topo::NodeId client, topo::NodeId to) override;
  /// Leave: drop the old AP's downlink backlog for the client (retrying
  /// toward a silenced radio would only burn airtime).
  void on_client_detach(topo::NodeId client) override;

  /// CENTAUR composes on top of the DCF substrate and needs the concrete
  /// nodes to hand its controller the AP-side queues.
  const std::vector<std::unique_ptr<mac::DcfNode>>& nodes() const {
    return nodes_;
  }

 private:
  std::vector<std::unique_ptr<mac::DcfNode>> nodes_;
  const topo::Topology* topo_ = nullptr;
};

}  // namespace dmn::api
