#pragma once
// DOMINO: relative-schedule APs and clients, the wired controller with the
// schedule converter, per-node Gold signatures, and the ROP polling plane.

#include <map>
#include <memory>
#include <vector>

#include "api/scheme_stack.h"
#include "domino/controller.h"
#include "domino/domino_mac.h"
#include "domino/signature_plan.h"
#include "rop/poll_planner.h"
#include "wired/backbone.h"

namespace dmn::api {

class DominoStack : public SchemeStack {
 public:
  void build(StackContext& ctx, std::vector<mac::MacEntity*>& macs) override;
  void collect(ExperimentResult& result) const override;

  /// Roam/join with ROP admission control: the client takes the first free
  /// (symbol, subchannel) slot in the target AP's slot table — a rejoin at
  /// the same AP keeps its old slot if it is still free — or is rejected
  /// when every slot is taken (rop.client_capacity()). On success the old
  /// AP's downlink backlog and the client's uplink dedup filter move over
  /// (so a lost-ACK retransmit stays deduplicated), and the controller
  /// forgets its per-link estimates.
  bool on_client_attach(topo::NodeId client, topo::NodeId to) override;
  void on_client_detach(topo::NodeId client) override;
  void on_conflict_graph_rebuilt() override;

 private:
  /// Frees the client's slot at `ap` and re-announces the AP's symbols.
  void release_slot(topo::NodeId client, topo::NodeId ap);

  std::unique_ptr<domino::SignaturePlan> signatures_;
  std::unique_ptr<wired::Backbone> backbone_;
  std::unique_ptr<domino::DominoController> controller_;
  std::vector<std::unique_ptr<domino::DominoApMac>> aps_;
  std::vector<std::unique_ptr<domino::DominoClientMac>> clients_;

  // Lifecycle plumbing.
  const topo::Topology* topo_ = nullptr;
  std::map<topo::NodeId, rop::SlotTable> slots_;
  std::map<topo::NodeId, domino::DominoApMac*> ap_map_;
  std::map<topo::NodeId, domino::DominoClientMac*> client_map_;
};

}  // namespace dmn::api
