#pragma once
// The omniscient strict scheduler — the genie upper bound of Figure 2.
//
// A central brain with perfect time synchronization and instantaneous
// knowledge of every queue (AP *and* client) runs the RAND greedy scheduler
// each slot and fires all chosen transmitters simultaneously. No polling,
// no signatures, no backbone jitter, no ACK overhead: the only airtime cost
// is the data frame plus a SIFS guard. Transmissions still traverse the
// SINR medium, so an (impossible) bad schedule would still collide.

#include <memory>
#include <vector>

#include "domino/rand_scheduler.h"
#include "mac/mac_common.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "traffic/queue.h"

namespace dmn::omni {

/// Per-node queue holder + receiver.
class OmniNodeMac final : public mac::MacEntity, public phy::MediumClient {
 public:
  OmniNodeMac(sim::Simulator& sim, phy::Medium& medium, topo::NodeId node,
              const mac::WifiParams& params, mac::DeliveryFn deliver);

  void on_frame_rx(const phy::Frame& frame, const phy::RxInfo& info) override;

  phy::Transceiver& radio() { return radio_; }

 private:
  sim::Simulator& sim_;
  phy::Transceiver radio_;
  mac::WifiParams params_;
  mac::DeliveryFn deliver_;
};

class OmniscientScheduler {
 public:
  OmniscientScheduler(sim::Simulator& sim, phy::Medium& medium,
                      const topo::ConflictGraph& graph,
                      const mac::WifiParams& params,
                      std::vector<OmniNodeMac*> nodes);

  /// Begins the slotted loop at `at`.
  void start(TimeNs at);

  TimeNs slot_duration(std::size_t payload_bytes) const;

 private:
  void run_slot();
  std::size_t link_demand(topo::LinkId l);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  const topo::ConflictGraph& graph_;
  mac::WifiParams params_;
  std::vector<OmniNodeMac*> nodes_;  // indexed by NodeId
  domino::RandScheduler rand_;
};

}  // namespace dmn::omni
