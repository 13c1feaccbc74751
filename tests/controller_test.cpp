// Unit tests for the DOMINO central controller: batch cadence, plan
// dispatch, demand handling from ROP reports and the downlink peek, and
// batch connection across plans.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "domino/controller.h"
#include "domino/signature_plan.h"
#include "topo/conflict_graph.h"
#include "topo/topology.h"
#include "wired/backbone.h"

namespace dmn::domino {
namespace {

struct ControllerHarness {
  sim::Simulator sim;
  topo::Topology topo;
  std::vector<topo::Link> links;
  topo::ConflictGraph graph;
  SignaturePlan signatures;
  wired::Backbone backbone;
  DominoParams params;
  std::unique_ptr<DominoController> ctrl;
  std::vector<ApSchedule> dispatched;
  std::map<std::pair<topo::NodeId, topo::NodeId>, std::size_t>
      downlink_backlog;

  static topo::Topology make_topo() {
    topo::ManualTopologyBuilder b;
    const auto a0 = b.add_ap();
    const auto a1 = b.add_ap();
    b.add_client(a0);  // 2
    b.add_client(a1);  // 3
    b.sense(a0, a1);
    return b.build();
  }

  ControllerHarness()
      : topo(make_topo()),
        links(topo.make_links(true, true)),
        graph(topo::ConflictGraph::build(topo, links)),
        signatures(topo.num_nodes()),
        backbone(sim, {}, Rng(4)) {
    params.batch_slots = 6;
    ctrl = std::make_unique<DominoController>(
        sim, backbone, topo, graph, signatures, params, ConverterParams{},
        usec(470), usec(150));
    ctrl->set_dispatch(
        [this](const ApSchedule& plan) { dispatched.push_back(plan); });
    ctrl->set_downlink_peek([this](const topo::Link& l) {
      const auto it = downlink_backlog.find({l.sender, l.receiver});
      return it == downlink_backlog.end() ? std::size_t{0} : it->second;
    });
  }
};

TEST(Controller, DispatchesPlansToEveryActiveAp) {
  ControllerHarness h;
  h.downlink_backlog[{0, 2}] = 5;
  h.downlink_backlog[{1, 3}] = 5;
  h.ctrl->start(0);
  h.sim.run_until(msec(2));
  ASSERT_GE(h.dispatched.size(), 2u);
  bool saw0 = false, saw1 = false;
  for (const auto& p : h.dispatched) {
    saw0 = saw0 || p.ap == 0;
    saw1 = saw1 || p.ap == 1;
    EXPECT_FALSE(p.slots.empty());
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST(Controller, PlansKeepComingOnTimeoutWithoutReports) {
  ControllerHarness h;
  h.ctrl->start(0);
  h.sim.run_until(msec(30));
  // Even with zero demand and no ROP reports, the fallback timer paces
  // batches (fake maximal covers keep the chain alive).
  EXPECT_GE(h.ctrl->batches_planned(), 5u);
}

TEST(Controller, ReportsAccelerateAndFeedUplinkDemand) {
  ControllerHarness h;
  h.ctrl->start(0);
  h.sim.run_until(msec(1));
  const auto before = h.ctrl->batches_planned();
  // Both APs report: client 2 has 7 packets, client 3 none.
  ApReport r0;
  r0.ap = 0;
  r0.clients.push_back({2, 7});
  ApReport r1;
  r1.ap = 1;
  h.ctrl->on_ap_report(r0);
  h.ctrl->on_ap_report(r1);
  EXPECT_GT(h.ctrl->batches_planned(), before)
      << "completing the poll set must trigger the next plan";
  h.sim.run_until(h.sim.now() + msec(2));  // let the dispatches deliver

  // The new batch must schedule the uplink 2->0 (demand came from ROP).
  bool uplink_scheduled = false;
  for (const auto& p : h.dispatched) {
    if (p.ap != 0) continue;
    for (const auto& row : p.slots) {
      if (row.role == ApSlotPlan::Role::kRxData && row.peer == 2 &&
          !row.fake) {
        uplink_scheduled = true;
      }
    }
  }
  EXPECT_TRUE(uplink_scheduled);
}

TEST(Controller, BatchConnectionOverlapSlotIndices) {
  ControllerHarness h;
  h.downlink_backlog[{0, 2}] = 100;
  h.ctrl->start(0);
  h.sim.run_until(msec(10));
  // Consecutive plans for the same AP must overlap by exactly one slot
  // index (batch connection).
  std::vector<const ApSchedule*> ap0;
  for (const auto& p : h.dispatched) {
    if (p.ap == 0 && !p.slots.empty()) ap0.push_back(&p);
  }
  ASSERT_GE(ap0.size(), 2u);
  for (std::size_t i = 1; i < ap0.size(); ++i) {
    const auto prev_last = ap0[i - 1]->slots.back().global_index;
    const auto next_first = ap0[i]->slots.front().global_index;
    EXPECT_LE(next_first, prev_last)
        << "new batch must re-ship the retained overlap slot";
    EXPECT_EQ(ap0[i]->batch_first_slot, prev_last + 1);
  }
}

TEST(Controller, RopBoundariesSharedAcrossPlans) {
  ControllerHarness h;
  h.downlink_backlog[{0, 2}] = 10;
  h.downlink_backlog[{1, 3}] = 10;
  h.ctrl->start(0);
  h.sim.run_until(msec(2));
  // All plans of one batch carry identical ROP boundary lists.
  std::map<std::uint64_t, std::vector<ApSchedule::RopBoundary>> by_batch;
  for (const auto& p : h.dispatched) {
    auto [it, fresh] = by_batch.try_emplace(p.batch_id, p.rop_boundaries);
    if (!fresh) {
      EXPECT_EQ(it->second, p.rop_boundaries);
    }
  }
  // The first batch polls both APs somewhere.
  EXPECT_FALSE(by_batch.begin()->second.empty());
}

}  // namespace
}  // namespace dmn::domino
