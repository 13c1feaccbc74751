// Unit tests for the DOMINO central controller: batch cadence, plan
// dispatch, demand handling from batch-tagged AP reports (uplink rows from
// ROP, downlink rows from the AP's own queues), and batch connection across
// plans.

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
  }

  /// `ap` reports `packets` queued for `client` (one downlink row).
  void report_downlink(topo::NodeId ap, topo::NodeId client,
                       unsigned packets) {
    ApReport r;
    r.ap = ap;
    r.downlink.push_back({client, packets});
    ctrl->on_ap_report(r);
  }

  /// Global slot `ap` polls after in the newest plan it has received.
  std::uint64_t poll_slot(topo::NodeId ap) const {
    for (auto p = dispatched.rbegin(); p != dispatched.rend(); ++p) {
      if (p->ap != ap) continue;
      for (const ApSlotPlan& row : p->slots) {
        if (row.polls_in_rop) return row.global_index;
      }
      break;
    }
    ADD_FAILURE() << "AP " << ap << " has no poll in its newest plan";
    return 0;
  }

  /// True if a plan dispatched from index `from` on moves real data on
  /// the link between `ap` and `client` in the given direction.
  bool schedules(topo::NodeId ap, topo::NodeId client, bool uplink,
                 std::size_t from = 0) const {
    const auto role =
        uplink ? ApSlotPlan::Role::kRxData : ApSlotPlan::Role::kTxData;
    for (std::size_t i = from; i < dispatched.size(); ++i) {
      if (dispatched[i].ap != ap) continue;
      for (const ApSlotPlan& row : dispatched[i].slots) {
        if (row.role == role && row.peer == client && !row.fake) return true;
      }
    }
    return false;
  }
};

TEST(Controller, DispatchesPlansToEveryActiveAp) {
  ControllerHarness h;
  h.report_downlink(0, 2, 5);
  h.report_downlink(1, 3, 5);
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
  // Both APs report on this batch's polls: client 2 has 7 packets,
  // client 3 none.
  ApReport r0;
  r0.ap = 0;
  r0.poll_slot = h.poll_slot(0);
  r0.clients.push_back({2, 7});
  ApReport r1;
  r1.ap = 1;
  r1.poll_slot = h.poll_slot(1);
  h.ctrl->on_ap_report(r0);
  h.ctrl->on_ap_report(r1);
  EXPECT_GT(h.ctrl->batches_planned(), before)
      << "completing the poll set must trigger the next plan";
  h.sim.run_until(h.sim.now() + msec(2));  // let the dispatches deliver

  // The new batch must schedule the uplink 2->0 (demand came from ROP).
  EXPECT_TRUE(h.schedules(0, 2, /*uplink=*/true));
}

TEST(Controller, OlderBatchReportFeedsDemandButReleasesNoPlan) {
  ControllerHarness h;
  h.ctrl->start(0);
  h.sim.run_until(msec(1));
  ASSERT_EQ(h.ctrl->batches_planned(), 1u);
  const std::uint64_t old0 = h.poll_slot(0);
  const std::uint64_t old1 = h.poll_slot(1);
  h.sim.run_until(msec(4));  // the airtime timer plans batch 2
  ASSERT_EQ(h.ctrl->batches_planned(), 2u);
  ASSERT_GT(h.poll_slot(0), old0);

  // Both APs report on batch 1's polls, client 2 with 7 packets: the
  // newest batch's polls are still out, so nothing is released.
  ApReport r0;
  r0.ap = 0;
  r0.poll_slot = old0;
  r0.clients.push_back({2, 7});
  ApReport r1;
  r1.ap = 1;
  r1.poll_slot = old1;
  h.ctrl->on_ap_report(r0);
  h.ctrl->on_ap_report(r1);
  EXPECT_EQ(h.ctrl->batches_planned(), 2u)
      << "a report from an older batch's poll released the newest plan";

  // The newest batch's reports carry no backlog, yet release the plan,
  // and the stale report's uplink demand is in it.
  const std::size_t seen = h.dispatched.size();
  r0.poll_slot = h.poll_slot(0);
  r0.clients.clear();
  r1.poll_slot = h.poll_slot(1);
  h.ctrl->on_ap_report(r0);
  h.ctrl->on_ap_report(r1);
  EXPECT_EQ(h.ctrl->batches_planned(), 3u);
  h.sim.run_until(h.sim.now() + msec(2));
  EXPECT_TRUE(h.schedules(0, 2, /*uplink=*/true, seen));
}

TEST(Controller, DownlinkEstimateSurvivesTopologyChange) {
  // Estimates are keyed by endpoints, so a conflict-graph rebuild (roam,
  // join/leave elsewhere) keeps what the APs last reported.
  ControllerHarness h;
  h.report_downlink(0, 2, 5);
  h.ctrl->on_topology_changed();
  h.ctrl->start(0);
  h.sim.run_until(msec(2));
  EXPECT_TRUE(h.schedules(0, 2, /*uplink=*/false));
  EXPECT_FALSE(h.schedules(1, 3, /*uplink=*/false))
      << "real downlink data with no reported backlog";
}

TEST(Controller, BatchConnectionOverlapSlotIndices) {
  ControllerHarness h;
  h.report_downlink(0, 2, 100);
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
  h.report_downlink(0, 2, 10);
  h.report_downlink(1, 3, 10);
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
