// Tests for the dynamic-topology subsystem: DynamicsPlan validation (exact
// messages, like fault_test's FaultPlan coverage), the Topology mutation
// API, the partition-restricted Medium backstop, scripted membership churn
// and waypoint roaming through the full experiment facade, the dedup-filter
// reset on client re-association (the roam-then-retransmit regression), and
// the rejection of configurations dynamics cannot support (TCP traffic,
// the Omniscient stack).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "audit/audit.h"
#include "domino/domino_mac.h"
#include "domino/signature_plan.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "topo/dynamics.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"

namespace dmn {
namespace {

/// Topology whose RSS is exactly the floor-plan model at the generated
/// positions — the substrate every dynamics test runs on (incremental RSS
/// updates and a rebuild-from-scratch agree bit-for-bit on it).
topo::Topology floorplan(std::uint64_t seed, std::size_t aps = 2,
                         std::size_t clients_per_ap = 2) {
  Rng rng(seed);
  return topo::make_floorplan_topology({}, aps, clients_per_ap, {}, rng);
}

api::ExperimentConfig dyn_cfg(api::Scheme s, TimeNs duration = msec(300)) {
  api::ExperimentConfig cfg;
  cfg.scheme = s;
  cfg.duration = duration;
  cfg.traffic.downlink_bps = 5e6;
  cfg.traffic.uplink_bps = 1e6;
  return cfg;
}

/// Runs validate() and returns the exact exception message ("" = accepted).
std::string validate_error(const topo::DynamicsPlan& plan,
                           const topo::Topology& t) {
  try {
    plan.validate(t);
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

/// A plan that is active (any() == true) but otherwise inert.
topo::DynamicsPlan roam_only_plan() {
  topo::DynamicsPlan plan;
  plan.roam.enabled = true;
  return plan;
}

// ---- DynamicsPlan validation (exact messages) ------------------------------

TEST(DynamicsValidate, DefaultPlanIsInertAndSkipsValidation) {
  topo::DynamicsPlan plan;
  EXPECT_FALSE(plan.any());
  // validate() is a no-op for an inert plan even on a topology that could
  // never host dynamics (ManualTopologyBuilder leaves all positions at the
  // origin).
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  b.add_client(a0);
  EXPECT_EQ(validate_error(plan, b.build()), "");
}

TEST(DynamicsValidate, RejectsNonPositiveEpoch) {
  const auto t = floorplan(1);
  auto plan = roam_only_plan();
  plan.epoch = 0;
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.epoch must be positive (got 0 ns)");
}

TEST(DynamicsValidate, RejectsBadTrajectoryNodes) {
  const auto t = floorplan(1);  // nodes: APs 0..1, clients 2..5
  auto plan = roam_only_plan();
  plan.trajectories.push_back({99, {{0, {0.0, 0.0}}}});
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.trajectories[].node references nonexistent node 99");

  plan.trajectories[0].node = 0;
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.trajectories[].node references AP 0 "
            "(lifecycle events apply to clients only)");
}

TEST(DynamicsValidate, RejectsDuplicateAndMalformedTrajectories) {
  const auto t = floorplan(1);
  auto plan = roam_only_plan();
  plan.trajectories.push_back({2, {{0, {1.0, 1.0}}}});
  plan.trajectories.push_back({2, {{0, {2.0, 2.0}}}});
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.trajectories contains node 2 more than once");

  plan.trajectories.pop_back();
  plan.trajectories[0].waypoints.clear();
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.trajectories[].waypoints is empty for node 2");

  // Equal timestamps are not strictly increasing.
  plan.trajectories[0].waypoints = {{msec(10), {1.0, 1.0}},
                                    {msec(10), {2.0, 2.0}}};
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.trajectories[].waypoints must have strictly "
            "increasing non-negative times (node 2)");
}

TEST(DynamicsValidate, RejectsBadMembershipAndChurnKnobs) {
  const auto t = floorplan(1);
  auto plan = roam_only_plan();
  plan.membership.push_back({-1, 2, true});
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.membership[].at must be non-negative (node 2)");
  plan.membership.clear();

  plan.churn_rate_hz = -1.0;
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.churn_rate_hz must be a finite non-negative rate "
            "(got " +
                std::to_string(-1.0) + ")");

  plan.churn_rate_hz = 2.0;
  plan.churn_downtime = 0;
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.churn_downtime must be positive when churn_rate_hz > 0 "
            "(got 0 ns)");

  plan.churn_downtime = msec(100);
  plan.churn_nodes.push_back(1);  // an AP
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.churn_nodes[] references AP 1 "
            "(lifecycle events apply to clients only)");
}

TEST(DynamicsValidate, RejectsBadRoamKnobs) {
  const auto t = floorplan(1);
  auto plan = roam_only_plan();
  plan.roam.hysteresis_db = -1.0;
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.roam.hysteresis_db must be finite and non-negative "
            "(got " +
                std::to_string(-1.0) + ")");

  plan.roam.hysteresis_db = 6.0;
  plan.roam.min_dwell = -1;
  EXPECT_EQ(validate_error(plan, t),
            "dynamics.roam.min_dwell must be non-negative (got -1 ns)");
}

TEST(DynamicsValidate, RejectsPositionlessTopology) {
  // ManualTopologyBuilder never assigns positions, so every node sits at
  // the origin and the floor-plan model cannot distinguish pairs.
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  b.add_client(a0);
  b.add_client(a0);
  EXPECT_EQ(validate_error(roam_only_plan(), b.build()),
            "dynamics requires node positions: every node of this topology "
            "sits at the same point, so the floor-plan propagation model "
            "cannot distinguish pairs");
}

// ---- Topology mutation API --------------------------------------------------

TEST(TopologyMutation, UpdateRssKeepsDerivedTablesConsistent) {
  auto t = floorplan(3, 2, 1);  // APs 0,1; clients 2,3
  const double strong = -40.0;
  t.update_rss(0, 3, strong);
  EXPECT_DOUBLE_EQ(t.rss(0, 3), strong);
  EXPECT_DOUBLE_EQ(t.rss(3, 0), strong);
  // The linear-power fast path and the audibility list follow the update.
  EXPECT_NEAR(t.rss_mw(0, 3), std::pow(10.0, strong / 10.0), 1e-15);
  auto aud = t.audible_from(0);
  EXPECT_NE(std::find(aud.begin(), aud.end(), 3), aud.end());

  // Severing the pair removes it from the audible list both ways.
  t.update_rss(0, 3, -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(t.rss_mw(0, 3), 0.0);
  aud = t.audible_from(0);
  EXPECT_EQ(std::find(aud.begin(), aud.end(), 3), aud.end());
  auto rev = t.audible_from(3);
  EXPECT_EQ(std::find(rev.begin(), rev.end(), 0), rev.end());
}

TEST(TopologyMutation, SetAssociationRoamsTheClient) {
  auto t = floorplan(3, 2, 1);
  ASSERT_EQ(t.node(2).ap, 0);
  t.set_association(2, 1);
  EXPECT_EQ(t.node(2).ap, 1);
  const auto of_new = t.clients_of(1);
  EXPECT_NE(std::find(of_new.begin(), of_new.end(), 2), of_new.end());
  const auto of_old = t.clients_of(0);
  EXPECT_EQ(std::find(of_old.begin(), of_old.end(), 2), of_old.end());
}

TEST(TopologyMutation, InactiveNodesAreSkippedByMakeLinks) {
  auto t = floorplan(3, 2, 2);
  const auto before = t.make_links(true, true).size();
  ASSERT_TRUE(t.node_active(2));
  t.set_node_active(2, false);
  EXPECT_FALSE(t.node_active(2));
  // One downlink + one uplink disappear with the departed client.
  EXPECT_EQ(t.make_links(true, true).size(), before - 2);
  t.set_node_active(2, true);
  EXPECT_EQ(t.make_links(true, true).size(), before);
}

// ---- partition-restricted Medium backstop ----------------------------------

TEST(MediumDynamics, RestrictedMediumRejectsTopologyChanges) {
  // Two radio-isolated buildings, so {AP 0, client 2} is a genuine
  // coupling component the medium accepts.
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();  // 0
  const auto a1 = b.add_ap();  // 1
  b.add_client(a0);            // 2
  b.add_client(a1);            // 3
  auto t = b.build();

  sim::Simulator sim;
  phy::Medium unrestricted(sim, t);
  phy::Medium restricted(sim, t);
  restricted.restrict_to_nodes({0, 2});  // building 0's component

  t.update_rss(0, 3, -55.0);  // cross-building path appears
  EXPECT_NO_THROW(unrestricted.on_topology_changed());
  EXPECT_THROW(restricted.on_topology_changed(), std::logic_error);
}

// ---- scripted membership through the facade --------------------------------

TEST(Lifecycle, ScriptedLeaveAndRejoinRunsViolationFree) {
  const auto t = floorplan(5, 2, 2);
  const auto clients = t.all_clients();
  ASSERT_GE(clients.size(), 2u);

  auto cfg = dyn_cfg(api::Scheme::kDcf, msec(400));
  cfg.audit.mode = audit::AuditMode::kThrow;
  cfg.dynamics.membership.push_back({msec(100), clients[0], false});
  cfg.dynamics.membership.push_back({msec(250), clients[0], true});
  const auto r = api::run_experiment(t, cfg);

  EXPECT_EQ(r.lifecycle_leaves, 1u);
  EXPECT_EQ(r.lifecycle_joins, 1u);
  EXPECT_EQ(r.lifecycle_roams, 0u);
  EXPECT_GT(r.throughput_mbps(), 0.0);
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

TEST(Lifecycle, InitiallyAbsentClientCarriesNoTraffic) {
  const auto t = floorplan(5, 2, 2);
  const auto clients = t.all_clients();
  const topo::NodeId absent = clients[0];

  // Earliest membership event is a join scheduled beyond the horizon: the
  // client starts absent and never appears.
  auto cfg = dyn_cfg(api::Scheme::kDcf, msec(300));
  cfg.audit.mode = audit::AuditMode::kThrow;
  cfg.dynamics.membership.push_back({sec(10), absent, true});
  const auto r = api::run_experiment(t, cfg);

  EXPECT_EQ(r.lifecycle_joins, 0u);
  std::uint64_t absent_delivered = 0, others_delivered = 0;
  for (const auto& link : r.links) {
    const topo::NodeId client = link.uplink ? link.flow.src : link.flow.dst;
    (client == absent ? absent_delivered : others_delivered) +=
        link.delivered;
  }
  EXPECT_EQ(absent_delivered, 0u) << "absent client carried traffic";
  EXPECT_GT(others_delivered, 0u);
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

TEST(Lifecycle, CensusCountsTheFinalLinkSet) {
  // Churn only: one client leaves and never rejoins. The census reads the
  // post-run RSS map and membership, so it must count the post-run links.
  const auto t = floorplan(11, 4, 2);
  const topo::NodeId gone = t.all_clients()[0];
  auto cfg = dyn_cfg(api::Scheme::kDcf, msec(300));
  cfg.dynamics.membership.push_back({msec(100), gone, false});
  const auto r = api::run_experiment(t, cfg);
  ASSERT_EQ(r.lifecycle_leaves, 1u);
  ASSERT_EQ(r.lifecycle_joins, 0u);

  topo::Topology after = t;
  after.set_node_active(gone, false);
  const auto want = topo::classify_pairs(after, after.make_links(true, true));
  EXPECT_EQ(r.census.hidden, want.hidden);
  EXPECT_EQ(r.census.exposed, want.exposed);
  EXPECT_EQ(r.census.total, want.total);
}

// ---- waypoint mobility + roaming -------------------------------------------

/// Mobility scenario: client 2 (associated to AP 0 in building 0) walks
/// over to AP 1's position in building 1, which must eventually beat the
/// hysteresis and trigger a roam.
api::ExperimentConfig roaming_cfg(const topo::Topology& t, api::Scheme s) {
  auto cfg = dyn_cfg(s, msec(500));
  cfg.audit.mode = audit::AuditMode::kThrow;
  cfg.dynamics.epoch = msec(20);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.roam.hysteresis_db = 3.0;
  cfg.dynamics.roam.min_dwell = msec(40);
  const topo::Position near_ap1{t.node(1).pos.x + 1.0, t.node(1).pos.y};
  cfg.dynamics.trajectories.push_back(
      {2, {{0, t.node(2).pos}, {msec(150), near_ap1}}});
  return cfg;
}

TEST(Lifecycle, MobilityTriggersRoamAcrossSchemes) {
  const auto t = floorplan(9, 2, 1);
  ASSERT_EQ(t.node(2).ap, 0);
  for (api::Scheme s : {api::Scheme::kDcf, api::Scheme::kCentaur,
                        api::Scheme::kDomino}) {
    SCOPED_TRACE(api::to_string(s));
    const auto r = api::run_experiment(t, roaming_cfg(t, s));
    EXPECT_GE(r.lifecycle_roams, 1u);
    EXPECT_GT(r.lifecycle_epochs, 0u);
    EXPECT_GT(r.lifecycle_rss_updates, 0u);
    EXPECT_GT(r.throughput_mbps(), 0.0);
    ASSERT_NE(r.audit, nullptr);
    EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
  }
}

TEST(Lifecycle, RoamThenRetransmitKeepsUplinkFlowing) {
  // The roam-then-retransmit regression: a client roams to a new AP and
  // keeps sending uplink. Packet ids are globally unique, so the dedup
  // filter that follows the client across the roam must never swallow fresh
  // ids — if it did, the uplink flow would flatline after the roam — while
  // still recognising a lost-ACK retransmit as a duplicate.
  const auto t = floorplan(9, 2, 1);
  auto cfg = roaming_cfg(t, api::Scheme::kDomino);
  cfg.traffic.uplink_bps = 2e6;
  const auto r = api::run_experiment(t, cfg);
  ASSERT_GE(r.lifecycle_roams, 1u);

  std::uint64_t uplink_delivered = 0;
  for (const auto& link : r.links) {
    if (link.uplink && link.flow.src == 2) uplink_delivered += link.delivered;
  }
  EXPECT_GT(uplink_delivered, 0u) << "uplink died across the roam";
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

// ---- dense-cell lifecycle (multi-symbol polling admission) ------------------

TEST(Lifecycle, RoamIntoDenseApIsAdmittedWithReplannedSymbols) {
  // Both APs already serve 26 clients — past the single-symbol ROP ceiling,
  // so only the multi-symbol modes can host this floor plan at all. Client 2
  // then walks into AP 1's cell: the roam admission must succeed (AP 1 goes
  // to 27 clients, still far below rop.client_capacity()), the newcomer
  // must take a free slot in AP 1's slot table, and the whole run must
  // survive audit kThrow with the client's uplink flowing across the
  // hand-off.
  const auto t = floorplan(13, 2, 26);
  ASSERT_EQ(t.node(2).ap, 0);
  auto cfg = dyn_cfg(api::Scheme::kDomino, msec(500));
  cfg.traffic.uplink_bps = 2e6;
  cfg.audit.mode = audit::AuditMode::kThrow;
  cfg.rop.poll_mode = rop::PollMode::kMultiSymbol;
  cfg.dynamics.epoch = msec(20);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.roam.hysteresis_db = 3.0;
  cfg.dynamics.roam.min_dwell = msec(40);
  const topo::Position near_ap1{t.node(1).pos.x + 1.0, t.node(1).pos.y};
  cfg.dynamics.trajectories.push_back(
      {2, {{0, t.node(2).pos}, {msec(150), near_ap1}}});

  const auto r = api::run_experiment(t, cfg);
  EXPECT_GE(r.lifecycle_roams, 1u);
  EXPECT_EQ(r.lifecycle_roam_rejections, 0u)
      << "dense AP refused a roamer below its multi-symbol capacity";
  EXPECT_GT(r.domino_poll_symbols, r.domino_poll_rounds)
      << "26-client cells must poll across multiple symbols";
  std::uint64_t uplink_delivered = 0;
  for (const auto& link : r.links) {
    if (link.uplink && link.flow.src == 2) uplink_delivered += link.delivered;
  }
  EXPECT_GT(uplink_delivered, 0u) << "uplink died across the dense roam";
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

TEST(Lifecycle, ChurnInDenseCellRejoinsStayViolationFree) {
  // Membership churn on a 30-client cell: every rejoin is an admission into
  // an AP already past the 24-client legacy ceiling, exercising the slot
  // table's first-fit (symbol, subchannel) placement under audit kThrow.
  const auto t = floorplan(17, 1, 30);
  auto cfg = dyn_cfg(api::Scheme::kDomino, msec(400));
  cfg.audit.mode = audit::AuditMode::kThrow;
  cfg.rop.poll_mode = rop::PollMode::kMultiSymbol;
  cfg.dynamics.epoch = msec(20);
  cfg.dynamics.churn_rate_hz = 4.0;
  cfg.dynamics.churn_downtime = msec(40);

  const auto r = api::run_experiment(t, cfg);
  EXPECT_GT(r.lifecycle_leaves, 0u) << "churn never fired";
  EXPECT_GT(r.lifecycle_joins, 0u);
  EXPECT_EQ(r.lifecycle_join_rejections, 0u)
      << "rejoin bounced off a cell below multi-symbol capacity";
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

// ---- dedup-filter lifecycle across re-association ---------------------------

TEST(DedupReset, BoundedIdFilterClearForgetsEverything) {
  domino::BoundedIdFilter f(4);
  EXPECT_TRUE(f.insert(1));
  EXPECT_TRUE(f.insert(2));
  f.clear();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_FALSE(f.contains(1));
  EXPECT_TRUE(f.insert(1));  // reads as new again after the reset
}

TEST(DedupReset, ReassociationKeepsUplinkDedupState) {
  const auto t = floorplan(7, 1, 2);  // AP 0, clients 1..2
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  const domino::SignaturePlan sigs(t.num_nodes());
  domino::DominoApMac ap(
      sim, medium, 0, domino::DominoTiming{}, sigs, {}, {}, Rng(1),
      [](const traffic::Packet&, topo::NodeId, TimeNs) {},
      [](const domino::ApReport&) {}, nullptr);

  ap.register_client({1, -40.0});
  ap.test_note_uplink_seen(1, 42);
  ASSERT_TRUE(ap.test_uplink_seen(1, 42));

  // Re-association (rejoin after churn, or roam-out-and-back) keeps the
  // duplicate filter: a retransmit of an already-delivered id whose ACK was
  // lost at leave time must NOT be delivered a second time. Packet ids are
  // globally unique, so the retained history can never block fresh traffic.
  ap.unregister_client(1);
  EXPECT_TRUE(ap.test_uplink_seen(1, 42)) << "leave forgot delivered ids";
  ap.register_client({1, -40.0});
  EXPECT_TRUE(ap.test_uplink_seen(1, 42)) << "rejoin forgot delivered ids";

  // Other clients' filters are isolated from a peer's re-association.
  ap.register_client({2, -45.0});
  ap.test_note_uplink_seen(2, 7);
  ap.register_client({1, -40.0});
  EXPECT_TRUE(ap.test_uplink_seen(2, 7));
  EXPECT_FALSE(ap.test_uplink_seen(1, 7));
}

TEST(DedupReset, RoamHandsTheDedupFilterToTheNewAp) {
  const auto t = floorplan(7, 2, 1);  // APs 0..1, clients 2..3
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  const domino::SignaturePlan sigs(t.num_nodes());
  auto deliver = [](const traffic::Packet&, topo::NodeId, TimeNs) {};
  auto report = [](const domino::ApReport&) {};
  domino::DominoApMac ap_a(sim, medium, 0, domino::DominoTiming{}, sigs, {},
                           {}, Rng(1), deliver, report, nullptr);
  domino::DominoApMac ap_b(sim, medium, 1, domino::DominoTiming{}, sigs, {},
                           {}, Rng(2), deliver, report, nullptr);

  ap_a.register_client({2, -40.0});
  ap_a.test_note_uplink_seen(2, 42);

  // Roam A->B: the filter follows the client, so B recognises the lost-ACK
  // retransmit of id 42 as a duplicate, and A no longer holds the entry.
  auto carried = ap_a.take_uplink_seen(2);
  ap_a.unregister_client(2);
  ap_b.register_client({2, -40.0});
  ap_b.adopt_uplink_seen(2, std::move(carried));
  EXPECT_TRUE(ap_b.test_uplink_seen(2, 42));
  EXPECT_FALSE(ap_a.test_uplink_seen(2, 42));

  // An empty hand-off (client never sent anything) adopts nothing.
  ap_b.adopt_uplink_seen(3, ap_a.take_uplink_seen(3));
  EXPECT_FALSE(ap_b.test_uplink_seen(3, 1));
}

// ---- determinism and kernel selection --------------------------------------

api::ExperimentConfig churny_cfg(api::Scheme s) {
  auto cfg = dyn_cfg(s, msec(300));
  cfg.dynamics.epoch = msec(20);
  cfg.dynamics.churn_rate_hz = 4.0;
  cfg.dynamics.churn_downtime = msec(40);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.roam.min_dwell = msec(40);
  return cfg;
}

TEST(LifecycleDeterminism, RepeatChurnRunsAreByteIdentical) {
  const auto t = floorplan(11, 4, 2);
  for (api::Scheme s : {api::Scheme::kDcf, api::Scheme::kDomino}) {
    SCOPED_TRACE(api::to_string(s));
    const auto cfg = churny_cfg(s);
    const auto a = api::run_experiment(t, cfg);
    const auto b = api::run_experiment(t, cfg);
    EXPECT_EQ(api::serialize_result(a), api::serialize_result(b));
    EXPECT_GT(a.lifecycle_leaves, 0u) << "churn never fired";
  }
}

TEST(LifecycleDeterminism, DynamicsForcesTheClassicKernel) {
  // With dynamics active, a run asking for threads must keep the classic
  // kernel (sim_partitions == 1) and stay byte-identical to the
  // forced-serial run.
  const auto t = floorplan(11, 4, 2);
  auto cfg = churny_cfg(api::Scheme::kDcf);
  cfg.sim_threads = 4;
  const auto parallel = api::run_experiment(t, cfg);
  EXPECT_EQ(parallel.sim_partitions, 1u);

  cfg.sim_threads = -1;
  const auto serial = api::run_experiment(t, cfg);
  EXPECT_EQ(api::serialize_result(parallel), api::serialize_result(serial));
}

// Field by field, every lifecycle counter's round trip is covered by
// ResultCodec.EveryResultMetricRoundTrips (sweep_test); this pins a real
// churn run's bytes through the same trip.
TEST(LifecycleDeterminism, LifecycleCountersSurviveSerialization) {
  const auto t = floorplan(11, 4, 2);
  const auto r = api::run_experiment(t, churny_cfg(api::Scheme::kDcf));
  ASSERT_GT(r.lifecycle_leaves, 0u);
  const std::string once = api::serialize_result(r);
  const auto back = api::deserialize_result(api::parse_json(once));
  EXPECT_EQ(back.lifecycle_leaves, r.lifecycle_leaves);
  EXPECT_EQ(api::serialize_result(back), once);
}

// ---- unsupported configurations --------------------------------------------

TEST(LifecycleRejection, TcpTrafficIsRejected) {
  const auto t = floorplan(5, 2, 2);
  auto cfg = dyn_cfg(api::Scheme::kDcf);
  cfg.traffic.kind = api::TrafficKind::kTcp;
  cfg.dynamics.roam.enabled = true;
  try {
    api::run_experiment(t, cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "dynamics: TCP traffic is not supported under a dynamic "
              "topology (TCP flows have fixed endpoints)");
  }
}

TEST(LifecycleRejection, OmniscientStackIsRejected) {
  const auto t = floorplan(5, 2, 2);
  auto cfg = dyn_cfg(api::Scheme::kOmniscient);
  cfg.dynamics.roam.enabled = true;
  try {
    api::run_experiment(t, cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "Omniscient: scheme does not support dynamic topologies "
              "(SchemeStack::supports_dynamics() is false)");
  }
}

TEST(LifecycleRejection, MalformedPlanIsRejectedBeforeTheRun) {
  const auto t = floorplan(5, 2, 2);
  auto cfg = dyn_cfg(api::Scheme::kDcf);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.epoch = -1;
  EXPECT_THROW(api::run_experiment(t, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace dmn
