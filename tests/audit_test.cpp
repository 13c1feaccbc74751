// Tests for the online invariant auditor (src/audit): passivity
// (byte-identical results), violation-free seed configurations, the
// cross-scheme differential oracle, and the mutant self-test that proves
// each audited invariant actually catches its corresponding bug.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "audit/audit.h"
#include "topo/dynamics.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"

namespace dmn::api {
namespace {

topo::Topology two_cells() {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);
  b.add_client(a1);
  b.sense(a0, a1);
  return b.build();
}

topo::Topology tmn(std::uint64_t seed, std::size_t aps = 4,
                   std::size_t clients = 2) {
  Rng rng(seed);
  const auto trace = topo::synthesize_trace({}, rng);
  return topo::Topology::build_tmn(trace.rss, aps, clients, {}, rng);
}

ExperimentConfig audited_cfg(Scheme s, audit::AuditMode mode) {
  ExperimentConfig cfg;
  cfg.scheme = s;
  cfg.duration = msec(400);
  cfg.traffic.downlink_bps = 5e6;
  cfg.traffic.uplink_bps = 1e6;  // exercises ROP polling + triggers
  cfg.audit.mode = mode;
  return cfg;
}

// ---- mode resolution --------------------------------------------------------

TEST(AuditMode, ExplicitModeWinsOverEnvironment) {
  ::setenv("DMN_AUDIT", "1", 1);
  audit::AuditConfig cfg;
  cfg.mode = audit::AuditMode::kOff;
  EXPECT_EQ(audit::resolve_mode(cfg), audit::AuditMode::kOff);
  cfg.mode = audit::AuditMode::kRecord;
  EXPECT_EQ(audit::resolve_mode(cfg), audit::AuditMode::kRecord);
  ::unsetenv("DMN_AUDIT");
}

TEST(AuditMode, InheritReadsEnvironment) {
  audit::AuditConfig cfg;  // kInherit
  ::unsetenv("DMN_AUDIT");
  EXPECT_EQ(audit::resolve_mode(cfg), audit::AuditMode::kOff);
  ::setenv("DMN_AUDIT", "0", 1);
  EXPECT_EQ(audit::resolve_mode(cfg), audit::AuditMode::kOff);
  ::setenv("DMN_AUDIT", "record", 1);
  EXPECT_EQ(audit::resolve_mode(cfg), audit::AuditMode::kRecord);
  ::setenv("DMN_AUDIT", "1", 1);
  EXPECT_EQ(audit::resolve_mode(cfg), audit::AuditMode::kThrow);
  ::unsetenv("DMN_AUDIT");
}

// ---- violation-free seed configurations -------------------------------------

TEST(Audit, RunsAndReportsChecks) {
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kRecord);
  const auto r = run_experiment(tmn(5), cfg);
  ASSERT_NE(r.audit, nullptr);
  EXPECT_GT(r.audit->checks_run, 1000u);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

TEST(Audit, AllSchemesViolationFree) {
  for (Scheme s : {Scheme::kDcf, Scheme::kCentaur, Scheme::kDomino,
                   Scheme::kOmniscient}) {
    for (std::uint64_t seed : {1u, 7u}) {
      auto cfg = audited_cfg(s, audit::AuditMode::kThrow);
      cfg.seed = seed;
      const auto r = run_experiment(tmn(5), cfg);  // throws on violation
      ASSERT_NE(r.audit, nullptr) << to_string(s);
      EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
    }
  }
}

TEST(Audit, TcpDominoViolationFree) {
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kThrow);
  cfg.traffic.kind = TrafficKind::kTcp;
  cfg.traffic.uplink_bps = 0.0;
  const auto r = run_experiment(two_cells(), cfg);
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

TEST(Audit, FaultedDominoViolationFree) {
  // Faults perturb the chain but must not break the audited semantics:
  // missed triggers cause recovery, not invariant violations.
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kThrow);
  cfg.duration = msec(600);
  cfg.faults.signature.false_negative_rate = 0.02;
  cfg.faults.clock.max_skew_ppm = 20.0;
  cfg.faults.backbone.drop_rate = 0.02;
  const auto r = run_experiment(tmn(5), cfg);
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

TEST(Audit, ForgedTriggersSkipProvenanceButStayViolationFree) {
  // Forged false positives make nodes act on signatures that were never on
  // the air; the provenance invariant is gated off, everything else holds.
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kThrow);
  cfg.faults.signature.false_positive_rate = 0.01;
  const auto r = run_experiment(tmn(5), cfg);
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

// ---- passivity: audit-on results byte-identical to audit-off ---------------

// The shared conflict graph is built on first use: DOMINO always asks for
// it, DCF only when the auditor does, and neither the build nor its in-loop
// rebuilds may change a result.
TEST(Audit, ResultsByteIdenticalWithAuditOn) {
  for (Scheme s : {Scheme::kDcf, Scheme::kDomino}) {
    auto off = audited_cfg(s, audit::AuditMode::kOff);
    auto on = audited_cfg(s, audit::AuditMode::kThrow);
    const auto r_off = run_experiment(tmn(5), off);
    const auto r_on = run_experiment(tmn(5), on);
    EXPECT_EQ(serialize_result(r_off), serialize_result(r_on))
        << to_string(s);
    EXPECT_EQ(r_off.audit, nullptr);
    ASSERT_NE(r_on.audit, nullptr);
    EXPECT_EQ(r_off.graph_builds, s == Scheme::kDcf ? 0u : 1u)
        << to_string(s);
    EXPECT_EQ(r_on.graph_builds, 1u) << to_string(s);
  }

  // DCF under churn and roaming: the audited run builds the graph for the
  // auditor and rebuilds it at every join, leave and roam; the unaudited run
  // does neither.
  Rng rng(13);
  const auto t = topo::make_floorplan_topology({}, 4, 2, {}, rng);
  auto dynamic = [](audit::AuditMode mode) {
    auto cfg = audited_cfg(Scheme::kDcf, mode);
    cfg.dynamics.epoch = msec(25);
    cfg.dynamics.churn_rate_hz = 3.0;
    cfg.dynamics.churn_downtime = msec(50);
    cfg.dynamics.roam.enabled = true;
    cfg.dynamics.roam.min_dwell = msec(50);
    return cfg;
  };
  const auto r_off = run_experiment(t, dynamic(audit::AuditMode::kOff));
  const auto r_on = run_experiment(t, dynamic(audit::AuditMode::kThrow));
  EXPECT_EQ(serialize_result(r_off), serialize_result(r_on));
  EXPECT_GT(r_on.lifecycle_leaves + r_on.lifecycle_roams, 0u)
      << "dynamics never fired; the rebuild check below is vacuous";
  EXPECT_EQ(r_off.graph_builds, 0u);
  EXPECT_GT(r_on.graph_builds, 1u);
}

// ---- differential oracle ----------------------------------------------------

TEST(Audit, DominoNeverBeatsOmniscient) {
  // The omniscient scheduler is the centralized upper bound DOMINO
  // approximates; on identical topology and traffic draws DOMINO must not
  // exceed it.
  for (std::uint64_t topo_seed : {5u, 11u}) {
    const auto t = tmn(topo_seed);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      ExperimentConfig cfg;
      cfg.duration = sec(1);
      cfg.traffic.saturate_downlink = true;
      cfg.seed = seed;
      cfg.scheme = Scheme::kDomino;
      const auto domino = run_experiment(t, cfg);
      cfg.scheme = Scheme::kOmniscient;
      const auto omni = run_experiment(t, cfg);
      EXPECT_LE(domino.aggregate_throughput_bps,
                omni.aggregate_throughput_bps * 1.000001)
          << "topo seed " << topo_seed << " seed " << seed;
    }
  }
}

// ---- mutant self-test -------------------------------------------------------

// Runs a deliberately broken stack variant in record mode and returns the
// report; the matching invariant must have tripped.
std::shared_ptr<const audit::AuditReport> run_mutant(audit::Mutation m) {
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kRecord);
  cfg.audit.mutation = m;
  const auto r = run_experiment(tmn(5), cfg);
  EXPECT_NE(r.audit, nullptr);
  return r.audit;
}

bool tripped_with_prefix(const audit::AuditReport& rep,
                         const std::string& prefix) {
  for (const auto& [name, count] : rep.violations_by_invariant) {
    if (count > 0 && name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string tripped_names(const audit::AuditReport& rep) {
  std::string out;
  for (const auto& [name, count] : rep.violations_by_invariant) {
    out += name + "(" + std::to_string(count) + ") ";
  }
  return out.empty() ? "<none>" : out;
}

TEST(AuditMutant, MediumLeakPowerCaught) {
  const auto rep = run_mutant(audit::Mutation::kMediumLeakPower);
  EXPECT_TRUE(tripped_with_prefix(*rep, "medium.")) << tripped_names(*rep);
}

TEST(AuditMutant, ConverterExtraTriggerCaught) {
  const auto rep = run_mutant(audit::Mutation::kConverterExtraTrigger);
  EXPECT_TRUE(tripped_with_prefix(*rep, "converter.trigger-in-degree"))
      << tripped_names(*rep);
}

TEST(AuditMutant, ConverterConflictingEntryCaught) {
  const auto rep = run_mutant(audit::Mutation::kConverterConflictingEntry);
  EXPECT_TRUE(tripped_with_prefix(*rep, "converter.")) << tripped_names(*rep);
}

TEST(AuditMutant, TriggerWithoutSignatureCaught) {
  const auto rep = run_mutant(audit::Mutation::kMacTriggerWithoutSignature);
  EXPECT_TRUE(tripped_with_prefix(*rep, "domino.")) << tripped_names(*rep);
}

TEST(AuditMutant, DoubleDeliveryCaught) {
  const auto rep = run_mutant(audit::Mutation::kMacDoubleDelivery);
  EXPECT_TRUE(tripped_with_prefix(*rep, "traffic.duplicate-delivery"))
      << tripped_names(*rep);
}

TEST(AuditMutant, RopReportOffsetCaught) {
  const auto rep = run_mutant(audit::Mutation::kRopReportOffset);
  EXPECT_TRUE(tripped_with_prefix(*rep, "rop.")) << tripped_names(*rep);
}

// ---- lifecycle mutant self-test ---------------------------------------------
// These mutants break the dynamic-topology lifecycle (topo/dynamics.h +
// api/lifecycle.h) instead of the static stack, so they run on a floor-plan
// topology with an active DynamicsPlan. Each pairs the defective run with
// the identical clean scenario to prove the trip is the mutation's doing.

topo::Topology floorplan_cells() {
  Rng rng(9);
  return topo::make_floorplan_topology({}, 2, 1, {}, rng);
}

// Ghost radio: the scripted leave is announced (the auditor hears it) but
// the node is never detached or isolated, so the AP's backlog keeps landing
// on a client that officially left the network.
ExperimentConfig ghost_radio_cfg(audit::Mutation m) {
  auto cfg = audited_cfg(Scheme::kDcf, audit::AuditMode::kRecord);
  cfg.traffic.saturate_downlink = true;
  cfg.dynamics.membership.push_back({msec(100), 2, false});
  cfg.audit.mutation = m;
  return cfg;
}

TEST(AuditMutant, LifecycleGhostRadioCaught) {
  const auto t = floorplan_cells();
  const auto bad =
      run_experiment(t, ghost_radio_cfg(audit::Mutation::kLifecycleGhostRadio));
  ASSERT_NE(bad.audit, nullptr);
  EXPECT_TRUE(tripped_with_prefix(*bad.audit, "lifecycle."))
      << tripped_names(*bad.audit);

  const auto clean =
      run_experiment(t, ghost_radio_cfg(audit::Mutation::kNone));
  ASSERT_NE(clean.audit, nullptr);
  EXPECT_TRUE(clean.audit->violation_free()) << clean.audit->summary();
}

// Stale roam: the roam rewrites the topology's association but skips MAC
// re-registration and the conflict-graph rebuild, so the controller keeps
// scheduling the client through its old AP.
ExperimentConfig stale_roam_cfg(const topo::Topology& t, audit::Mutation m) {
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kRecord);
  cfg.duration = msec(500);
  cfg.dynamics.epoch = msec(20);
  cfg.dynamics.roam.enabled = true;
  cfg.dynamics.roam.hysteresis_db = 3.0;
  cfg.dynamics.roam.min_dwell = msec(40);
  const topo::Position near_ap1{t.node(1).pos.x + 1.0, t.node(1).pos.y};
  cfg.dynamics.trajectories.push_back(
      {2, {{0, t.node(2).pos}, {msec(150), near_ap1}}});
  cfg.audit.mutation = m;
  return cfg;
}

TEST(AuditMutant, LifecycleStaleRoamCaught) {
  const auto t = floorplan_cells();
  const auto bad = run_experiment(
      t, stale_roam_cfg(t, audit::Mutation::kLifecycleStaleRoam));
  ASSERT_NE(bad.audit, nullptr);
  EXPECT_GE(bad.lifecycle_roams, 1u) << "mutant scenario never roamed";
  EXPECT_TRUE(tripped_with_prefix(*bad.audit, "converter."))
      << tripped_names(*bad.audit);

  const auto clean =
      run_experiment(t, stale_roam_cfg(t, audit::Mutation::kNone));
  ASSERT_NE(clean.audit, nullptr);
  EXPECT_GE(clean.lifecycle_roams, 1u);
  EXPECT_TRUE(clean.audit->violation_free()) << clean.audit->summary();
}

// The full dynamic stack — churn + roaming — under the throwing auditor, in
// both static poll modes: the lifecycle and ROP invariants hold on the real
// (unmutated) code path. Multi-symbol polling used to re-plan rosters per
// round, which aired long after they were planned and starved rejoined
// clients on these floor plans; the slot table keeps every client's slot.
struct ChurnCase {
  rop::PollMode mode;
  std::uint64_t floorplan_seed;
};

class ChurnAndRoamingViolationFree
    : public ::testing::TestWithParam<ChurnCase> {};

ExperimentConfig churn_cfg(rop::PollMode mode, bool roam) {
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kThrow);
  cfg.rop.poll_mode = mode;
  cfg.dynamics.epoch = msec(25);
  cfg.dynamics.churn_rate_hz = 3.0;
  cfg.dynamics.churn_downtime = msec(50);
  cfg.dynamics.roam.enabled = roam;
  cfg.dynamics.roam.min_dwell = msec(50);
  return cfg;
}

TEST_P(ChurnAndRoamingViolationFree, FloorPlan) {
  Rng rng(GetParam().floorplan_seed);
  const auto t = topo::make_floorplan_topology({}, 4, 2, {}, rng);
  const auto r = run_experiment(t, churn_cfg(GetParam().mode, true));
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
  EXPECT_GT(r.lifecycle_leaves + r.lifecycle_roams, 0u)
      << "dynamics never fired; the assertion above is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    Audit, ChurnAndRoamingViolationFree,
    ::testing::Values(ChurnCase{rop::PollMode::kLegacy, 13},
                      ChurnCase{rop::PollMode::kLegacy, 3},
                      ChurnCase{rop::PollMode::kLegacy, 9},
                      ChurnCase{rop::PollMode::kMultiSymbol, 13},
                      ChurnCase{rop::PollMode::kMultiSymbol, 3},
                      ChurnCase{rop::PollMode::kMultiSymbol, 9}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) {
      return std::string(rop::to_string(info.param.mode)) + "_seed" +
             std::to_string(info.param.floorplan_seed);
    });

// A client that leaves and rejoins the same AP keeps its old slot only if
// no other client took it meanwhile. On this floor plan client 4 takes
// subchannel 0 of AP 2 at 200.7 ms, and client 9, which held it before its
// leave, rejoins AP 2 at 279.9 ms; reusing its old subchannel blindly made
// both answer AP 2's polls there (rop.subchannel-collision at 281.4 ms).
TEST(Audit, SameApRejoinTakesAFreeSlot) {
  Rng rng(3);
  const auto t = topo::make_floorplan_topology({}, 4, 2, {}, rng);
  const auto r = run_experiment(t, churn_cfg(rop::PollMode::kLegacy, false));
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
  EXPECT_GT(r.lifecycle_joins, 0u) << "nobody rejoined";
}

// ---- multi-symbol polling mutant self-test ----------------------------------
// The dense-polling relaxations (per-symbol collision scoping, sanctioned
// adaptive reassignment, bounded starvation, the symbol airtime budget)
// each need a mutant proving the relaxed invariant still catches real
// defects. The scenario: one dense cell whose 26 clients need 2 poll
// symbols (max_poll_symbols = 2), queue reports exercised by uplink
// traffic. Every mutant is paired with the identical clean run. Rosters
// exist only in adaptive mode, so the roster mutants run there; the
// cross-symbol mutant runs on the static multi-symbol slot table.

ExperimentConfig dense_poll_cfg(audit::Mutation m, rop::PollMode mode) {
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kRecord);
  cfg.duration = msec(250);
  cfg.rop.poll_mode = mode;
  cfg.rop.max_poll_symbols = 2;  // 26 clients -> exactly 2 symbols
  cfg.audit.mutation = m;
  return cfg;
}

topo::Topology dense_cell() {
  Rng rng(23);
  return topo::make_floorplan_topology({}, 1, 26, {}, rng);
}

/// Runs the mutant and its clean twin in `mode`; the mutant must trip an
/// invariant starting with `prefix`, the twin none.
void expect_poll_mutant_caught(audit::Mutation m, rop::PollMode mode,
                               const std::string& prefix) {
  const auto t = dense_cell();
  const auto bad = run_experiment(t, dense_poll_cfg(m, mode));
  ASSERT_NE(bad.audit, nullptr);
  EXPECT_TRUE(tripped_with_prefix(*bad.audit, prefix))
      << tripped_names(*bad.audit);

  const auto clean =
      run_experiment(t, dense_poll_cfg(audit::Mutation::kNone, mode));
  ASSERT_NE(clean.audit, nullptr);
  EXPECT_TRUE(clean.audit->violation_free()) << clean.audit->summary();
}

TEST(AuditMutant, RopCrossSymbolCollisionCaught) {
  // Clients answer in symbol 0 regardless of their slot's symbol: the
  // symbol-1 group lands on the symbol-0 group's subchannels. The
  // per-symbol disjointness scope must still see the collision.
  expect_poll_mutant_caught(audit::Mutation::kRopCrossSymbolCollision,
                            rop::PollMode::kMultiSymbol,
                            "rop.subchannel-collision");
}

TEST(AuditMutant, RopStarvedClientCaught) {
  // The controller silently drops one client from every roster: after the
  // starvation bound (max interval + grace) consecutive misses the auditor
  // must flag it — the adaptive relaxation must not grant unbounded
  // deferral.
  expect_poll_mutant_caught(audit::Mutation::kRopStarvedClient,
                            rop::PollMode::kAdaptive, "rop.starved-client");
}

TEST(AuditMutant, RopAirtimeOverBudgetCaught) {
  // The controller spreads each roster one client per symbol: a round
  // spans as many symbols as it rosters clients, against a budget of 2.
  expect_poll_mutant_caught(audit::Mutation::kRopAirtimeOverBudget,
                            rop::PollMode::kAdaptive,
                            "rop.airtime-over-budget");
}

TEST(AuditMutant, ThrowModeSurfacesSimTimeContext) {
  auto cfg = audited_cfg(Scheme::kDomino, audit::AuditMode::kThrow);
  cfg.audit.mutation = audit::Mutation::kMacDoubleDelivery;
  try {
    run_experiment(tmn(5), cfg);
    FAIL() << "expected AuditViolation";
  } catch (const audit::AuditViolation& e) {
    EXPECT_EQ(e.invariant, "traffic.duplicate-delivery");
    EXPECT_GT(e.sim_time, 0);
    EXPECT_NE(std::string(e.what()).find("traffic.duplicate-delivery"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dmn::api
