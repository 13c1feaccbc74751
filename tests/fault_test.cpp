// Chain-resilience tests for the fault-injection subsystem: the strict
// no-op contract, deterministic injection under sweep parallelism, forced
// trigger loss -> bounded self-start recovery with skip-only frontier
// advance, controller outages that the chain outlives, AP power outages,
// and the bounded bookkeeping structures (BoundedIdFilter, tx_attempts).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/scheme_stack.h"
#include "api/sweep.h"
#include "api/sweep_io.h"
#include "domino/domino_mac.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "wired/backbone.h"

namespace dmn {
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

api::SweepOptions threads(std::size_t n) {
  api::SweepOptions opts;
  opts.num_threads = n;
  return opts;
}

api::ExperimentConfig domino_config(TimeNs duration = msec(400)) {
  api::ExperimentConfig cfg;
  cfg.scheme = api::Scheme::kDomino;
  cfg.duration = duration;
  cfg.traffic.saturate_downlink = true;
  return cfg;
}

void expect_identical(const api::ExperimentResult& a,
                      const api::ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.aggregate_throughput_bps, b.aggregate_throughput_bps);
  EXPECT_DOUBLE_EQ(a.mean_delay_us, b.mean_delay_us);
  EXPECT_DOUBLE_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.ack_timeouts, b.ack_timeouts);
  EXPECT_EQ(a.domino_self_starts, b.domino_self_starts);
  EXPECT_EQ(a.domino_missed_rows, b.domino_missed_rows);
  EXPECT_EQ(a.domino_rows_executed, b.domino_rows_executed);
  EXPECT_EQ(a.domino_retry_drops, b.domino_retry_drops);
  EXPECT_EQ(a.domino_anchor_rejections, b.domino_anchor_rejections);
  EXPECT_EQ(a.domino_forced_trigger_losses, b.domino_forced_trigger_losses);
  EXPECT_EQ(a.fault_backbone_drops, b.fault_backbone_drops);
  EXPECT_EQ(a.fault_backbone_dups, b.fault_backbone_dups);
  EXPECT_EQ(a.fault_backbone_spikes, b.fault_backbone_spikes);
  EXPECT_EQ(a.fault_interference_bursts, b.fault_interference_bursts);
  EXPECT_EQ(a.fault_controller_outage_skips, b.fault_controller_outage_skips);
  ASSERT_EQ(a.domino_recovery_latency_slots.size(),
            b.domino_recovery_latency_slots.size());
  for (std::size_t i = 0; i < a.domino_recovery_latency_slots.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.domino_recovery_latency_slots[i],
                     b.domino_recovery_latency_slots[i]);
  }
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.links[i].throughput_bps, b.links[i].throughput_bps);
    EXPECT_EQ(a.links[i].delivered, b.links[i].delivered);
  }
}

// ---- strict no-op ----------------------------------------------------------

TEST(FaultPlan, DefaultPlanIsInert) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(plan.backbone.any());
  EXPECT_FALSE(plan.controller.any());
  EXPECT_FALSE(plan.interference.any());
  EXPECT_FALSE(plan.signature.any());
  EXPECT_FALSE(plan.clock.any());
}

// Assigning an explicitly default-constructed FaultPlan must be exactly the
// untouched config: no injector, no extra RNG fork, zero fault counters —
// for every registered scheme.
TEST(FaultNoOp, ZeroKnobsReproduceFaultFreeResultsForEveryScheme) {
  for (const std::string& name :
       api::SchemeStackRegistry::instance().names()) {
    api::ExperimentConfig base;
    base.scheme_name = name;
    base.duration = msec(250);
    base.traffic.saturate_downlink = true;
    api::ExperimentConfig zeroed = base;
    zeroed.faults = fault::FaultPlan{};
    const auto a = api::run_experiment(two_cells(), base);
    const auto b = api::run_experiment(two_cells(), zeroed);
    SCOPED_TRACE(name);
    expect_identical(a, b);
    EXPECT_EQ(a.fault_backbone_drops, 0u);
    EXPECT_EQ(a.fault_interference_bursts, 0u);
    EXPECT_EQ(a.domino_forced_trigger_losses, 0u);
    EXPECT_TRUE(a.domino_recovery_latency_slots.empty());
  }
}

// ---- backbone delivery hook ------------------------------------------------

TEST(BackboneFaults, HookControlsCopiesAndLatency) {
  sim::Simulator sim;
  wired::BackboneParams params;
  wired::Backbone bb(sim, params, Rng(7));

  int delivered = 0;
  wired::DeliveryMod next;
  bb.set_fault_hook([&next] { return next; });

  next = wired::DeliveryMod{0, 0};  // drop
  bb.send([&delivered] { ++delivered; });
  sim.run_until(msec(10));
  EXPECT_EQ(delivered, 0);

  next = wired::DeliveryMod{2, 0};  // duplicate
  bb.send([&delivered] { ++delivered; });
  sim.run_until(msec(20));
  EXPECT_EQ(delivered, 2);

  next = wired::DeliveryMod{1, msec(5)};  // latency spike
  TimeNs arrival = 0;
  const TimeNs sent_at = sim.now();
  bb.send([&] { arrival = sim.now(); });
  sim.run_until(msec(40));
  EXPECT_GE(arrival - sent_at, msec(5));
}

TEST(BackboneFaults, DropRateLosesDispatchesButChainSurvives) {
  api::ExperimentConfig cfg = domino_config(msec(800));
  cfg.faults.backbone.drop_rate = 0.05;
  const auto r = api::run_experiment(two_cells(), cfg);
  EXPECT_GT(r.fault_backbone_drops, 0u);
  EXPECT_GT(r.throughput_mbps(), 1.0);
  // Graceful degradation, not collapse: the missed-row total stays a small
  // fraction of the rows the chain did execute.
  EXPECT_GT(r.domino_rows_executed, 0u);
  EXPECT_LT(r.domino_missed_rows, r.domino_rows_executed);
}

// ---- forced trigger loss -> self-start recovery ----------------------------

TEST(SignatureFaults, BlackoutForcesLossThenBoundedSelfStartRecovery) {
  api::ExperimentConfig cfg = domino_config(msec(600));
  cfg.record_timeline = true;
  // Black out AP0's correlator for a stretch mid-run: every burst it would
  // have detected (triggers included) reads as noise.
  cfg.faults.signature.blackouts.push_back(
      fault::SignatureFaults::Blackout{0, {msec(200), msec(30)}});
  const auto r = api::run_experiment(two_cells(), cfg);

  ASSERT_GT(r.domino_forced_trigger_losses, 0u);
  EXPECT_EQ(r.fault_forced_trigger_losses, r.domino_forced_trigger_losses);

  // The AP healed itself: the recovery-latency histogram is non-empty and
  // every episode closed within a few slot durations (the self-start fires
  // two slot durations past the row's expected start at the latest).
  ASSERT_FALSE(r.domino_recovery_latency_slots.empty());
  for (double s : r.domino_recovery_latency_slots) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 6.0) << "recovery took " << s << " slots";
  }

  // Frontier advances by skipping, never by reordering: per AP, executed
  // slot indices are strictly increasing in time.
  ASSERT_TRUE(r.timeline != nullptr);
  std::map<topo::NodeId, std::uint64_t> last_slot;
  for (const auto& tx : r.timeline->transmissions()) {
    if (tx.uplink) continue;  // AP-transmitted rows only
    const auto it = last_slot.find(tx.sender);
    if (it != last_slot.end()) {
      EXPECT_GT(tx.slot, it->second)
          << "AP " << tx.sender << " re-ran or reordered a slot";
    }
    last_slot[tx.sender] = tx.slot;
  }
  EXPECT_GT(r.domino_self_starts, 0u);
}

// ---- controller outage -----------------------------------------------------

TEST(ControllerFaults, ApsKeepExecutingLastPlanThroughOutage) {
  const TimeNs outage_start = msec(200);
  const TimeNs outage_len = msec(12);
  api::ExperimentConfig cfg = domino_config(msec(500));
  cfg.record_timeline = true;
  cfg.faults.controller.outages.push_back({outage_start, outage_len});
  const auto r = api::run_experiment(two_cells(), cfg);

  EXPECT_GT(r.domino_controller_outage_skips, 0u);
  EXPECT_EQ(r.fault_controller_outage_skips, r.domino_controller_outage_skips);

  // The chain outlives its scheduler: transmissions continue inside the
  // outage window (rows from the last received plan)...
  ASSERT_TRUE(r.timeline != nullptr);
  std::size_t during = 0, after = 0;
  for (const auto& tx : r.timeline->transmissions()) {
    if (tx.start >= outage_start && tx.start < outage_start + outage_len) {
      ++during;
    }
    if (tx.start >= outage_start + outage_len) ++after;
  }
  EXPECT_GT(during, 0u) << "chain stalled the moment the controller died";
  // ...and planning resumes when the controller comes back.
  EXPECT_GT(after, 0u);
  EXPECT_GT(r.domino_batches, 0u);
}

// ---- AP power outage -------------------------------------------------------

TEST(ApOutage, DarkApIsSilentThenRejoins) {
  const TimeNs down_at = msec(200);
  const TimeNs down_len = msec(50);
  api::ExperimentConfig cfg = domino_config(msec(600));
  cfg.record_timeline = true;
  cfg.faults.ap_outages.push_back(fault::ApOutage{0, {down_at, down_len}});
  const auto r = api::run_experiment(two_cells(), cfg);

  ASSERT_TRUE(r.timeline != nullptr);
  std::size_t ap0_during = 0, ap0_after = 0, other_during = 0;
  for (const auto& tx : r.timeline->transmissions()) {
    if (tx.uplink) continue;
    const bool in_window =
        tx.start >= down_at && tx.start < down_at + down_len;
    if (tx.sender == 0 && in_window) ++ap0_during;
    if (tx.sender == 0 && tx.start >= down_at + down_len) ++ap0_after;
    if (tx.sender != 0 && in_window) ++other_during;
  }
  EXPECT_EQ(ap0_during, 0u) << "powered-down AP transmitted";
  EXPECT_GT(ap0_after, 0u) << "AP never came back after restart";
  EXPECT_GT(other_during, 0u) << "healthy AP stalled during peer's outage";
}

// ---- interference + clock skew --------------------------------------------

TEST(InterferenceFaults, BurstsAreCountedAndDegradeGracefully) {
  api::ExperimentConfig clean = domino_config(msec(400));
  api::ExperimentConfig noisy = clean;
  noisy.faults.interference.duty = 0.2;
  const auto a = api::run_experiment(two_cells(), clean);
  const auto b = api::run_experiment(two_cells(), noisy);
  EXPECT_GT(b.fault_interference_bursts, 0u);
  EXPECT_GT(b.throughput_mbps(), 0.0);
  EXPECT_LT(b.aggregate_throughput_bps, a.aggregate_throughput_bps);
}

TEST(ClockFaults, SkewedClocksStillConverge) {
  api::ExperimentConfig cfg = domino_config(msec(400));
  cfg.faults.clock.max_skew_ppm = 100.0;
  const auto r = api::run_experiment(two_cells(), cfg);
  EXPECT_GT(r.throughput_mbps(), 1.0);
  EXPECT_GT(r.domino_rows_executed, 0u);
}

// ---- the acceptance scenario ----------------------------------------------

// 5% backbone drop + interference bursts: DOMINO completes with bounded
// missed rows and a non-empty recovery-latency histogram.
TEST(FaultAcceptance, DropPlusInterferenceBoundedDegradation) {
  api::ExperimentConfig cfg = domino_config(msec(800));
  cfg.faults.backbone.drop_rate = 0.05;
  cfg.faults.interference.duty = 0.1;
  cfg.faults.signature.false_negative_rate = 0.02;
  const auto r = api::run_experiment(two_cells(), cfg);

  EXPECT_GT(r.fault_backbone_drops, 0u);
  EXPECT_GT(r.fault_interference_bursts, 0u);
  EXPECT_GT(r.throughput_mbps(), 0.5);
  EXPECT_GT(r.domino_rows_executed, 0u);
  EXPECT_LT(r.domino_missed_rows, r.domino_rows_executed);
  EXPECT_FALSE(r.domino_recovery_latency_slots.empty());
  // Per-AP chain health is populated for every AP.
  EXPECT_EQ(r.ap_chain_health.size(), 2u);
  std::uint64_t health_self_starts = 0;
  for (const auto& h : r.ap_chain_health) {
    health_self_starts += h.self_starts;
  }
  EXPECT_EQ(health_self_starts, r.domino_self_starts);
}

// ---- determinism under parallel sweeps -------------------------------------

// Same seed + same FaultPlan => byte-identical metrics, 1 vs N sweep
// threads, with every fault class active at once.
TEST(FaultDeterminism, SerialAndPooledSweepsIdenticalUnderFaults) {
  api::ExperimentConfig cfg = domino_config(msec(250));
  cfg.faults.backbone.drop_rate = 0.05;
  cfg.faults.backbone.dup_rate = 0.02;
  cfg.faults.backbone.spike_rate = 0.02;
  cfg.faults.interference.duty = 0.1;
  cfg.faults.signature.false_negative_rate = 0.01;
  cfg.faults.signature.false_positive_rate = 0.005;
  cfg.faults.clock.max_skew_ppm = 25.0;
  cfg.faults.controller.outages.push_back({msec(100), msec(10)});

  const auto points = api::seed_sweep(two_cells(), cfg, 1, 8);
  api::SweepRunner serial(threads(1));
  api::SweepRunner pooled(threads(4));
  const api::SweepReport a = serial.run_outcomes(points);
  const api::SweepReport b = pooled.run_outcomes(points);
  ASSERT_EQ(a.outcomes.size(), 8u);
  ASSERT_TRUE(a.all_ok());
  EXPECT_EQ(api::serialize_report(a), api::serialize_report(b));
  // The plan actually fired (this is not a vacuous comparison).
  std::uint64_t drops = 0, losses = 0;
  for (const api::PointOutcome& o : a.outcomes) {
    drops += o.result.fault_backbone_drops;
    losses += o.result.domino_forced_trigger_losses;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(losses, 0u);
}

// Re-running the exact same faulted config twice is also bit-identical
// (injector RNG is derived from the seed, never from global state).
TEST(FaultDeterminism, RepeatRunsIdentical) {
  api::ExperimentConfig cfg = domino_config(msec(300));
  cfg.faults.backbone.drop_rate = 0.1;
  cfg.faults.interference.duty = 0.15;
  expect_identical(api::run_experiment(two_cells(), cfg),
                   api::run_experiment(two_cells(), cfg));
}

// ---- bounded bookkeeping ---------------------------------------------------

TEST(BoundedIdFilter, EvictsOldestNeverForgetsNewest) {
  domino::BoundedIdFilter f(4);
  for (traffic::PacketId id = 1; id <= 4; ++id) {
    EXPECT_TRUE(f.insert(id));
  }
  EXPECT_FALSE(f.insert(3));  // duplicate detected
  EXPECT_EQ(f.size(), 4u);
  EXPECT_TRUE(f.insert(5));  // evicts 1, keeps 2..5
  EXPECT_EQ(f.size(), 4u);
  EXPECT_FALSE(f.contains(1));
  EXPECT_TRUE(f.contains(2));
  EXPECT_TRUE(f.contains(5));
  // The evicted id reads as new again (cap is a memory bound, not a
  // correctness guarantee for arbitrarily stale duplicates).
  EXPECT_TRUE(f.insert(1));
  // Unlike cap-then-clear, recent ids survive the eviction that readmitted
  // the stale one.
  EXPECT_TRUE(f.contains(5));
  EXPECT_FALSE(f.insert(5));
}

// ---- plan validation (exact messages) --------------------------------------
// run_experiment() calls fault::validate before assembling anything, so a
// malformed plan fails fast with a message naming the exact knob. The tests
// pin the full text: these strings are the user-facing API of the validator.

std::string fault_error(const fault::FaultPlan& plan) {
  try {
    fault::validate(plan);
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(FaultValidate, AcceptsDefaultAndAcceptanceScenarioPlans) {
  EXPECT_EQ(fault_error(fault::FaultPlan{}), "");
  fault::FaultPlan plan;
  plan.backbone.drop_rate = 0.05;
  plan.interference.duty = 0.1;
  plan.signature.false_negative_rate = 0.02;
  plan.clock.max_skew_ppm = 25.0;
  plan.controller.outages.push_back({msec(100), msec(10)});
  EXPECT_EQ(fault_error(plan), "");
}

TEST(FaultValidate, RejectsOutOfRangeRates) {
  fault::FaultPlan plan;
  plan.backbone.drop_rate = 1.5;
  EXPECT_EQ(fault_error(plan),
            "faults.backbone.drop_rate must be a probability in [0, 1] "
            "(got " +
                std::to_string(1.5) + ")");

  plan.backbone.drop_rate = 0.0;
  plan.backbone.dup_rate = -0.1;
  EXPECT_EQ(fault_error(plan),
            "faults.backbone.dup_rate must be a probability in [0, 1] "
            "(got " +
                std::to_string(-0.1) + ")");

  // NaN is not a probability either (the `!(x >= 0 && x <= 1)` form).
  plan.backbone.dup_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(fault_error(plan), "");
}

TEST(FaultValidate, RejectsBadWindowsAndSpikes) {
  fault::FaultPlan plan;
  plan.backbone.spike_extra = -1;
  EXPECT_EQ(fault_error(plan),
            "faults.backbone.spike_extra must be non-negative (got -1 ns)");

  plan.backbone.spike_extra = 0;
  plan.controller.outages.push_back({-5, msec(10)});
  EXPECT_EQ(fault_error(plan),
            "faults.controller.outages[].start must be non-negative "
            "(got -5 ns)");

  plan.controller.outages[0] = {msec(10), -1};
  EXPECT_EQ(fault_error(plan),
            "faults.controller.outages[].duration must be non-negative "
            "(got -1 ns)");
}

TEST(FaultValidate, RejectsBadInterferenceKnobs) {
  fault::FaultPlan plan;
  plan.interference.duty = 0.2;
  plan.interference.period = 0;
  EXPECT_EQ(fault_error(plan),
            "faults.interference.period must be positive when duty > 0 "
            "(got 0 ns)");

  plan.interference.period = msec(1);
  plan.interference.power_dbm = 10.0;
  EXPECT_EQ(fault_error(plan),
            "faults.interference.power_dbm must be a received power <= 0 dBm "
            "(got " +
                std::to_string(10.0) + ")");
}

TEST(FaultValidate, RejectsBadSignatureAndClockKnobs) {
  fault::FaultPlan plan;
  plan.signature.blackouts.push_back(
      fault::SignatureFaults::Blackout{-1, {0, msec(1)}});
  EXPECT_EQ(fault_error(plan),
            "faults.signature.blackouts[].node must be a valid node id "
            "(got -1)");
  plan.signature.blackouts.clear();

  plan.clock.max_skew_ppm = -1.0;
  EXPECT_EQ(fault_error(plan),
            "faults.clock.max_skew_ppm must be finite and non-negative "
            "(got " +
                std::to_string(-1.0) + ")");
  plan.clock.max_skew_ppm = std::numeric_limits<double>::infinity();
  EXPECT_NE(fault_error(plan), "");
}

TEST(FaultValidate, RejectsBadApOutages) {
  fault::FaultPlan plan;
  plan.ap_outages.push_back(fault::ApOutage{-2, {0, msec(1)}});
  EXPECT_EQ(fault_error(plan),
            "faults.ap_outages[].ap must be a valid node id (got -2)");
}

TEST(FaultValidate, ExperimentRejectsMalformedPlanBeforeRunning) {
  api::ExperimentConfig cfg = domino_config(msec(100));
  cfg.faults.backbone.drop_rate = 2.0;
  EXPECT_THROW(api::run_experiment(two_cells(), cfg), std::invalid_argument);
}

}  // namespace
}  // namespace dmn
