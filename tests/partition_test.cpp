// Tests for the partitioned simulation kernel: interference-component
// partitioning (topo/partition.h), the conservative-lookahead event-queue
// protocol (sim/simulator.h), causality and latency-floor guards, and
// byte-stability of experiment results across worker-thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "sim/simulator.h"
#include "topo/dynamics.h"
#include "topo/partition.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "wired/backbone.h"

namespace dmn {
namespace {

// ---- topology fixtures ------------------------------------------------------

/// Two radio-isolated buildings, one AP + `clients` clients each.
topo::Topology two_buildings(std::size_t clients = 2) {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  for (std::size_t i = 0; i < clients; ++i) {
    b.add_client(a0);
    b.add_client(a1);
  }
  return b.build();
}

/// Two cells whose APs can hear each other: a single interference component.
topo::Topology two_cells_coupled() {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);
  b.add_client(a1);
  b.sense(a0, a1);
  return b.build();
}

/// Reference component labelling: BFS over the union of audibility edges
/// and client-AP association edges, components numbered in node-id order of
/// their first (smallest) member — the same canonical order
/// compute_partitions documents.
topo::Partitioning bfs_partitions(const topo::Topology& t) {
  const std::size_t n = t.num_nodes();
  topo::Partitioning out;
  out.assignment.assign(n, UINT32_MAX);
  std::uint32_t next = 0;
  std::vector<topo::NodeId> stack;
  for (std::size_t s = 0; s < n; ++s) {
    if (out.assignment[s] != UINT32_MAX) continue;
    const std::uint32_t comp = next++;
    stack.push_back(static_cast<topo::NodeId>(s));
    out.assignment[s] = comp;
    while (!stack.empty()) {
      const topo::NodeId u = stack.back();
      stack.pop_back();
      auto visit = [&](topo::NodeId v) {
        if (out.assignment[static_cast<std::size_t>(v)] == UINT32_MAX) {
          out.assignment[static_cast<std::size_t>(v)] = comp;
          stack.push_back(v);
        }
      };
      for (topo::NodeId v : t.audible_from(u)) visit(v);
      const topo::Node& node = t.node(u);
      if (!node.is_ap && node.ap != topo::kNoNode) visit(node.ap);
      for (std::size_t w = 0; w < n; ++w) {
        const topo::Node& other = t.node(static_cast<topo::NodeId>(w));
        if (!other.is_ap && other.ap == u) {
          visit(static_cast<topo::NodeId>(w));
        }
      }
    }
  }
  out.count = next;
  return out;
}

// ---- partition computation --------------------------------------------------

TEST(Partition, SingleCellIsOnePartition) {
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  b.add_client(ap);
  b.add_client(ap);
  const auto t = b.build();
  const auto p = topo::compute_partitions(t);
  EXPECT_EQ(p.count, 1u);
  for (std::uint32_t a : p.assignment) EXPECT_EQ(a, 0u);
}

TEST(Partition, IsolatedBuildingsSplit) {
  const auto t = two_buildings(2);
  const auto p = topo::compute_partitions(t);
  ASSERT_EQ(p.count, 2u);
  // Canonical numbering: partition of the smallest node id is 0.
  EXPECT_EQ(p.assignment[0], 0u);  // AP 0
  EXPECT_EQ(p.assignment[1], 1u);  // AP 1
  for (std::size_t n = 2; n < t.num_nodes(); ++n) {
    EXPECT_EQ(p.assignment[n], p.assignment[static_cast<std::size_t>(
                                   t.node(static_cast<topo::NodeId>(n)).ap)]);
  }
  const auto m0 = p.members_of(0);
  const auto m1 = p.members_of(1);
  EXPECT_EQ(m0.size() + m1.size(), t.num_nodes());
}

TEST(Partition, SenseEdgeMergesBuildings) {
  const auto t = two_cells_coupled();
  EXPECT_EQ(topo::compute_partitions(t).count, 1u);
}

TEST(Partition, BridgingClientMergesBuildings) {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);
  const auto bridge = b.add_client(a1);
  // The bridge client is audible at the *other* building's AP: one
  // component, even though the APs cannot hear each other.
  b.set_rss(bridge, a0, topo::kRssSense);
  const auto t = b.build();
  EXPECT_EQ(topo::compute_partitions(t).count, 1u);
}

TEST(Partition, PropertyNoAudibleEdgeCrossesAndMatchesBfs) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    // Random multi-building layout: each building is a chain of APs with
    // random clients; buildings are radio-isolated from each other.
    topo::ManualTopologyBuilder b;
    const int buildings = 2 + static_cast<int>(rng.uniform(0.0, 3.0));
    for (int k = 0; k < buildings; ++k) {
      topo::NodeId prev = topo::kNoNode;
      const int aps = 1 + static_cast<int>(rng.uniform(0.0, 2.5));
      for (int a = 0; a < aps; ++a) {
        const auto ap = b.add_ap();
        if (prev != topo::kNoNode) b.sense(prev, ap);
        const int clients = static_cast<int>(rng.uniform(0.0, 2.5));
        for (int c = 0; c < clients; ++c) b.add_client(ap);
        prev = ap;
      }
    }
    const auto t = b.build();
    const auto p = topo::compute_partitions(t);
    const auto ref = bfs_partitions(t);
    EXPECT_EQ(p.count, ref.count);
    EXPECT_EQ(p.assignment, ref.assignment);
    // The defining property: no audible edge crosses a partition boundary.
    for (std::size_t n = 0; n < t.num_nodes(); ++n) {
      for (topo::NodeId v : t.audible_from(static_cast<topo::NodeId>(n))) {
        EXPECT_EQ(p.assignment[n], p.assignment[static_cast<std::size_t>(v)]);
      }
    }
    // members_of round-trips the assignment.
    std::size_t total = 0;
    for (std::uint32_t q = 0; q < p.count; ++q) {
      for (topo::NodeId m : p.members_of(q)) {
        EXPECT_EQ(p.assignment[static_cast<std::size_t>(m)], q);
        ++total;
      }
    }
    EXPECT_EQ(total, t.num_nodes());
  }
}

// ---- kernel guards ----------------------------------------------------------

TEST(Kernel, SchedulingIntoThePastThrows) {
  sim::Simulator sim;
  sim.schedule_at(usec(10), [] {});
  sim.run_until(usec(100));  // clock is now at 100 us
  EXPECT_THROW(sim.post_at(usec(50), [] {}), std::logic_error);
  EXPECT_THROW((void)sim.schedule_at(usec(50), [] {}), std::logic_error);
  // The boundary case (at == now) stays legal.
  sim.post_at(usec(100), [] {});
  sim.run_until(usec(101));
}

TEST(Kernel, CrossPartitionSendBelowLookaheadThrows) {
  sim::Simulator sim;
  sim.configure_partitions({0u, 1u}, 2, usec(20), 1);
  sim::Simulator::Scope scope(sim, 0);
  // Below the lookahead horizon: rejected.
  EXPECT_THROW(sim.post_to_queue(1, usec(10), [] {}), std::logic_error);
  // At the horizon: accepted and delivered.
  bool ran = false;
  sim.post_to_queue(1, usec(20), [&] { ran = true; });
  sim.run_until(usec(50));
  EXPECT_TRUE(ran);
}

TEST(Kernel, NegativeExtraLatencyThrows) {
  sim::Simulator sim;
  wired::Backbone bb(sim, wired::BackboneParams{}, Rng(7));
  bb.set_fault_hook([] { return wired::DeliveryMod{1, -usec(5)}; });
  EXPECT_THROW(bb.send([] {}), std::invalid_argument);
}

TEST(Kernel, BackboneRespectsMinLatencyFloor) {
  sim::Simulator sim;
  wired::BackboneParams params;
  params.mean_latency = usec(30);
  params.sigma_latency = usec(200);  // huge jitter: clamp must engage
  params.min_latency = usec(25);
  wired::Backbone bb(sim, params, Rng(3));
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(bb.sample_latency(), params.min_latency);
  }
}

// ---- thread-count resolution ------------------------------------------------

TEST(Threads, ResolutionOrder) {
  ::unsetenv("DMN_SIM_THREADS");
  api::ExperimentConfig cfg;
  EXPECT_EQ(api::resolve_sim_threads(cfg), 0u);  // unset env, default cfg
  cfg.sim_threads = 4;
  EXPECT_EQ(api::resolve_sim_threads(cfg), 4u);  // explicit cfg wins
  ::setenv("DMN_SIM_THREADS", "2", 1);
  EXPECT_EQ(api::resolve_sim_threads(cfg), 4u);
  cfg.sim_threads = 0;
  EXPECT_EQ(api::resolve_sim_threads(cfg), 2u);  // env fallback
  cfg.sim_threads = -1;
  EXPECT_EQ(api::resolve_sim_threads(cfg), 0u);  // negative forces classic
  ::setenv("DMN_SIM_THREADS", "garbage", 1);
  cfg.sim_threads = 0;
  EXPECT_EQ(api::resolve_sim_threads(cfg), 0u);
  ::unsetenv("DMN_SIM_THREADS");
}

// ---- experiment-level determinism -------------------------------------------

api::ExperimentConfig part_cfg(api::Scheme s, int threads) {
  api::ExperimentConfig cfg;
  cfg.scheme = s;
  cfg.duration = msec(300);
  cfg.traffic.downlink_bps = 5e6;
  cfg.traffic.uplink_bps = 1e6;
  cfg.audit.mode = audit::AuditMode::kOff;
  cfg.sim_threads = threads;
  return cfg;
}

std::string run_bytes(const topo::Topology& t,
                      const api::ExperimentConfig& cfg) {
  return api::serialize_result(api::run_experiment(t, cfg));
}

TEST(Determinism, ByteStableAcrossThreadCounts) {
  const auto t = two_buildings(2);
  for (api::Scheme s : {api::Scheme::kDcf, api::Scheme::kDomino}) {
    const std::string one = run_bytes(t, part_cfg(s, 1));
    const std::string two = run_bytes(t, part_cfg(s, 2));
    const std::string eight = run_bytes(t, part_cfg(s, 8));
    EXPECT_EQ(one, two) << api::to_string(s);
    EXPECT_EQ(one, eight) << api::to_string(s);
  }
}

TEST(Determinism, ByteStableUnderFaultPlan) {
  const auto t = two_buildings(2);
  auto cfg = part_cfg(api::Scheme::kDomino, 1);
  cfg.faults.backbone.drop_rate = 0.05;
  cfg.faults.signature.false_negative_rate = 0.02;
  cfg.faults.clock.max_skew_ppm = 20.0;
  const std::string one = run_bytes(t, cfg);
  cfg.sim_threads = 2;
  const std::string two = run_bytes(t, cfg);
  cfg.sim_threads = 8;
  const std::string eight = run_bytes(t, cfg);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Determinism, AuditPassiveAndViolationFreeWhenPartitioned) {
  const auto t = two_buildings(2);
  const std::string plain = run_bytes(t, part_cfg(api::Scheme::kDomino, 2));
  auto cfg = part_cfg(api::Scheme::kDomino, 2);
  cfg.audit.mode = audit::AuditMode::kRecord;
  const auto r = api::run_experiment(t, cfg);
  EXPECT_EQ(api::serialize_result(r), plain);  // auditors stay passive
  ASSERT_NE(r.audit, nullptr);
  EXPECT_GT(r.audit->checks_run, 100u);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
}

TEST(Determinism, SingleComponentFallsBackToClassicKernel) {
  const auto t = two_cells_coupled();
  auto cfg = part_cfg(api::Scheme::kDomino, 4);
  const auto r = api::run_experiment(t, cfg);
  EXPECT_EQ(r.sim_partitions, 1u);  // one component: no partitioning
  cfg.sim_threads = -1;             // force-classic reference
  EXPECT_EQ(api::serialize_result(r), run_bytes(t, cfg));
}

TEST(Determinism, DynamicTopologyForcesClassicKernelAndStaysByteStable) {
  // A multi-building floor plan splits into interference components, but an
  // active DynamicsPlan makes the partition gate fall back to the classic
  // kernel: partitions are computed from the static audibility graph, so a
  // mutable topology cannot run partitioned. Byte stability across
  // DMN_SIM_THREADS values must hold trivially — every thread count takes
  // the same single-queue path.
  topo::TraceParams params;
  params.building_gap = 500.0;  // radio-isolate the two buildings
  Rng rng(11);
  const auto t = topo::make_floorplan_topology(params, 4, 2, {}, rng);
  for (api::Scheme s : {api::Scheme::kDcf, api::Scheme::kDomino}) {
    SCOPED_TRACE(api::to_string(s));
    auto cfg = part_cfg(s, 1);
    cfg.dynamics.floorplan = params;
    cfg.dynamics.epoch = msec(20);
    cfg.dynamics.churn_rate_hz = 4.0;
    cfg.dynamics.churn_downtime = msec(40);
    cfg.dynamics.roam.enabled = true;
    cfg.dynamics.roam.min_dwell = msec(40);

    const auto one = api::run_experiment(t, cfg);
    EXPECT_EQ(one.sim_partitions, 1u) << "dynamics ran partitioned";
    EXPECT_GT(one.lifecycle_leaves, 0u) << "churn never fired";

    cfg.sim_threads = 4;
    const std::string four = run_bytes(t, cfg);
    cfg.sim_threads = 8;
    const std::string eight = run_bytes(t, cfg);
    EXPECT_EQ(api::serialize_result(one), four);
    EXPECT_EQ(four, eight);

    // The same topology without dynamics does partition — the fallback is
    // the plan's doing, not the topology's.
    auto static_cfg = part_cfg(s, 4);
    const auto static_r = api::run_experiment(t, static_cfg);
    EXPECT_GT(static_r.sim_partitions, 1u);
  }
}

TEST(Partitioned, SmokeBothBuildingsCarryTraffic) {
  const auto t = two_buildings(2);
  const auto r = api::run_experiment(t, part_cfg(api::Scheme::kDomino, 2));
  EXPECT_EQ(r.sim_partitions, 2u);
  EXPECT_GT(r.events_executed, 0u);
  ASSERT_FALSE(r.links.empty());
  // Every downlink flow in both buildings delivered something.
  for (const api::LinkResult& lr : r.links) {
    if (!lr.uplink) EXPECT_GT(lr.delivered, 0u) << "flow " << lr.flow.id;
  }
}

TEST(Partitioned, AggregatedEventBudgetInterrupts) {
  const auto t = two_buildings(2);
  api::Experiment e(t, part_cfg(api::Scheme::kDomino, 2));
  e.set_run_guard(nullptr, 2000);
  EXPECT_THROW((void)e.run(), api::ExperimentInterrupted);
}

// ---- window protocol v2 -----------------------------------------------------

/// A small campus: four radio-isolated buildings, each a two-AP chain with
/// two clients per AP — enough components that the sparse-activation and
/// LPT paths in the scheduler actually engage.
topo::Topology campus4() {
  topo::ManualTopologyBuilder b;
  for (int k = 0; k < 4; ++k) {
    const auto a0 = b.add_ap();
    const auto a1 = b.add_ap();
    b.sense(a0, a1);
    b.add_client(a0);
    b.add_client(a0);
    b.add_client(a1);
    b.add_client(a1);
  }
  return b.build();
}

TEST(Determinism, CampusByteStableAtAllThreadCountsWithFaultsAndAudit) {
  const auto t = campus4();
  for (api::Scheme s : {api::Scheme::kDcf, api::Scheme::kDomino}) {
    auto cfg = part_cfg(s, 1);
    cfg.duration = msec(150);
    cfg.faults.backbone.drop_rate = 0.05;
    cfg.faults.signature.false_negative_rate = 0.02;
    cfg.faults.clock.max_skew_ppm = 20.0;
    cfg.audit.mode = audit::AuditMode::kRecord;
    const auto ref = api::run_experiment(t, cfg);
    EXPECT_EQ(ref.sim_partitions, 4u);
    ASSERT_NE(ref.audit, nullptr);
    EXPECT_TRUE(ref.audit->violation_free()) << ref.audit->summary();
    const std::string one = api::serialize_result(ref);
    for (int threads : {2, 4, 8}) {
      cfg.sim_threads = threads;
      EXPECT_EQ(run_bytes(t, cfg), one)
          << api::to_string(s) << " at " << threads << " threads";
    }
  }
}

TEST(Determinism, AdaptiveWindowsMatchFixedWindowStepping) {
  // DMN_SIM_FIXED_WINDOWS=1 forces the dumb reference schedule: dense
  // [s, s+L) windows, no fast-forward, no elongation. For schemes whose
  // cross-queue interaction is purely message-passing (DCF here), the
  // adaptive scheduler must produce byte-identical results — delivery
  // order is encoded in the destination heap key, so window policy is a
  // performance choice, never a semantic one.
  //
  // DOMINO is deliberately excluded: its controller performs synchronous
  // downlink peeks of AP MAC state at window barriers, and how far a node
  // queue has progressed when a peek at wired-time t runs depends on
  // where the window boundaries fall. Both schedules stay within the
  // documented <= L staleness bound, but the exact peeked values can
  // differ, so fixed-vs-adaptive byte equality is not a contract for
  // peeking controllers. (Thread-count byte-stability — the kernel's real
  // contract — holds for every scheme; see the test above.)
  const auto t = campus4();
  auto cfg = part_cfg(api::Scheme::kDcf, 2);
  cfg.duration = msec(150);
  ::unsetenv("DMN_SIM_FIXED_WINDOWS");
  const std::string adaptive = run_bytes(t, cfg);
  ::setenv("DMN_SIM_FIXED_WINDOWS", "1", 1);
  const std::string fixed = run_bytes(t, cfg);
  ::unsetenv("DMN_SIM_FIXED_WINDOWS");
  EXPECT_EQ(adaptive, fixed);
}

TEST(Kernel, AdaptiveWindowsFastForwardAndElongate) {
  sim::Simulator sim;
  sim.configure_partitions({0u, 1u}, 2, usec(20), 1);
  int ran = 0;
  {
    sim::Simulator::Scope scope(sim, 0);
    sim.post_at(0, [&] { ++ran; });
    sim.post_at(msec(5), [&] { ++ran; });
  }
  {
    sim::Simulator::Scope scope(sim, 1);
    sim.post_at(msec(10), [&] { ++ran; });
  }
  sim.run_until(msec(20));
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sim.now(), msec(20));
  const sim::KernelStats& ks = sim.kernel_stats();
  // Three isolated events => three windows, each start a fast-forward jump
  // after the first, each window elongated (the minimum is always unique).
  EXPECT_EQ(ks.windows, 3u);
  EXPECT_GE(ks.ff_jumps, 2u);
  EXPECT_GE(ks.elongated_windows, 3u);
  EXPECT_EQ(ks.activations, 3u);
  EXPECT_EQ(ks.activated_max(), 1u);
}

TEST(Kernel, ReconfigureBeforeSchedulingTakesEffect) {
  // configure_partitions() may legally run again before any scheduling;
  // the second call must rebuild everything — partition count, lookahead,
  // node map, worker pool, telemetry — rather than mixing old state (e.g.
  // a pool sized for the previous thread count, or wake counters surviving
  // the stats reset) into the new configuration.
  sim::Simulator sim;
  sim.configure_partitions({0u, 1u}, 2, usec(20), 8);
  sim.configure_partitions({0u, 1u, 2u, 0u}, 3, usec(40), 2);
  EXPECT_EQ(sim.partition_count(), 3u);
  EXPECT_EQ(sim.lookahead(), usec(40));
  EXPECT_EQ(sim.queue_of_node(3), 0u);
  // The three events run on different queues, possibly on different
  // worker threads.
  std::atomic<int> ran = 0;
  for (std::uint32_t q = 0; q < 3; ++q) {
    sim::Simulator::Scope scope(sim, q);
    sim.post_at(usec(q), [&ran] { ++ran; });
  }
  sim.run_until(msec(1));
  EXPECT_EQ(ran, 3);
  const sim::KernelStats& ks = sim.kernel_stats();
  // All three events fit a single 40 us window starting at 0; the stats
  // must reflect only the post-reconfigure run.
  EXPECT_EQ(ks.windows, 1u);
  EXPECT_EQ(ks.activations, 3u);
  EXPECT_EQ(ks.activation_hist.size(), 4u);
}

TEST(Kernel, CrossPartitionPingPongStressAtEightThreads) {
  // Eight chains hopping between partitions every lookahead: maximal
  // cross-partition traffic over the spin/generation pool handoff. The
  // assertions are exact because the schedule is deterministic; the real
  // payload is running this under TSan (CI runs partition_test with
  // -fsanitize=thread).
  struct Pinger {
    sim::Simulator& sim;
    std::vector<std::uint64_t>& hits;
    std::uint32_t partitions;
    TimeNs until;
    void fire(std::uint32_t q) {
      ++hits[q];
      const TimeNs next = sim.now() + sim.lookahead();
      if (next > until) return;
      const std::uint32_t dst = (q + 1) % partitions;
      sim.post_to_queue(dst, next, [this, dst] { fire(dst); });
    }
  };
  const std::uint32_t partitions = 8;
  const TimeNs until = msec(5);
  sim::Simulator sim;
  std::vector<std::uint32_t> assignment(partitions);
  for (std::uint32_t n = 0; n < partitions; ++n) assignment[n] = n;
  sim.configure_partitions(std::move(assignment), partitions, usec(20), 8);
  std::vector<std::uint64_t> hits(partitions, 0);
  Pinger pinger{sim, hits, partitions, until};
  for (std::uint32_t q = 0; q < partitions; ++q) {
    sim::Simulator::Scope scope(sim, q);
    sim.post_at(0, [&pinger, q] { pinger.fire(q); });
  }
  sim.run_until(until);
  // Each chain fires at 0, L, 2L, ..., until inclusive.
  const std::uint64_t hops_per_chain =
      static_cast<std::uint64_t>(until / usec(20)) + 1;
  std::uint64_t total = 0;
  for (std::uint64_t h : hits) total += h;
  EXPECT_EQ(total, hops_per_chain * partitions);
  EXPECT_EQ(sim.events_executed(), hops_per_chain * partitions);
  const sim::KernelStats& ks = sim.kernel_stats();
  EXPECT_GT(ks.windows, 0u);
  EXPECT_EQ(ks.activated_max(), partitions);
}

}  // namespace
}  // namespace dmn
