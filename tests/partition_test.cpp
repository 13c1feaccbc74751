// Tests for the partitioned simulation kernel: interference-component
// partitioning (topo/partition.h), the conservative-lookahead event-queue
// protocol (sim/simulator.h), causality and latency-floor guards, and
// byte-stability of experiment results across worker-thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "rop/params.h"
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

/// `buildings` radio-isolated buildings, each a two-AP chain with two
/// clients per AP.
topo::Topology campus(int buildings) {
  topo::ManualTopologyBuilder b;
  for (int k = 0; k < buildings; ++k) {
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

/// Reference component labelling: BFS over the union of coupling edges
/// (nonzero linear power) and client-AP association edges, components
/// numbered in node-id order of their first (smallest) member — the same
/// canonical order compute_partitions documents.
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
      for (std::size_t w = 0; w < n; ++w) {
        const auto v = static_cast<topo::NodeId>(w);
        if (t.rss_mw(u, v) > 0.0) visit(v);
      }
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
    // random clients; buildings are radio-isolated from each other, except
    // that a building's first AP sometimes gets a sub-audible (-100 dBm)
    // path to the previous building, which couples the two.
    topo::ManualTopologyBuilder b;
    const int buildings = 2 + static_cast<int>(rng.uniform(0.0, 3.0));
    topo::NodeId last_ap = topo::kNoNode;
    for (int k = 0; k < buildings; ++k) {
      topo::NodeId prev = topo::kNoNode;
      const int aps = 1 + static_cast<int>(rng.uniform(0.0, 2.5));
      for (int a = 0; a < aps; ++a) {
        const auto ap = b.add_ap();
        if (prev != topo::kNoNode) b.sense(prev, ap);
        if (prev == topo::kNoNode && last_ap != topo::kNoNode &&
            rng.chance(0.3)) {
          b.set_rss(last_ap, ap, -100.0);
        }
        const int clients = static_cast<int>(rng.uniform(0.0, 2.5));
        for (int c = 0; c < clients; ++c) b.add_client(ap);
        prev = ap;
      }
      last_ap = prev;
    }
    const auto t = b.build();
    const auto p = topo::compute_partitions(t);
    const auto ref = bfs_partitions(t);
    EXPECT_EQ(p.count, ref.count);
    EXPECT_EQ(p.assignment, ref.assignment);
    EXPECT_EQ(p.count, t.component_count());
    // The defining property: no coupling edge — a fortiori no audible
    // edge — crosses a partition boundary.
    for (std::size_t n = 0; n < t.num_nodes(); ++n) {
      for (std::size_t v = 0; v < t.num_nodes(); ++v) {
        if (t.rss_mw(static_cast<topo::NodeId>(n),
                     static_cast<topo::NodeId>(v)) > 0.0) {
          EXPECT_EQ(p.assignment[n], p.assignment[v]);
        }
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

TEST(Partition, RandomSparseCouplingMatchesBfs) {
  // Random sparse coupling graphs, with and without association edges:
  // deep union-find trees, whose roots move more than once, must still
  // label every member with its component.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    topo::ManualTopologyBuilder b;
    const int aps = 4 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int i = 0; i < aps; ++i) b.add_ap();
    const int clients = static_cast<int>(rng.uniform(0.0, 12.0));
    for (int i = 0; i < clients; ++i) {
      b.add_client(static_cast<topo::NodeId>(rng.uniform_int(0, aps - 1)));
    }
    const int n = aps + clients;
    for (int a = 0; a < n; ++a) {
      for (int c = a + 1; c < n; ++c) {
        if (rng.chance(0.06)) b.set_rss(a, c, -100.0);
      }
    }
    const auto t = b.build();
    const auto ref = bfs_partitions(t);
    const auto p = topo::compute_partitions(t);
    ASSERT_EQ(p.count, ref.count) << "trial " << trial;
    ASSERT_EQ(p.assignment, ref.assignment) << "trial " << trial;
  }
}

TEST(Partition, PathLossFloorPlanIsOneComponentAtAnyBuildingGap) {
  // Path loss leaves nonzero power between every pair, however far apart
  // the buildings are.
  for (const double gap : {0.0, 50.0, 500.0, 5000.0}) {
    topo::TraceParams params;
    params.building_gap = gap;
    Rng rng(11);
    const auto t = topo::make_floorplan_topology(params, 4, 2, {}, rng);
    EXPECT_EQ(t.component_count(), 1u) << "gap " << gap;
    EXPECT_EQ(topo::compute_partitions(t).count, 1u) << "gap " << gap;
  }
}

TEST(Partition, CouplingUpdatesMergeAndNeverSplit) {
  auto t = campus(3);  // buildings {0..5}, {6..11}, {12..17}
  ASSERT_EQ(t.component_count(), 3u);
  t.update_rss(7, 13, -110.0);  // sub-audible, but power: couples
  EXPECT_EQ(t.component_count(), 2u);
  EXPECT_EQ(t.component_of(7), t.component_of(17));
  EXPECT_EQ(t.component_of(0), 0u);  // numbered by smallest member
  EXPECT_EQ(t.component_of(6), 1u);
  const std::vector<topo::NodeId> merged(t.component_members(1).begin(),
                                         t.component_members(1).end());
  EXPECT_EQ(merged.size(), 12u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  t.update_rss(7, 13, topo::kRssFaint);  // no path again: stays merged
  EXPECT_EQ(t.component_count(), 2u);
  t.set_association(2, 6);  // roams across buildings: couples
  EXPECT_EQ(t.component_count(), 1u);
  EXPECT_EQ(topo::compute_partitions(t).assignment,
            std::vector<std::uint32_t>(t.num_nodes(), 0u));
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
  sim.configure_partitions({0u, 1u}, 2, 1);
  sim.add_cross_queue_channel(usec(20));
  sim::Simulator::Scope scope(sim, 0);
  // Below the lookahead horizon: rejected.
  EXPECT_THROW(sim.post_to_queue(1, usec(10), [] {}), std::logic_error);
  // At the horizon: accepted and delivered.
  bool ran = false;
  sim.post_to_queue(1, usec(20), [&] { ran = true; });
  // The horizon counts from the sender's running clock, and the farthest
  // landing time passes without overflow.
  bool checked = false;
  sim.post_at(usec(30), [&] {
    EXPECT_THROW(sim.post_to_queue(1, usec(49), [] {}), std::logic_error);
    EXPECT_THROW(sim.post_to_queue(1, usec(10), [] {}), std::logic_error);
    sim.post_to_queue(1, sim::kTimeNever - 1, [] {});
    checked = true;
  });
  sim.run_until(usec(50));
  EXPECT_TRUE(ran);
  EXPECT_TRUE(checked);
}

TEST(Kernel, LookaheadIsTheSmallestDeclaredChannelFloor) {
  sim::Simulator sim;
  sim.add_cross_queue_channel(usec(30));
  EXPECT_EQ(sim.lookahead(), sim::kTimeNever);  // one queue: nothing crosses
  sim.configure_partitions({0u, 1u}, 2, 1);
  EXPECT_EQ(sim.lookahead(), usec(30));  // declared before configuring
  sim.add_cross_queue_channel(usec(50));
  EXPECT_EQ(sim.lookahead(), usec(30));
  sim.add_cross_queue_channel(usec(20));
  EXPECT_EQ(sim.lookahead(), usec(20));
  EXPECT_THROW(sim.add_cross_queue_channel(0), std::invalid_argument);
  EXPECT_THROW(sim.add_cross_queue_channel(-usec(1)), std::invalid_argument);
}

TEST(Kernel, CrossQueueSendWithNoChannelThrows) {
  sim::Simulator sim;
  sim.configure_partitions({0u, 1u}, 2, 1);
  EXPECT_EQ(sim.lookahead(), sim::kTimeNever);
  sim::Simulator::Scope scope(sim, 0);
  // However far ahead: with no channel every queue runs to the horizon in
  // one window, so nothing may cross.
  EXPECT_THROW(sim.post_to_queue(1, msec(1), [] {}), std::logic_error);
  EXPECT_THROW(sim.post_to_queue(1, sim::kTimeNever, [] {}),
               std::logic_error);
  // Posting to the active queue needs no channel.
  bool ran = false;
  sim.post_to_queue(0, usec(5), [&] { ran = true; });
  sim.run_until(usec(10));
  EXPECT_TRUE(ran);
}

TEST(Kernel, DeclaringAChannelAfterAnEventRanThrows) {
  sim::Simulator sim;
  sim.configure_partitions({0u, 1u}, 2, 1);
  {
    sim::Simulator::Scope scope(sim, 0);
    sim.post_at(usec(10), [&sim] {
      // From inside an event, too.
      EXPECT_THROW(sim.add_cross_queue_channel(usec(20)), std::logic_error);
    });
  }
  // Scheduling alone is fine: no window has been granted yet.
  sim.add_cross_queue_channel(usec(40));
  sim.run_until(usec(20));
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_THROW(sim.add_cross_queue_channel(usec(20)), std::logic_error);
  EXPECT_EQ(sim.lookahead(), usec(40));
  // A Backbone declares its channel, so it cannot be built mid-run either.
  EXPECT_THROW(
      (void)wired::Backbone(sim, wired::BackboneParams{}, {0}, Rng(1)),
      std::logic_error);
}

// ---- run-loop contract ------------------------------------------------------

/// The kernels the run-loop contract covers: one queue, and two node
/// queues plus the wired queue on one thread, with a 20 us channel (20 us
/// windows) or with none (one window per run_until).
enum class ContractKernel { kOneQueue, kChannel20us, kNoChannel };

/// Ten events on queue 0 at 10, 20, ..., 100 us (event k calls `hook(k)`)
/// and five on the wired queue at 15, 35, ..., 95 us — on one queue both
/// sets land on queue 0.
struct ContractRun {
  explicit ContractRun(ContractKernel kernel,
                       std::function<void(int)> hook = {}) {
    if (kernel != ContractKernel::kOneQueue) {
      sim.configure_partitions({0u, 1u}, 2, 1);
    }
    if (kernel == ContractKernel::kChannel20us) {
      sim.add_cross_queue_channel(usec(20));
    }
    {
      sim::Simulator::Scope scope(sim, 0);
      for (int k = 1; k <= 10; ++k) {
        sim.post_at(usec(10 * k), [k, hook] {
          if (hook) hook(k);
        });
      }
    }
    sim::Simulator::Scope scope(sim, sim.wired_queue_index());
    for (int k = 0; k < 5; ++k) sim.post_at(usec(15 + 20 * k), [] {});
  }
  void expect(std::uint64_t events, bool interrupted, TimeNs now) const {
    EXPECT_EQ(sim.events_executed(), events);
    EXPECT_EQ(sim.interrupted(), interrupted);
    EXPECT_EQ(sim.now(), now);
  }
  sim::Simulator sim;
};

// One run loop serves every kernel, with one clock rule: a normal return
// leaves every clock at the horizon, a halted run (budget, interrupt flag,
// stop()) leaves each clock at its last executed event. A budget met
// exactly as the work runs out is no interruption, and run() drains a
// partitioned simulator too. With no channel each run_until is one window:
// the wired queue runs first, then queue 0, each up to the whole remaining
// budget, and a halt takes effect at the one barrier after both ran.
TEST(Kernel, RunLoopContractOnOneAndManyQueues) {
  for (const ContractKernel kernel :
       {ContractKernel::kOneQueue, ContractKernel::kChannel20us,
        ContractKernel::kNoChannel}) {
    SCOPED_TRACE(kernel == ContractKernel::kOneQueue      ? "one queue"
                 : kernel == ContractKernel::kChannel20us ? "20 us channel"
                                                          : "no channel");
    const bool one_window = kernel == ContractKernel::kNoChannel;
    // Queue 0 halts after its 4th event (40 us). One queue has run the
    // wired events at 15 and 35 us by then, 20 us windows also the one at
    // 55 us (the window [40, 60) us), one window all five.
    const std::uint64_t halted_events =
        kernel == ContractKernel::kOneQueue ? 6 : one_window ? 9 : 7;
    {
      ContractRun r(kernel);
      r.sim.set_event_budget(4);
      r.sim.run_until(msec(1));
      // One window: the wired queue and queue 0 each run 4 events.
      if (one_window) {
        r.expect(8, true, usec(40));
      } else {
        r.expect(4, true, usec(30));
      }
    }
    {
      std::atomic<bool> flag{false};
      ContractRun r(kernel, [&flag](int k) {
        if (k == 4) flag = true;
      });
      r.sim.set_interrupt_flag(&flag);
      r.sim.run_until(msec(1));
      r.expect(halted_events, true, usec(40));
    }
    {
      sim::Simulator* sim = nullptr;
      ContractRun r(kernel, [&sim](int k) {
        if (k == 4) sim->stop();
      });
      sim = &r.sim;
      r.sim.run_until(msec(1));
      r.expect(halted_events, false, usec(40));
      r.sim.run_until(msec(1));  // resumes where stop() left off
      r.expect(15, false, msec(1));
    }
    {
      ContractRun r(kernel);
      r.sim.run_until(usec(58));  // 60 us and later stay pending
      r.expect(8, false, usec(58));
      if (one_window) {
        EXPECT_EQ(r.sim.kernel_stats().windows, 1u);
      }
      r.sim.run_until(msec(1));
      r.expect(15, false, msec(1));
      if (one_window) {
        EXPECT_EQ(r.sim.kernel_stats().windows, 2u);
      }
    }
    {
      // A budget met exactly as the work runs out is no interruption.
      ContractRun r(kernel);
      r.sim.set_event_budget(15);
      r.sim.run_until(msec(1));
      r.expect(15, false, msec(1));
    }
    {
      ContractRun r(kernel);
      r.sim.run();  // drains; the clock stays at the last event
      r.expect(15, false, usec(100));
    }
  }
}

// A one-window run caps each queue at the remaining budget, independent of
// the others' progress, so the overshoot — and the count a budgeted run
// reports — is the same at any thread count.
TEST(Kernel, BudgetedOneWindowRunIsThreadCountInvariant) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    sim::Simulator sim;
    sim.configure_partitions({0u, 1u, 2u, 3u}, 4, threads);
    for (std::uint32_t q = 0; q < 4; ++q) {
      sim::Simulator::Scope scope(sim, q);
      for (int k = 1; k <= 10; ++k) sim.post_at(usec(10 * k + q), [] {});
    }
    sim.set_event_budget(6);
    sim.run_until(msec(1));
    EXPECT_TRUE(sim.interrupted());
    EXPECT_EQ(sim.events_executed(), 4u * 6u);
    EXPECT_EQ(sim.kernel_stats().windows, 1u);
  }
}

TEST(Kernel, NegativeExtraLatencyThrows) {
  sim::Simulator sim;
  wired::Backbone bb(sim, wired::BackboneParams{}, {0}, Rng(7));
  bb.set_fault_hook([](Rng&) { return wired::DeliveryMod{1, -usec(5)}; });
  EXPECT_THROW(bb.send_to_node(0, [] {}), std::invalid_argument);
}

TEST(Kernel, BackboneRespectsMinLatencyFloor) {
  sim::Simulator sim;
  wired::BackboneParams params;
  params.mean_latency = usec(30);
  params.sigma_latency = usec(200);  // huge jitter: clamp must engage
  params.min_latency = usec(25);
  wired::Backbone bb(sim, params, {0}, Rng(3));
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    // Sent at 0, so each delivery time is one latency sample.
    bb.send_to_wired(0, [&] {
      EXPECT_GE(sim.now(), params.min_latency);
      ++delivered;
    });
  }
  sim.run();
  EXPECT_EQ(delivered, 200);
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
  // An active DynamicsPlan makes the partition gate fall back to the
  // classic kernel: a topology change could couple two partitions, so a
  // mutable topology cannot run partitioned. Byte stability across
  // DMN_SIM_THREADS values must hold trivially — every thread count takes
  // the same single-queue path.
  topo::TraceParams params;
  params.building_gap = 500.0;
  Rng rng(11);
  const auto t = topo::make_floorplan_topology(params, 4, 2, {}, rng);
  // A path-loss floor plan is one coupling component; two hand-built
  // buildings with the same cells are two.
  const auto buildings = campus(2);
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

    // Without dynamics, two buildings do partition — the fallback is the
    // plan's doing, not the kernel's.
    auto static_cfg = part_cfg(s, 4);
    const auto static_r = api::run_experiment(buildings, static_cfg);
    EXPECT_GT(static_r.sim_partitions, 1u);
  }
}

// ---- timelines on every kernel ----------------------------------------------

/// A DOMINO timeline run on two radio-isolated buildings (campus(2)).
api::ExperimentConfig timeline_cfg(int threads) {
  auto cfg = part_cfg(api::Scheme::kDomino, threads);
  cfg.duration = msec(200);
  cfg.record_timeline = true;
  return cfg;
}

TEST(Timeline, RecordsOnThePartitionedKernelAtAnyThreadCount) {
  const auto t = campus(2);
  const auto four = api::run_experiment(t, timeline_cfg(4));
  const auto one = api::run_experiment(t, timeline_cfg(1));
  EXPECT_GT(four.sim_partitions, 1u) << "timeline forced one queue";
  EXPECT_EQ(one.sim_partitions, four.sim_partitions);
  ASSERT_NE(four.timeline, nullptr);
  ASSERT_NE(one.timeline, nullptr);
  const api::TimelineRecorder& a = *one.timeline;
  const api::TimelineRecorder& b = *four.timeline;
  ASSERT_FALSE(a.polls().empty());
  ASSERT_EQ(a.transmissions().size(), b.transmissions().size());
  // The merged record covers every building's APs, in start-time order.
  std::vector<bool> sent(t.num_nodes(), false);
  for (std::size_t i = 0; i < a.transmissions().size(); ++i) {
    const auto& x = a.transmissions()[i];
    const auto& y = b.transmissions()[i];
    EXPECT_EQ(std::tie(x.slot, x.sender, x.receiver, x.start, x.fake,
                       x.uplink),
              std::tie(y.slot, y.sender, y.receiver, y.start, y.fake,
                       y.uplink))
        << "record " << i;
    if (i > 0) {
      EXPECT_LE(a.transmissions()[i - 1].start, x.start);
    }
    if (!x.uplink) sent[static_cast<std::size_t>(x.sender)] = true;
  }
  for (const topo::NodeId ap : t.aps()) {
    EXPECT_TRUE(sent[static_cast<std::size_t>(ap)]) << "AP " << ap;
  }
  ASSERT_EQ(a.polls().size(), b.polls().size());
  for (std::size_t i = 0; i < a.polls().size(); ++i) {
    const auto& x = a.polls()[i];
    const auto& y = b.polls()[i];
    EXPECT_EQ(std::tie(x.slot, x.ap, x.at), std::tie(y.slot, y.ap, y.at))
        << "poll " << i;
  }
  EXPECT_EQ(a.first_slot(), b.first_slot());
  EXPECT_EQ(a.last_slot(), b.last_slot());
  const std::size_t slots = a.last_slot() - a.first_slot() + 1;
  EXPECT_EQ(a.misalignment_series(a.first_slot(), slots),
            b.misalignment_series(b.first_slot(), slots));
}

TEST(Timeline, RecordingIsPassiveOnEveryKernel) {
  const auto t = campus(2);
  for (const int threads : {-1, 1, 4}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    auto cfg = timeline_cfg(threads);
    const std::string on = run_bytes(t, cfg);
    cfg.record_timeline = false;
    EXPECT_EQ(on, run_bytes(t, cfg));
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
    if (!lr.uplink) {
      EXPECT_GT(lr.delivered, 0u) << "flow " << lr.flow.id;
    }
  }
}

TEST(Partitioned, AggregatedEventBudgetInterrupts) {
  const auto t = two_buildings(2);
  api::Experiment e(t, part_cfg(api::Scheme::kDomino, 2));
  e.set_run_guard(nullptr, 2000);
  EXPECT_THROW((void)e.run(), api::ExperimentInterrupted);
}

// ---- window protocol v2 -----------------------------------------------------

/// A small campus: enough components that the sparse-activation and LPT
/// paths in the scheduler actually engage.
topo::Topology campus4() { return campus(4); }

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

TEST(Determinism, EverySchemeGivesTheSameBytesOnOneQueueAndOnK) {
  // The partition count is a performance choice: one medium over every
  // component computes what one medium per component does, and every
  // random draw comes from a stream that no queue owns (a node's own, a
  // backbone AP endpoint's, or a setup draw of the fault injector). So the
  // result bytes are the same on one queue and on the partitioned kernel,
  // with and without faults. CENTAUR keeps one queue at any thread count.
  // The one-queue run is also the reference for the partitioned kernel's
  // adaptive windows (fast-forward and elongation), at every thread count.
  struct Case {
    api::Scheme scheme;
    rop::PollMode poll_mode;
  };
  const Case cases[] = {{api::Scheme::kDcf, rop::PollMode::kLegacy},
                        {api::Scheme::kDomino, rop::PollMode::kLegacy},
                        {api::Scheme::kDomino, rop::PollMode::kAdaptive},
                        {api::Scheme::kCentaur, rop::PollMode::kLegacy}};
  for (const auto& t : {two_buildings(2), campus4()}) {
    for (const Case c : cases) {
      for (const bool faults : {false, true}) {
        SCOPED_TRACE(std::string(api::to_string(c.scheme)) + " " +
                     rop::to_string(c.poll_mode) + " on " +
                     std::to_string(t.num_nodes()) + " nodes" +
                     (faults ? " with faults" : ""));
        auto cfg = part_cfg(c.scheme, -1);
        cfg.duration = msec(150);
        cfg.rop.poll_mode = c.poll_mode;
        if (faults) {
          cfg.faults.backbone.drop_rate = 0.05;
          cfg.faults.backbone.dup_rate = 0.05;
          cfg.faults.backbone.spike_rate = 0.05;
          cfg.faults.interference.duty = 0.1;
          cfg.faults.signature.false_negative_rate = 0.02;
          cfg.faults.clock.max_skew_ppm = 20.0;
        }
        const std::string one_queue = run_bytes(t, cfg);
        for (const int threads : {1, 2, 4}) {
          cfg.sim_threads = threads;
          const auto r = api::run_experiment(t, cfg);
          EXPECT_EQ(r.sim_partitions, c.scheme == api::Scheme::kCentaur
                                          ? 1u
                                          : t.component_count());
          EXPECT_EQ(api::serialize_result(r), one_queue)
              << "at " << threads << " threads";
        }
      }
    }
  }
}

TEST(Kernel, AdaptiveWindowsFastForwardAndElongate) {
  sim::Simulator sim;
  sim.configure_partitions({0u, 1u}, 2, 1);
  sim.add_cross_queue_channel(usec(20));
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
  // the second call must rebuild everything — partition count, node map,
  // worker pool, telemetry — rather than mixing old state (e.g. a pool
  // sized for the previous thread count, or wake counters surviving the
  // stats reset) into the new configuration. Declared channels describe
  // senders, so they survive.
  sim::Simulator sim;
  sim.configure_partitions({0u, 1u}, 2, 8);
  sim.add_cross_queue_channel(usec(40));
  sim.configure_partitions({0u, 1u, 2u, 0u}, 3, 2);
  EXPECT_EQ(sim.queue_count(), 4u);  // three partitions + the wired queue
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
  sim.configure_partitions(std::move(assignment), partitions, 8);
  sim.add_cross_queue_channel(usec(20));
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
