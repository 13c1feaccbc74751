// Integration tests: the full DOMINO stack (controller + converter + AP and
// client executors over the SINR medium) on small topologies, plus the slot
// timing and a client's poll answer checked in isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "audit/audit.h"
#include "domino/domino_mac.h"
#include "phy/medium.h"
#include "phy/transceiver.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace dmn {
namespace {

topo::Topology one_cell(int clients = 1) {
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  for (int i = 0; i < clients; ++i) b.add_client(ap);
  return b.build();
}

topo::Topology fig1_topology() {
  topo::ManualTopologyBuilder b;
  const auto ap1 = b.add_ap();
  const auto ap2 = b.add_ap();
  const auto ap3 = b.add_ap();
  b.add_client(ap1);  // 3
  b.add_client(ap2);  // 4
  b.add_client(ap3);  // 5
  b.sense(ap1, 4);
  b.interfere(ap1, 5);
  b.sense(ap2, 3);
  return b.build();
}

api::ExperimentResult run_domino(const topo::Topology& t,
                                 api::ExperimentConfig cfg) {
  cfg.scheme = api::Scheme::kDomino;
  return api::run_experiment(t, cfg);
}

TEST(DominoE2E, SingleDownlinkSaturated) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(2);
  cfg.traffic.saturate_downlink = true;
  cfg.traffic.downlink_bps = 0;
  const auto r = run_domino(one_cell(), cfg);
  // One link, one slot at a time: ~512B / ~482us (incl. ROP overhead)
  // = ~8.5 Mbps.
  EXPECT_GT(r.throughput_mbps(), 7.0);
  EXPECT_LT(r.throughput_mbps(), 9.5);
  EXPECT_EQ(r.domino_untriggerable, 0u);
}

TEST(DominoE2E, SingleUplinkSaturated) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(2);
  cfg.traffic.downlink_bps = 0;
  cfg.traffic.saturate_uplink = true;
  const auto r = run_domino(one_cell(), cfg);
  // Uplink demand flows exclusively through ROP polling — this exercises
  // the poll -> report -> schedule -> trigger chain end to end.
  EXPECT_GT(r.throughput_mbps(), 6.5);
}

TEST(DominoE2E, BidirectionalCell) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(2);
  cfg.traffic.saturate_downlink = true;
  cfg.traffic.saturate_uplink = true;
  const auto r = run_domino(one_cell(), cfg);
  EXPECT_GT(r.throughput_mbps(), 6.5);
  // Both directions served.
  ASSERT_EQ(r.links.size(), 2u);
  EXPECT_GT(r.links[0].throughput_bps, 1e6);
  EXPECT_GT(r.links[1].throughput_bps, 1e6);
}

TEST(DominoE2E, RateLimitedTrafficIsCarried) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(3);
  cfg.traffic.downlink_bps = 2e6;
  const auto r = run_domino(one_cell(), cfg);
  EXPECT_NEAR(r.throughput_mbps(), 2.0, 0.2);
}

TEST(DominoE2E, TwoIndependentCellsRunConcurrently) {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);
  b.add_client(a1);
  api::ExperimentConfig cfg;
  cfg.duration = sec(2);
  cfg.traffic.saturate_downlink = true;
  const auto r = run_domino(b.build(), cfg);
  // Spatial reuse: both cells at near-full slot rate simultaneously.
  EXPECT_GT(r.throughput_mbps(), 14.0);
  EXPECT_GT(r.jain_fairness, 0.95);
}

TEST(DominoE2E, HiddenPairScheduledCleanly) {
  // The hidden pair that cripples DCF must run at fair alternation under
  // DOMINO (the paper's core claim).
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);                    // 2
  const auto c1 = b.add_client(a1);    // 3
  b.interfere(a0, c1);
  const auto t = b.build();

  api::ExperimentConfig cfg;
  cfg.duration = sec(3);
  cfg.traffic.saturate_downlink = true;

  cfg.scheme = api::Scheme::kDcf;
  const auto dcf = api::run_experiment(t, cfg);
  const auto dom = run_domino(t, cfg);

  EXPECT_GT(dom.jain_fairness, 0.9);
  EXPECT_GT(dom.throughput_mbps(), dcf.throughput_mbps());
  // The victim link specifically must be rescued.
  EXPECT_GT(dom.links[1].throughput_bps, 3 * dcf.links[1].throughput_bps);
}

TEST(DominoE2E, Figure1BeatsDcfAndApproachesOmniscient) {
  const auto t = fig1_topology();
  api::ExperimentConfig cfg;
  cfg.duration = sec(4);
  cfg.traffic.custom = {api::FlowSpec{0, 3}, api::FlowSpec{4, 1},
                        api::FlowSpec{2, 5}};

  cfg.scheme = api::Scheme::kDcf;
  const auto dcf = api::run_experiment(t, cfg);
  cfg.scheme = api::Scheme::kOmniscient;
  const auto omni = api::run_experiment(t, cfg);
  const auto dom = run_domino(t, cfg);

  EXPECT_GT(dom.aggregate_throughput_bps,
            1.3 * dcf.aggregate_throughput_bps);
  EXPECT_GT(dom.aggregate_throughput_bps,
            0.6 * omni.aggregate_throughput_bps);
  EXPECT_GT(dom.jain_fairness, dcf.jain_fairness);
}

TEST(DominoE2E, MisalignmentConvergesWithinSlots) {
  // Figure 11's claim: initial wired-jitter misalignment (tens of us)
  // shrinks to a few microseconds within a handful of slots — measured
  // among transmitters that share a collision domain (offsets between
  // mutually deaf chains are physically harmless).
  topo::ManualTopologyBuilder b;
  const auto a1 = b.add_ap();
  const auto a2 = b.add_ap();
  const auto a3 = b.add_ap();
  const auto a4 = b.add_ap();
  b.add_client(a1);  // 4
  b.add_client(a2);  // 5
  b.add_client(a3);  // 6
  b.add_client(a4);  // 7
  b.interfere(a1, 5).interfere(a2, 4);
  b.interfere(a3, 7).interfere(a4, 6);
  b.sense(a1, a2).sense(a3, a4).sense(4, 5).sense(6, 7);
  b.sense(a2, a3);  // weak coupling between the halves
  const auto t = b.build();

  api::ExperimentConfig cfg;
  cfg.duration = msec(400);
  cfg.traffic.saturate_downlink = true;
  cfg.traffic.saturate_uplink = true;
  cfg.record_timeline = true;
  const auto r = run_domino(t, cfg);
  ASSERT_TRUE(r.timeline != nullptr);

  double late = 0.0;
  int n = 0;
  const auto first = r.timeline->first_slot();
  for (std::uint64_t s = first + 20; s < first + 60; ++s) {
    late += api::coupled_misalignment_us(*r.timeline, t, s);
    ++n;
  }
  late /= n;
  EXPECT_LT(late, 30.0) << "coupled chains must stay aligned";
}

TEST(DominoE2E, PollsHappenEveryBatchAndFeedUplink) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(1);
  cfg.traffic.downlink_bps = 0;
  cfg.traffic.saturate_uplink = true;
  cfg.record_timeline = true;
  const auto r = run_domino(one_cell(), cfg);
  ASSERT_TRUE(r.timeline != nullptr);
  EXPECT_GT(r.timeline->polls().size(), 50u)
      << "roughly one poll per batch expected";
}

TEST(DominoE2E, FakePacketsAppearOnIdleLinks) {
  api::ExperimentConfig cfg;
  cfg.duration = msec(500);
  cfg.traffic.saturate_downlink = true;
  cfg.record_timeline = true;
  // Two clients, only one direction loaded: uplink entries surface as
  // fake transmissions keeping the chain alive.
  const auto r = run_domino(one_cell(2), cfg);
  ASSERT_TRUE(r.timeline != nullptr);
  bool saw_fake = false;
  for (const auto& tx : r.timeline->transmissions()) {
    saw_fake = saw_fake || tx.fake;
  }
  EXPECT_TRUE(saw_fake);
}

TEST(DominoE2E, BatchSizeKnobChangesPollingCadence) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(1);
  cfg.traffic.saturate_downlink = true;
  cfg.record_timeline = true;

  cfg.domino.batch_slots = 5;
  const auto fast = run_domino(one_cell(), cfg);
  cfg.domino.batch_slots = 20;
  const auto slow = run_domino(one_cell(), cfg);
  ASSERT_TRUE(fast.timeline && slow.timeline);
  EXPECT_GT(fast.timeline->polls().size(),
            2 * slow.timeline->polls().size() / 2);
  EXPECT_GT(fast.timeline->polls().size(), slow.timeline->polls().size());
}

TEST(DominoE2E, SurvivesDegradedSignatureDetection) {
  // Failure injection: drop signature detection to 70% — the chain must
  // limp (self-starts, kicks) but keep delivering.
  api::ExperimentConfig cfg;
  cfg.duration = sec(2);
  cfg.traffic.saturate_downlink = true;
  for (int i = 1; i <= 4; ++i) cfg.sig_model.p_by_count[i] = 0.7;
  const auto r = run_domino(one_cell(), cfg);
  EXPECT_GT(r.throughput_mbps(), 4.0);
}

TEST(DominoE2E, SurvivesExtremeBackboneJitter) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(2);
  cfg.traffic.saturate_downlink = true;
  cfg.backbone.sigma_latency = usec(200);
  cfg.backbone.mean_latency = usec(600);
  const auto r = run_domino(one_cell(), cfg);
  EXPECT_GT(r.throughput_mbps(), 6.0);
}

TEST(DominoE2E, TcpFlowsDeliverReliably) {
  api::ExperimentConfig cfg;
  cfg.duration = sec(3);
  cfg.traffic.kind = api::TrafficKind::kTcp;
  cfg.traffic.downlink_bps = 10e6;
  const auto r = run_domino(one_cell(), cfg);
  // TCP over DOMINO: ACKs burn whole slots (§4.2.3), so goodput is roughly
  // half the slot rate.
  EXPECT_GT(r.throughput_mbps(), 2.5);
}

// ---- slot timing -------------------------------------------------------------

TEST(DominoTimingTest, RopDurationCoversAllPhases) {
  const domino::DominoTiming t;
  // Poll broadcast, one WiFi slot, the response symbol and the guard.
  EXPECT_GT(t.rop_duration(1),
            t.poll_air() + t.wifi.slot_time + t.rop_symbol);
  EXPECT_LT(t.rop_duration(1), usec(150));
  for (std::uint32_t k = 1; k < 11; ++k) {
    EXPECT_EQ(t.rop_duration(k + 1) - t.rop_duration(k), t.rop_symbol) << k;
  }
}

TEST(DominoTimingTest, DurationsMatchTimingRopDuration) {
  const domino::DominoTiming t;
  const domino::DominoDurations d(t);
  for (std::uint32_t k = 1; k <= 11; ++k) {
    EXPECT_EQ(d.rop_duration(k), t.rop_duration(k)) << k;
  }
}

// ---- a client's ROP answer -----------------------------------------------------

/// The queue reports a client with `queued` uplink packets puts on the air
/// when its AP polls it once.
std::vector<unsigned> poll_answer(std::size_t queued,
                                  const rop::RopParams& rop = {}) {
  const auto t = one_cell();  // AP 0, client 1
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  const domino::SignaturePlan sigs(t.num_nodes());
  const domino::DominoTiming timing;
  domino::DominoClientMac client(
      sim, medium, 1, 0, rop::PollSlot{1, 0, 0}, timing, sigs, {}, rop,
      Rng(1), [](const traffic::Packet&, topo::NodeId, TimeNs) {}, nullptr);
  for (std::size_t i = 0; i < queued; ++i) {
    traffic::Packet p;
    p.id = static_cast<traffic::PacketId>(i + 1);
    p.src = 1;
    p.dst = 0;
    EXPECT_TRUE(client.enqueue(p));
  }

  struct Recorder : phy::MediumClient {
    std::vector<unsigned> reports;
    void on_frame_rx(const phy::Frame& f, const phy::RxInfo& info) override {
      if (f.type == phy::FrameType::kRopResponse && info.decoded) {
        reports.push_back(f.queue_report);
      }
    }
  } ap;
  phy::Transceiver radio(medium, 0, &ap);
  phy::Frame poll;
  poll.type = phy::FrameType::kPoll;
  poll.dst = topo::kNoNode;
  poll.bytes = timing.poll_bytes + timing.wifi.mac_header_bytes;
  poll.duration = timing.poll_air();
  poll.slot_tag = 1;
  poll.poll_symbol = 1;
  radio.send(poll);
  sim.run();
  return ap.reports;
}

TEST(DominoClientPoll, QueueReportSaturatesAt63) {
  // 6 data bits: a backlog past 63 reports 63.
  EXPECT_EQ(poll_answer(100), std::vector<unsigned>{63});
}

TEST(DominoClientPoll, QueueReportBelowTheCapIsExact) {
  EXPECT_EQ(poll_answer(62), std::vector<unsigned>{62});
}

TEST(DominoClientPoll, QueueReportSaturatesAtTheConfiguredWidth) {
  rop::RopParams rop;
  rop.data_per_subchannel = 4;  // reports 0..15
  EXPECT_EQ(poll_answer(100, rop), std::vector<unsigned>{15});
  EXPECT_EQ(poll_answer(14, rop), std::vector<unsigned>{14});
}

TEST(DominoClientPoll, NarrowReportsPassTheRopAudit) {
  // A saturated uplink keeps the client's backlog past a 4-bit report's
  // ceiling of 15 at every poll; the auditor holds each report to
  // min(queue, max_queue_report()).
  api::ExperimentConfig cfg;
  cfg.duration = sec(1);
  cfg.traffic.downlink_bps = 0;
  cfg.traffic.saturate_uplink = true;
  cfg.rop.data_per_subchannel = 4;
  cfg.audit.mode = audit::AuditMode::kRecord;
  const auto r = run_domino(one_cell(), cfg);
  ASSERT_NE(r.audit, nullptr);
  EXPECT_GT(r.audit->checks_run, 0u);
  const auto violations = [&](const std::string& name) {
    const auto it = r.audit->violations_by_invariant.find(name);
    return it == r.audit->violations_by_invariant.end() ? 0u : it->second;
  };
  EXPECT_EQ(violations("rop.report-range"), 0u);
  EXPECT_EQ(violations("rop.report-mismatch"), 0u);
  EXPECT_GT(r.throughput_mbps(), 3.0);
}

TEST(DominoClientRetry, UnackedHeadIsDroppedPastTheRetryLimit) {
  // Client 1 holds two uplink packets and its AP triggers it every
  // millisecond but never ACKs. Each packet goes out retry_limit + 1 times
  // and is then dropped, as the AP and DCF drop theirs.
  const auto t = one_cell();  // AP 0, client 1
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  const domino::SignaturePlan sigs(t.num_nodes());
  const domino::DominoTiming timing;
  phy::SignatureDetectionModel certain;
  std::fill(std::begin(certain.p_by_count), std::end(certain.p_by_count),
            1.0);
  domino::DominoClientMac client(
      sim, medium, 1, 0, rop::PollSlot{1, 0, 0}, timing, sigs, certain, {},
      Rng(1), [](const traffic::Packet&, topo::NodeId, TimeNs) {}, nullptr);
  for (traffic::PacketId id = 1; id <= 2; ++id) {
    traffic::Packet p;
    p.id = id;
    p.src = 1;
    p.dst = 0;
    p.bytes = timing.payload_bytes;
    ASSERT_TRUE(client.enqueue(p));
  }

  struct Recorder : phy::MediumClient {
    std::map<traffic::PacketId, int> sends;
    void on_frame_rx(const phy::Frame& f, const phy::RxInfo&) override {
      if (f.type == phy::FrameType::kData) ++sends[f.packet_id];
    }
  } ap;
  phy::Transceiver ap_radio(medium, 0, &ap);
  constexpr int kTriggers = 24;
  for (int k = 0; k < kTriggers; ++k) {
    sim.post_at(k * msec(1), [&ap_radio, &timing, k] {
      phy::Frame f;
      f.type = phy::FrameType::kSignature;
      f.duration = timing.burst_air();
      f.slot_tag = static_cast<std::uint64_t>(k + 1);
      f.burst.emplace();
      f.burst->codes.push_back(1);
      f.burst->start_signature = true;
      ap_radio.send(f);
    });
  }
  sim.run();

  constexpr int kSends = mac::WifiParams::retry_limit + 1;
  EXPECT_EQ(ap.sends,
            (std::map<traffic::PacketId, int>{{1, kSends}, {2, kSends}}));
  EXPECT_EQ(client.ack_timeouts(), 2u * kSends);
  EXPECT_EQ(client.retry_drops(), 2u);
  EXPECT_EQ(client.queue_size(), 0u);
}

// ---- slot-path structures ------------------------------------------------------

TEST(DominoSlotPath, FrameDoesNotGrow) {
  // Every reception hands a Frame to each listener, and each DOMINO node
  // buffers the bursts it hears: the inline code list must not make the
  // frame larger than its std::vector layout (272 bytes on LP64).
  EXPECT_LE(sizeof(phy::Frame), 272u);
  // An AP's ACK event captures one instruction by value next to three
  // words; together they must fit EventFn's inline storage.
  EXPECT_LE(sizeof(phy::SignatureBurst), 32u);
}

TEST(DominoSlotPath, SpilledBurstReachesEveryListenerAndTheAuditor) {
  // AP 0 and clients 1..15. The AP's burst names clients 14..1, more codes
  // than SignatureCodes keeps in place; client 15 only records the frame.
  constexpr topo::NodeId kNamed = 14;
  const auto t = one_cell(kNamed + 1);
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  audit::SimAuditor auditor(sim, t, audit::AuditMode::kRecord, {});
  auditor.attach_medium(medium);

  phy::SignatureCodes codes;
  for (topo::NodeId c = kNamed; c >= 1; --c) codes.push_back(c);
  ASSERT_GT(codes.size(), phy::SignatureCodes::kInline);

  // Detection is certain at any combined count, so every named client
  // must trigger.
  phy::SignatureDetectionModel certain;
  std::fill(std::begin(certain.p_by_count), std::end(certain.p_by_count),
            1.0);
  certain.beyond_decay = 0.0;
  std::vector<topo::NodeId> triggered;
  domino::DominoTrace trace;
  trace.on_trigger = [&](std::uint64_t tag, topo::NodeId n, TimeNs at) {
    EXPECT_EQ(tag, 7u);
    triggered.push_back(n);
    auditor.on_trigger(tag, n, at);
  };
  const domino::SignaturePlan sigs(t.num_nodes());
  const domino::DominoTiming timing;
  std::vector<std::unique_ptr<domino::DominoClientMac>> clients;
  for (topo::NodeId c = 1; c <= kNamed; ++c) {
    clients.push_back(std::make_unique<domino::DominoClientMac>(
        sim, medium, c, 0,
        rop::PollSlot{c, static_cast<std::size_t>(c - 1), 0}, timing, sigs,
        certain, rop::RopParams{}, Rng(static_cast<std::uint64_t>(c)),
        [](const traffic::Packet&, topo::NodeId, TimeNs) {}, &trace));
  }
  struct Recorder : phy::MediumClient {
    std::vector<std::vector<std::size_t>> bursts;
    void on_frame_rx(const phy::Frame& f, const phy::RxInfo&) override {
      if (f.burst) {
        bursts.emplace_back(f.burst->codes.begin(), f.burst->codes.end());
      }
    }
  } recorder, ap;
  phy::Transceiver recorder_radio(medium, kNamed + 1, &recorder);
  phy::Transceiver ap_radio(medium, 0, &ap);

  phy::Frame f;
  f.type = phy::FrameType::kSignature;
  f.duration = timing.burst_air();
  f.slot_tag = 7;
  f.burst.emplace();
  f.burst->codes = codes;
  f.burst->start_signature = true;
  ap_radio.send(f);
  sim.run();

  ASSERT_EQ(recorder.bursts.size(), 1u);
  EXPECT_EQ(recorder.bursts[0],
            std::vector<std::size_t>(codes.begin(), codes.end()));
  std::sort(triggered.begin(), triggered.end());
  std::vector<topo::NodeId> named(kNamed);
  std::iota(named.begin(), named.end(), 1);
  EXPECT_EQ(triggered, named);
  // Each trigger passed the auditor's provenance check.
  const audit::AuditReport& rep = *auditor.report();
  EXPECT_TRUE(rep.violation_free()) << rep.summary();

  // The check is live: no burst ending then (it went out at t = 0) names
  // the unnamed client.
  auditor.on_trigger(7, kNamed + 1, f.duration);
  EXPECT_EQ(rep.violations_by_invariant.count("domino.trigger-provenance"),
            1u);
}

TEST(DominoSlotPath, RowArrivingBelowTheFrontierIsMissedOnce) {
  // AP 0 runs downlink rows 1-3 and 5-8 to client 1 (fake headers: its
  // queue is empty). Row 4 arrives while row 5 executes, below the
  // frontier: the next row's mark_executed writes it off, and pruning
  // it later must not count it again.
  const auto t = one_cell();
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  const domino::SignaturePlan sigs(t.num_nodes());
  domino::DominoApMac ap(
      sim, medium, 0, domino::DominoTiming{}, sigs, {}, {}, Rng(1),
      [](const traffic::Packet&, topo::NodeId, TimeNs) {},
      [](const domino::ApReport&) {}, nullptr);
  ap.register_client({1, -40.0});

  auto plan_of = [](std::vector<std::uint64_t> slots) {
    domino::ApSchedule plan;
    plan.ap = 0;
    plan.batch_first_slot = slots.front();
    for (std::uint64_t g : slots) {
      domino::ApSlotPlan& row = plan.slots.emplace_back();
      row.global_index = g;
      row.role = domino::ApSlotPlan::Role::kTxData;
      row.peer = 1;
    }
    return plan;
  };
  auto run_until_executed = [&](std::uint64_t rows) {
    while (ap.rows_executed() < rows && sim.now() < msec(50)) {
      sim.run_until(sim.now() + usec(5));
    }
    ASSERT_EQ(ap.rows_executed(), rows);
  };

  ap.receive_plan(plan_of({1, 2, 3, 5, 6, 7, 8}));
  run_until_executed(4);  // row 5: the frontier is 5
  ap.receive_plan(plan_of({4}));
  EXPECT_EQ(ap.missed_rows(), 0u);
  run_until_executed(5);  // row 6 passes row 4
  EXPECT_EQ(ap.missed_rows(), 1u);
  sim.run();
  EXPECT_EQ(ap.rows_executed(), 7u);
  EXPECT_EQ(ap.missed_rows(), 1u);
}

// ---- self-start timers -----------------------------------------------------

/// A lone AP 0 run by hand: client 1 is a bare radio that sends the
/// stimuli and never answers. Detection is certain.
struct LoneAp {
  using Role = domino::ApSlotPlan::Role;

  LoneAp() {
    certain.beyond_decay = 0.0;
    std::fill(std::begin(certain.p_by_count), std::end(certain.p_by_count),
              1.0);
    trace.on_data_tx = [this](std::uint64_t slot, topo::NodeId, topo::NodeId,
                              TimeNs at, bool, bool) { tx_start[slot] = at; };
    ap.register_client({1, -40.0});
  }

  /// One batch of (slot, role) rows toward client 1.
  static domino::ApSchedule plan_of(
      std::initializer_list<std::pair<std::uint64_t, Role>> rows) {
    domino::ApSchedule plan;
    plan.ap = 0;
    plan.batch_first_slot = rows.begin()->first;
    for (const auto& [g, role] : rows) {
      domino::ApSlotPlan& row = plan.slots.emplace_back();
      row.global_index = g;
      row.role = role;
      row.peer = 1;
    }
    return plan;
  }

  /// A start (or ROP, when `rop_symbols` > 0) burst from client 1 that
  /// closes slot `tag` at `end`.
  void burst_ending_at(TimeNs end, std::uint64_t tag, topo::NodeId code_of,
                       bool recovery, std::uint32_t rop_symbols = 0) {
    phy::Frame f;
    f.type = phy::FrameType::kSignature;
    f.duration = timing.burst_air();
    f.slot_tag = tag;
    f.burst.emplace();
    f.burst->codes.push_back(sigs.code_of(code_of));
    f.burst->start_signature = rop_symbols == 0;
    f.burst->rop_signature = rop_symbols != 0;
    f.burst->rop_symbols = std::max<std::uint32_t>(rop_symbols, 1);
    f.burst->recovery = recovery;
    sim.post_at(end - f.duration, [this, f] { client.send(f); });
  }

  struct Silent : phy::MediumClient {
    void on_frame_rx(const phy::Frame&, const phy::RxInfo&) override {}
  } silent;
  topo::Topology t = one_cell();
  sim::Simulator sim;
  phy::Medium medium{sim, t};
  domino::SignaturePlan sigs{t.num_nodes()};
  domino::DominoTiming timing;
  phy::SignatureDetectionModel certain;
  domino::DominoTrace trace;
  std::map<std::uint64_t, TimeNs> tx_start;  // slot -> data-phase start
  domino::DominoApMac ap{sim,      medium, 0,      timing,
                         sigs,     certain, {},    Rng(1),
                         [](const traffic::Packet&, topo::NodeId, TimeNs) {},
                         [](const domino::ApReport&) {},
                         &trace};
  phy::Transceiver client{medium, 1, &silent};
};

/// AP 0 holds downlink rows 1 and 2, with a long ROP slot after row 1. An
/// off-lattice trigger (a recovery burst, which moves no anchor) arms row
/// 1's TX for later than both the bootstrap self-start of row 1 and the
/// finish_slot that arms row 2. `perturb(s, row2)` runs after that stale
/// row-1 time and before row 2's armed TX at `row2`.
template <typename Perturb>
void self_start_past_an_armed_tx(LoneAp& s, Perturb perturb) {
  constexpr std::uint32_t kRop = 30;
  const TimeNs plan_at = usec(10);
  const TimeNs row1 = plan_at + s.timing.wifi.slot_time;  // bootstrap
  const TimeNs row2 = row1 + s.timing.slot_duration() +
                      s.timing.rop_duration(kRop);
  const TimeNs trigger_end = s.timing.burst_air();  // detected before row1
  const TimeNs stale = trigger_end + s.timing.wifi.slot_time +
                       s.timing.rop_duration(kRop);
  ASSERT_LT(row1 + s.timing.slot_duration(), stale);  // after finish_slot
  ASSERT_LT(stale, row2 - usec(200));

  s.burst_ending_at(trigger_end, 0, /*code_of=*/0, /*recovery=*/true, kRop);
  auto plan = LoneAp::plan_of({{1, LoneAp::Role::kTxData},
                               {2, LoneAp::Role::kTxData}});
  plan.slots[0].rop_after = true;
  plan.slots[0].rop_symbols = kRop;
  plan.rop_boundaries = {{1, kRop}};
  s.sim.post_at(plan_at, [&s, plan] { s.ap.receive_plan(plan); });
  s.sim.run_until(row2 - usec(200));
  ASSERT_EQ(s.tx_start[1], row1);
  ASSERT_EQ(s.ap.self_starts(), 1u);
  perturb(s, row2);
  s.sim.run();
}

TEST(DominoSelfStart, SelfStartKeepsTheNextArmedTxSnappable) {
  // A reference 20 us later than row 2's lattice (a burst without the AP's
  // code: it only re-anchors) re-times the armed TX.
  constexpr TimeNs kShift = usec(20);
  LoneAp s;
  TimeNs row2 = 0;
  self_start_past_an_armed_tx(s, [&](LoneAp& lone, TimeNs at) {
    row2 = at;
    lone.burst_ending_at(at + kShift - lone.timing.wifi.slot_time -
                             lone.timing.rop_duration(1),
                         1, /*code_of=*/1, /*recovery=*/false, 1);
  });
  EXPECT_EQ(s.tx_start[2], row2 + kShift);
}

TEST(DominoSelfStart, SelfStartKeepsTheNextArmedTxCancellable) {
  // A power cycle cancels the armed TX, so row 2 is self-started.
  LoneAp s;
  self_start_past_an_armed_tx(s, [](LoneAp& lone, TimeNs) {
    lone.ap.set_powered(false);
    lone.ap.set_powered(true);
  });
  EXPECT_EQ(s.ap.rows_executed(), 2u);
  EXPECT_EQ(s.ap.self_starts(), 2u);
}

TEST(DominoSelfStart, ReArmingForTheSameDueTimeKeepsTheTimersPlace) {
  // The self-start is due at the bootstrap slot start; a probe posted for
  // the same instant after it must run after it, even when the same plan
  // is shipped again (same due time) in between.
  LoneAp s;
  const auto plan = LoneAp::plan_of({{1, LoneAp::Role::kTxData}});
  s.ap.receive_plan(plan);
  std::uint64_t seen = 0;
  s.sim.post_at(s.timing.wifi.slot_time,
                [&] { seen = s.ap.self_starts(); });
  s.ap.receive_plan(plan);
  s.sim.run();
  EXPECT_EQ(seen, 1u);
}

TEST(DominoSelfStart, KickedUplinkRowGetsItsWholeResponseWindow) {
  // Client 1 heads a fresh schedule and stays silent: the bootstrap
  // self-start kicks it and writes the row off two slot durations later,
  // even when the next batch re-ships the row inside that window.
  LoneAp s;
  const auto plan = LoneAp::plan_of({{1, LoneAp::Role::kRxData}});
  s.ap.receive_plan(plan);
  const TimeNs kick = s.timing.wifi.slot_time;
  const TimeNs deadline = kick + 2 * s.timing.slot_duration();
  s.sim.post_at(kick + s.timing.slot_duration(),
                [&] { s.ap.receive_plan(plan); });
  s.sim.run_until(deadline - 1);
  EXPECT_EQ(s.ap.self_starts(), 1u);  // the kick
  EXPECT_EQ(s.ap.rows_executed(), 0u);
  s.sim.run();
  EXPECT_EQ(s.ap.rows_executed(), 1u);
  EXPECT_EQ(s.ap.missed_rows(), 0u);
}

}  // namespace
}  // namespace dmn
