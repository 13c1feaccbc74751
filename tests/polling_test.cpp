// Multi-symbol / adaptive ROP polling (rop/poll_planner.h + the DOMINO
// stack wiring): the dense-population battery that pins the >24-client/AP
// subsystem. Covers the legacy differential oracle (legacy polling is the
// static slot table capped at one symbol, so multi-symbol mode at
// populations that fit one symbol is byte-identical to the paper's
// single-symbol ROP), dense admission up to rop.client_capacity(), adaptive
// airtime savings, audit cleanliness, and thread-count byte-stability.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "audit/audit.h"
#include "rop/poll_planner.h"
#include "topo/dynamics.h"
#include "topo/topology.h"

namespace dmn::api {
namespace {

topo::Topology dense(std::size_t aps, std::size_t clients_per_ap,
                     std::uint64_t seed) {
  Rng rng(seed);
  return topo::make_floorplan_topology({}, aps, clients_per_ap, {}, rng);
}

ExperimentConfig polled_cfg(rop::PollMode mode,
                            TimeNs duration = msec(300)) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDomino;
  cfg.duration = duration;
  cfg.traffic.downlink_bps = 4e6;
  cfg.traffic.uplink_bps = 1e6;  // exercises queue reports through ROP
  cfg.rop.poll_mode = mode;
  cfg.audit.mode = audit::AuditMode::kRecord;
  return cfg;
}

TEST(PollMode, ToStringNames) {
  EXPECT_STREQ(rop::to_string(rop::PollMode::kLegacy), "legacy");
  EXPECT_STREQ(rop::to_string(rop::PollMode::kMultiSymbol), "multi_symbol");
  EXPECT_STREQ(rop::to_string(rop::PollMode::kAdaptive), "adaptive");
}

TEST(PollMode, ClientCapacityByMode) {
  rop::RopParams p;
  EXPECT_EQ(p.symbol_cap(), 1u);
  EXPECT_EQ(p.client_capacity(), 24u);  // legacy: one symbol
  p.poll_mode = rop::PollMode::kMultiSymbol;
  EXPECT_EQ(p.client_capacity(), 24u * 11u);
  p.max_poll_symbols = 3;
  EXPECT_EQ(p.client_capacity(), 72u);
  p.poll_mode = rop::PollMode::kAdaptive;
  EXPECT_EQ(p.client_capacity(), 72u);
}

// ---- differential oracle ----------------------------------------------------
// At populations that fit a single poll symbol (<= 24 clients/AP) the
// multi-symbol machinery must degenerate exactly: one-symbol rounds, the
// same RSS-sorted subchannel packing, identical response timing. The
// serialized result — every scheme, every counter — is byte-identical to
// legacy mode, whose bytes tests/sweep_test.cpp pins.

TEST(PollingOracle, MultiSymbolMatchesLegacyUnder24PerAp) {
  const auto t = dense(2, 12, 21);
  auto legacy = polled_cfg(rop::PollMode::kLegacy);
  auto multi = polled_cfg(rop::PollMode::kMultiSymbol);
  for (const Scheme s : {Scheme::kDcf, Scheme::kCentaur, Scheme::kDomino,
                         Scheme::kOmniscient}) {
    legacy.scheme = s;
    multi.scheme = s;
    const std::string a = serialize_result(run_experiment(t, legacy));
    const std::string b = serialize_result(run_experiment(t, multi));
    EXPECT_EQ(a, b) << "scheme " << to_string(s)
                    << " diverged between legacy and multi_symbol polling";
  }
}

TEST(PollingOracle, MultiSymbolMatchesLegacyAtExactlyFullSymbol) {
  const auto t = dense(1, 24, 33);
  const auto a = serialize_result(
      run_experiment(t, polled_cfg(rop::PollMode::kLegacy)));
  const auto b = serialize_result(
      run_experiment(t, polled_cfg(rop::PollMode::kMultiSymbol)));
  EXPECT_EQ(a, b);
}

TEST(PollingOracle, LegacyIsMultiSymbolCappedAtOneSymbol) {
  // kLegacy is the static slot table with a symbol cap of 1, so capping
  // multi-symbol polling at one symbol must give the same bytes — on a
  // static cell and under churn and roaming, where joins fill the table.
  auto legacy = polled_cfg(rop::PollMode::kLegacy);
  auto one = polled_cfg(rop::PollMode::kMultiSymbol);
  one.rop.max_poll_symbols = 1;
  const auto t = dense(2, 12, 21);
  EXPECT_EQ(serialize_result(run_experiment(t, legacy)),
            serialize_result(run_experiment(t, one)));

  for (auto* cfg : {&legacy, &one}) {
    cfg->duration = msec(400);
    cfg->dynamics.epoch = msec(25);
    cfg->dynamics.churn_rate_hz = 3.0;
    cfg->dynamics.churn_downtime = msec(50);
    cfg->dynamics.roam.enabled = true;
    cfg->dynamics.roam.min_dwell = msec(50);
  }
  const auto churny = dense(4, 2, 3);
  const auto a = run_experiment(churny, legacy);
  EXPECT_GT(a.lifecycle_joins, 0u);
  EXPECT_GT(a.lifecycle_roams, 0u);
  EXPECT_EQ(serialize_result(a), serialize_result(run_experiment(churny, one)));
}

// ---- dense admission --------------------------------------------------------

TEST(DensePolling, AcceptsTwoHundredClientsPerAp) {
  const auto t = dense(1, 200, 7);
  auto cfg = polled_cfg(rop::PollMode::kMultiSymbol, msec(60));
  const auto r = run_experiment(t, cfg);
  // 200 clients need ceil(200/24) = 9 <= 11 symbols; the run must complete,
  // poll, and stay violation-free.
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
  EXPECT_GT(r.domino_poll_rounds, 0u);
  EXPECT_GT(r.domino_poll_symbols, r.domino_poll_rounds)
      << "a 200-client round must span multiple poll symbols";
}

TEST(DensePolling, RejectsOverCapacityWithSymbolMessage) {
  const auto t = dense(1, 49, 11);
  auto cfg = polled_cfg(rop::PollMode::kMultiSymbol, msec(20));
  cfg.rop.max_poll_symbols = 2;  // capacity 48 < 49 clients
  try {
    run_experiment(t, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "clients but 2 poll symbols x 24 subchannels cap a BSS "
                  "at 48 clients"),
              std::string::npos)
        << e.what();
  }
}

TEST(DensePolling, LegacyStillRejectsOver24) {
  const auto t = dense(1, 25, 11);
  auto cfg = polled_cfg(rop::PollMode::kLegacy, msec(20));
  EXPECT_THROW(run_experiment(t, cfg), std::invalid_argument);
}

// ---- adaptive mode ----------------------------------------------------------

TEST(DensePolling, AdaptiveViolationFreeAndSavesPollAirtime) {
  const auto t = dense(1, 60, 17);
  auto base = polled_cfg(rop::PollMode::kMultiSymbol, msec(200));
  base.traffic.uplink_bps = 2e5;  // mostly-idle uplink population
  auto adaptive = base;
  adaptive.rop.poll_mode = rop::PollMode::kAdaptive;

  const auto rs = run_experiment(t, base);
  const auto ra = run_experiment(t, adaptive);
  ASSERT_NE(ra.audit, nullptr);
  EXPECT_TRUE(ra.audit->violation_free()) << ra.audit->summary();
  ASSERT_GT(rs.domino_poll_rounds, 0u);
  ASSERT_GT(ra.domino_poll_rounds, 0u);
  // Static multi-symbol polls all 60 clients (3 symbols) every round; the
  // adaptive planner shrinks mostly-idle rounds, so its per-round symbol
  // cost must be strictly lower.
  const double static_spr = static_cast<double>(rs.domino_poll_symbols) /
                            static_cast<double>(rs.domino_poll_rounds);
  const double adaptive_spr = static_cast<double>(ra.domino_poll_symbols) /
                              static_cast<double>(ra.domino_poll_rounds);
  EXPECT_LT(adaptive_spr, static_spr);
  // Deferred polls trade airtime for staleness: the adaptive mean must be
  // bounded by the configured max interval.
  EXPECT_GE(ra.domino_poll_staleness_rounds, 0.0);
  EXPECT_LT(ra.domino_poll_staleness_rounds,
            static_cast<double>(adaptive.rop.adaptive_max_interval));
}

// ---- determinism ------------------------------------------------------------

TEST(DensePolling, DenseRunsAreSeedDeterministic) {
  const auto t = dense(2, 40, 29);
  auto cfg = polled_cfg(rop::PollMode::kAdaptive, msec(120));
  const auto a = serialize_result(run_experiment(t, cfg));
  const auto b = serialize_result(run_experiment(t, cfg));
  EXPECT_EQ(a, b);
}

TEST(DensePolling, ByteStableAcrossSimThreads) {
  const auto t = dense(4, 30, 3);
  for (const rop::PollMode mode :
       {rop::PollMode::kMultiSymbol, rop::PollMode::kAdaptive}) {
    auto cfg = polled_cfg(mode, msec(120));
    cfg.sim_threads = 1;
    const auto serial = serialize_result(run_experiment(t, cfg));
    cfg.sim_threads = 4;
    const auto parallel = serialize_result(run_experiment(t, cfg));
    EXPECT_EQ(serial, parallel)
        << "mode " << rop::to_string(mode)
        << " diverged between 1 and 4 sim threads";
  }
}

}  // namespace
}  // namespace dmn::api
