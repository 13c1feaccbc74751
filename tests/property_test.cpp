// Property-style parameterized sweeps over random topologies and seeds:
// invariants that must hold regardless of the draw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "api/experiment.h"
#include "domino/converter.h"
#include "domino/rand_scheduler.h"
#include "domino/signature_plan.h"
#include "rop/poll_planner.h"
#include "rop/rop_protocol.h"
#include "topo/conflict_graph.h"
#include "topo/dynamics.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"

namespace dmn {
namespace {

// ---- Conflict-graph invariants over random trace draws ---------------------

class ConflictGraphProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConflictGraphProperty, SymmetricAndAckImpliesSuperset) {
  Rng rng(GetParam());
  const auto trace = topo::synthesize_trace({}, rng);
  const auto t = topo::Topology::build_tmn(trace.rss, 6, 2, {}, rng);
  const auto links = t.make_links(true, true);
  const auto g = topo::ConflictGraph::build(t, links);
  for (std::size_t i = 0; i < g.num_links(); ++i) {
    for (std::size_t j = 0; j < g.num_links(); ++j) {
      const auto a = static_cast<topo::LinkId>(i);
      const auto b = static_cast<topo::LinkId>(j);
      EXPECT_EQ(g.conflicts(a, b), g.conflicts(b, a));
      // Full rule is a superset of the data-only rule.
      if (g.data_conflicts(a, b)) {
        EXPECT_TRUE(g.conflicts(a, b));
      }
    }
  }
}

TEST_P(ConflictGraphProperty, RandSlotsAlwaysIndependent) {
  Rng rng(GetParam() * 7 + 1);
  const auto trace = topo::synthesize_trace({}, rng);
  const auto t = topo::Topology::build_tmn(trace.rss, 6, 2, {}, rng);
  const auto links = t.make_links(true, true);
  const auto g = topo::ConflictGraph::build(t, links);
  domino::RandScheduler rand(g);
  std::vector<std::size_t> demand(g.num_links());
  for (auto& d : demand) d = rng.uniform_int(0, 5);
  for (int round = 0; round < 20; ++round) {
    const auto slot = rand.schedule_slot(demand);
    EXPECT_TRUE(g.is_independent(slot));
    for (topo::LinkId l : slot) {
      EXPECT_GT(demand[static_cast<std::size_t>(l)], 0u);
    }
  }
}

// Reference oracle for the graph and the census: the dB-domain formulation
// that recomputes every SINR from the dBm map (one dbm_to_mw per term)
// instead of reading the topology's linear-power table. Thresholds are
// explicit so the test can prove the oracle is sharp enough to see an
// off-by-epsilon rule.
struct RefRules {
  double data_th;    // data rule: data decode threshold + pairwise margin
  double ctrl_th;    // ACK rule: control decode threshold + pairwise margin
  double census_th;  // census: plain data decode threshold
};

RefRules default_rules(const topo::Topology& t) {
  const auto& th = t.thresholds();
  return {th.sinr_data_db + 3.0, th.sinr_control_db + 3.0, th.sinr_data_db};
}

double ref_sinr_db(const topo::Topology& t, double sig_dbm, double intf_dbm) {
  const double sig_mw = dbm_to_mw(sig_dbm);
  const double noise_mw = dbm_to_mw(t.thresholds().noise_floor_dbm);
  const double intf_mw = dbm_to_mw(intf_dbm);
  return ratio_to_db(sig_mw / (noise_mw + intf_mw));
}

double ref_sinr_db(const topo::Topology& t, topo::NodeId sender,
                   topo::NodeId receiver, topo::NodeId interferer) {
  return ref_sinr_db(t, t.rss(sender, receiver), t.rss(interferer, receiver));
}

bool ref_share_node(const topo::Link& a, const topo::Link& b) {
  return a.sender == b.sender || a.sender == b.receiver ||
         a.receiver == b.sender || a.receiver == b.receiver;
}

struct RefVerdicts {
  std::vector<bool> full;  // row-major L x L, diagonal true
  std::vector<bool> data;
  topo::PairCensus census;

  bool operator==(const RefVerdicts& o) const {
    return full == o.full && data == o.data &&
           census.hidden == o.census.hidden &&
           census.exposed == o.census.exposed &&
           census.total == o.census.total;
  }
};

RefVerdicts reference_verdicts(const topo::Topology& t,
                               const std::vector<topo::Link>& links,
                               const RefRules& r) {
  const std::size_t n = links.size();
  RefVerdicts v{std::vector<bool>(n * n, true), std::vector<bool>(n * n, true),
                {}};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const topo::Link& a = links[i];
      const topo::Link& b = links[j];
      if (i == j || ref_share_node(a, b)) continue;
      const bool data =
          ref_sinr_db(t, a.sender, a.receiver, b.sender) < r.data_th ||
          ref_sinr_db(t, a.sender, a.receiver, b.receiver) < r.data_th ||
          ref_sinr_db(t, b.sender, b.receiver, a.sender) < r.data_th ||
          ref_sinr_db(t, b.sender, b.receiver, a.receiver) < r.data_th;
      const bool ack =
          ref_sinr_db(t, a.receiver, a.sender, b.receiver) < r.ctrl_th ||
          ref_sinr_db(t, b.receiver, b.sender, a.receiver) < r.ctrl_th;
      v.data[i * n + j] = data;
      v.full[i * n + j] = data || ack;
      if (j < i) continue;  // the census counts unordered pairs
      ++v.census.total;
      const bool sense = t.can_sense(a.sender, b.sender);
      const bool both_ok =
          ref_sinr_db(t, a.sender, a.receiver, b.sender) >= r.census_th &&
          ref_sinr_db(t, b.sender, b.receiver, a.sender) >= r.census_th;
      if (!sense && !both_ok) ++v.census.hidden;
      if (sense && both_ok) ++v.census.exposed;
    }
  }
  return v;
}

RefVerdicts actual_verdicts(const topo::Topology& t,
                            const std::vector<topo::Link>& links) {
  const auto g = topo::ConflictGraph::build(t, links);
  const std::size_t n = links.size();
  RefVerdicts v{std::vector<bool>(n * n), std::vector<bool>(n * n),
                topo::classify_pairs(t, links)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto a = static_cast<topo::LinkId>(i);
      const auto b = static_cast<topo::LinkId>(j);
      v.full[i * n + j] = g.conflicts(a, b);
      v.data[i * n + j] = g.data_conflicts(a, b);
    }
  }
  return v;
}

void expect_matches_reference(const topo::Topology& t, const char* draw) {
  const auto links = t.make_links(true, true);
  const RefVerdicts want = reference_verdicts(t, links, default_rules(t));
  const RefVerdicts got = actual_verdicts(t, links);
  const std::size_t n = links.size();
  std::size_t full_bad = 0;
  std::size_t data_bad = 0;
  for (std::size_t k = 0; k < n * n; ++k) {
    full_bad += got.full[k] != want.full[k] ? 1 : 0;
    data_bad += got.data[k] != want.data[k] ? 1 : 0;
  }
  EXPECT_EQ(full_bad, 0u) << draw << ": conflicts() differs from reference";
  EXPECT_EQ(data_bad, 0u) << draw << ": data_conflicts() differs";
  EXPECT_EQ(got.census.hidden, want.census.hidden) << draw;
  EXPECT_EQ(got.census.exposed, want.census.exposed) << draw;
  EXPECT_EQ(got.census.total, want.census.total) << draw;
}

/// The lifecycle write path: 40 random RSS updates.
void mutate_randomly(topo::Topology& t, Rng& rng) {
  const auto n = static_cast<std::int64_t>(t.num_nodes());
  for (int k = 0; k < 40; ++k) {
    const auto a = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
    if (a != b) t.update_rss(a, b, rng.uniform(-100.0, -45.0));
  }
}

/// Random RSS updates, then one interference value per (rule, side) moved
/// onto that rule's threshold to within rounding, so a rule whose threshold
/// is off by 1e-9 dB in either direction flips a verdict. A boundary case is
/// kept only if the reference sees every case placed so far, so the seeded
/// topology provably has that sharpness.
void mutate_with_boundary_cases(topo::Topology& t, Rng& rng) {
  mutate_randomly(t, rng);

  constexpr double kEps = 1e-9;
  const auto links = t.make_links(true, true);
  const RefRules base = default_rules(t);
  std::vector<RefRules> sharp;  // shifted rules the reference must tell apart
  auto all_sharp = [&] {
    const RefVerdicts now = reference_verdicts(t, links, base);
    return std::none_of(sharp.begin(), sharp.end(), [&](const RefRules& r) {
      return now == reference_verdicts(t, links, r);
    });
  };
  for (double RefRules::*rule :
       {&RefRules::data_th, &RefRules::ctrl_th, &RefRules::census_th}) {
    // The ACK rule probes a sender under the other link's receiver; the
    // data rule and the census probe a receiver under the other sender.
    const bool ack = rule == &RefRules::ctrl_th;
    const double th = base.*rule;
    for (const bool above : {true, false}) {
      sharp.push_back(base);
      sharp.back().*rule += above ? kEps : -kEps;
      bool placed = false;
      for (std::size_t i = 0; i < links.size() && !placed; ++i) {
        for (std::size_t j = 0; j < links.size() && !placed; ++j) {
          const topo::Link& a = links[i];
          const topo::Link& b = links[j];
          if (i == j || ref_share_node(a, b)) continue;
          const topo::NodeId s = ack ? a.receiver : a.sender;
          const topo::NodeId r = ack ? a.sender : a.receiver;
          const topo::NodeId x = ack ? b.receiver : b.sender;
          const double sig = t.rss(s, r);
          double lo = -200.0;  // SINR >= th side
          double hi = 0.0;     // SINR <  th side
          if (ref_sinr_db(t, sig, lo) < th || ref_sinr_db(t, sig, hi) >= th) {
            continue;
          }
          for (int it = 0; it < 200; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (mid == lo || mid == hi) break;
            (ref_sinr_db(t, sig, mid) >= th ? lo : hi) = mid;
          }
          const double old = t.rss(x, r);
          t.update_rss(x, r, above ? lo : hi);
          placed = all_sharp();
          if (!placed) t.update_rss(x, r, old);
        }
      }
      ASSERT_TRUE(placed) << "no boundary case for a threshold "
                          << (above ? "+" : "-") << "1e-9 dB";
    }
  }
}

/// Campus of radio-isolated buildings where the census prunes most pairs:
/// each building is a chain of APs that carrier-sense their neighbours
/// (exposed pairs), and each AP's first client also hears the AP two hops
/// down the chain, which it cannot sense (hidden pairs in both link orders).
topo::Topology manual_campus(std::size_t buildings, std::size_t aps,
                             std::size_t clients_per_ap,
                             const topo::PhyThresholds& th = {}) {
  topo::ManualTopologyBuilder b;
  for (std::size_t k = 0; k < buildings; ++k) {
    std::vector<topo::NodeId> chain, first_client;
    for (std::size_t a = 0; a < aps; ++a) {
      chain.push_back(b.add_ap());
      if (a > 0) b.sense(chain[a - 1], chain[a]);
      for (std::size_t c = 0; c < clients_per_ap; ++c) {
        const topo::NodeId client = b.add_client(chain[a]);
        if (c == 0) first_client.push_back(client);
      }
      if (a >= 2) b.interfere(first_client[a - 2], chain[a]);
    }
  }
  return b.build(th);
}

/// The census fallback for a link that fails even under a sensitivity-floor
/// interferer: links a and b get an interferer just below the sensitivity
/// (b's sender at a's receiver) and a's own signal is set to the largest
/// value at which that interferer still breaks it, so a's floor SINR is
/// within rounding below the data threshold. No candidate source links the
/// pair (the senders and a's sender at b's receiver are out of range), yet
/// the pair is hidden.
void plant_floor_fallback_pair(topo::Topology& t) {
  const auto links = t.make_links(true, false);
  const double th = t.thresholds().sinr_data_db;
  const double min_rss = t.thresholds().min_rss_dbm;
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = 0; j < links.size(); ++j) {
      const topo::Link& a = links[i];
      const topo::Link& b = links[j];
      if (i == j || ref_share_node(a, b)) continue;
      const double intf = std::nextafter(
          min_rss, -std::numeric_limits<double>::infinity());
      t.update_rss(a.sender, b.sender, topo::kRssFaint);
      t.update_rss(a.sender, b.receiver, topo::kRssFaint);
      t.update_rss(b.sender, a.receiver, intf);
      double lo = -120.0;  // SINR < th side
      double hi = 0.0;     // SINR >= th side
      for (int it = 0; it < 200; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi) break;
        (ref_sinr_db(t, mid, intf) < th ? lo : hi) = mid;
      }
      t.update_rss(a.sender, a.receiver, lo);
      ASSERT_LT(ref_sinr_db(t, a.sender, a.receiver, b.sender), th);
      ASSERT_FALSE(t.can_sense(a.sender, b.sender));
      ASSERT_NEAR(ref_sinr_db(t, lo, min_rss), th, 1e-9);
      return;
    }
  }
  FAIL() << "no node-disjoint link pair to plant the floor case on";
}

/// The census fallback for a carrier-sense threshold below the receiver
/// sensitivity: two downlinks whose senders sense each other without being
/// in hearing range, and whose receivers hear nothing of the other link,
/// form an exposed pair that no audibility list connects.
void plant_unheard_exposed_pair(topo::Topology& t) {
  const auto& th = t.thresholds();
  ASSERT_LT(th.cs_threshold_dbm, th.min_rss_dbm);
  const auto links = t.make_links(true, false);
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      const topo::Link& a = links[i];
      const topo::Link& b = links[j];
      if (a.sender == b.sender || ref_share_node(a, b)) continue;
      t.update_rss(a.sender, b.sender,
                   0.5 * (th.cs_threshold_dbm + th.min_rss_dbm));
      t.update_rss(a.sender, b.receiver, topo::kRssFaint);
      t.update_rss(b.sender, a.receiver, topo::kRssFaint);
      ASSERT_TRUE(t.can_sense(a.sender, b.sender));
      ASSERT_GE(ref_sinr_db(t, a.sender, a.receiver, b.sender),
                th.sinr_data_db);
      ASSERT_GE(ref_sinr_db(t, b.sender, b.receiver, a.sender),
                th.sinr_data_db);
      return;
    }
  }
  FAIL() << "no two cells to plant the exposed pair on";
}

TEST_P(ConflictGraphProperty, MatchesDbDomainReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 11);
  const auto trace = topo::synthesize_trace({}, rng);
  auto tmn = topo::Topology::build_tmn(trace.rss, 6, 2, {}, rng);
  auto rnd = topo::Topology::random_network(6, 3, 400.0, {}, {}, rng);
  auto floor = topo::make_floorplan_topology({}, 4, 3, {}, rng);
  for (auto& [name, t] : {std::pair<const char*, topo::Topology*>{"tmn", &tmn},
                          {"random", &rnd},
                          {"floorplan", &floor}}) {
    SCOPED_TRACE(name);
    expect_matches_reference(*t, name);
    mutate_with_boundary_cases(*t, rng);
    if (HasFatalFailure()) return;
    expect_matches_reference(*t, name);
  }

  // Shapes where the census prunes most pairs: isolated buildings, and the
  // Figure 14 T(20,3) square where most cells are out of each other's
  // range. Random writes move nodes into and out of hearing range.
  auto campus = manual_campus(3, 4, 2);
  auto wide = topo::Topology::random_network(20, 3, 800.0, {}, {}, rng);
  for (auto& [name, t] :
       {std::pair<const char*, topo::Topology*>{"campus", &campus},
        {"random-800m", &wide}}) {
    SCOPED_TRACE(name);
    expect_matches_reference(*t, name);
    mutate_randomly(*t, rng);
    expect_matches_reference(*t, name);
  }

  // Census fallbacks: a link failing under a floor interferer is paired
  // with every link, and a CS threshold below the sensitivity scans all
  // pairs.
  topo::PhyThresholds low_cs;
  low_cs.cs_threshold_dbm = low_cs.min_rss_dbm - 4.0;
  std::vector<std::pair<const char*, topo::Topology>> floor_cases, cs_cases;
  floor_cases.emplace_back("campus", manual_campus(3, 4, 2));
  floor_cases.emplace_back(
      "random-800m", topo::Topology::random_network(20, 3, 800.0, {}, {}, rng));
  cs_cases.emplace_back("campus-low-cs", manual_campus(3, 4, 2, low_cs));
  cs_cases.emplace_back(
      "random-800m-low-cs",
      topo::Topology::random_network(20, 3, 800.0, {}, low_cs, rng));
  for (auto& [name, t] : floor_cases) {
    plant_floor_fallback_pair(t);
    if (HasFatalFailure()) return;
    expect_matches_reference(t, name);
  }
  for (auto& [name, t] : cs_cases) {
    plant_unheard_exposed_pair(t);
    if (HasFatalFailure()) return;
    expect_matches_reference(t, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictGraphProperty,
                         ::testing::Range(1, 9));

// ---- Schedule-converter invariants over random topologies and batches ------

class ConverterProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConverterProperty, InvariantsHoldAcrossRandomBatches) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  const auto trace = topo::synthesize_trace({}, rng);
  const auto t = topo::Topology::build_tmn(trace.rss, 5, 2, {}, rng);
  const auto links = t.make_links(true, true);
  const auto g = topo::ConflictGraph::build(t, links);
  const domino::SignaturePlan sigs(t.num_nodes());
  domino::RandScheduler sched(g);
  const domino::ConverterParams params;
  domino::ScheduleConverter conv(t, g, sigs, params);

  std::vector<domino::SlotEntry> prev_last;
  std::uint64_t next_index = 0;
  for (std::uint64_t batch = 1; batch <= 6; ++batch) {
    std::vector<std::size_t> demand(g.num_links());
    for (auto& d : demand) d = static_cast<std::size_t>(rng.uniform_int(0, 3));
    const auto strict = sched.schedule_batch(demand, 5);
    if (strict.empty()) continue;
    std::vector<topo::NodeId> rop;
    for (topo::NodeId ap : t.aps()) {
      if (rng.uniform_int(0, 1) == 1) rop.push_back(ap);
    }
    const auto rs = conv.convert(strict, prev_last, rop, batch, next_index);
    ASSERT_EQ(rs.slots.size(), strict.size() + 1);

    // Batch connection: the overlap slot repeats the previous batch's last
    // slot verbatim, and global indices are contiguous from it.
    ASSERT_EQ(rs.slots[0].entries.size(), prev_last.size());
    for (std::size_t i = 0; i < prev_last.size(); ++i) {
      EXPECT_EQ(rs.slots[0].entries[i].link, prev_last[i].link);
      EXPECT_EQ(rs.slots[0].entries[i].fake, prev_last[i].fake);
    }
    for (std::size_t s = 0; s < rs.slots.size(); ++s) {
      EXPECT_EQ(rs.slots[s].global_index, next_index + s);
    }

    for (std::size_t s = 1; s < rs.slots.size(); ++s) {
      const auto& slot = rs.slots[s];
      const auto& strict_slot = strict[s - 1];

      // Real entries map back exactly to the strict slot (multiset).
      std::multiset<topo::LinkId> real, want(strict_slot.begin(),
                                             strict_slot.end());
      for (const auto& e : slot.entries) {
        if (!e.fake) real.insert(e.link);
      }
      EXPECT_EQ(real, want) << "batch " << batch << " slot " << s;

      // Fake entries only fill capacity the strict slot left uncovered,
      // and the whole slot stays independent (fake pairs under the
      // data-only rule, real pairs under the full rule).
      for (std::size_t i = 0; i < slot.entries.size(); ++i) {
        const auto& ei = slot.entries[i];
        if (ei.fake) {
          EXPECT_EQ(want.count(ei.link), 0u);
        }
        for (std::size_t j = i + 1; j < slot.entries.size(); ++j) {
          const auto& ej = slot.entries[j];
          EXPECT_NE(ei.link, ej.link);
          if (ei.fake || ej.fake) {
            EXPECT_FALSE(g.data_conflicts(ei.link, ej.link));
          } else {
            EXPECT_FALSE(g.conflicts(ei.link, ej.link));
          }
        }
      }
    }

    // Trigger budgets at every boundary: in-degree <= max_inbound per
    // target; out-degree <= max_outbound per via (self-continuations and
    // in-band instructed continuations cost no signature budget).
    for (const auto& slot : rs.slots) {
      std::map<topo::NodeId, int> inbound, outbound;
      for (const auto& tr : slot.triggers) {
        ++inbound[tr.target];
        if (!tr.continuation && tr.via != tr.target) ++outbound[tr.via];
      }
      for (const auto& [node, n] : inbound) {
        EXPECT_LE(n, params.max_inbound) << "target " << node;
      }
      for (const auto& [node, n] : outbound) {
        EXPECT_LE(n, params.max_outbound) << "via " << node;
      }
    }

    prev_last = rs.slots.back().entries;
    next_index = rs.slots.back().global_index;
  }
}

TEST_P(ConverterProperty, NoFakeAblationEmitsOnlyRealEntries) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto trace = topo::synthesize_trace({}, rng);
  const auto t = topo::Topology::build_tmn(trace.rss, 4, 2, {}, rng);
  const auto links = t.make_links(true, true);
  const auto g = topo::ConflictGraph::build(t, links);
  const domino::SignaturePlan sigs(t.num_nodes());
  domino::RandScheduler sched(g);
  domino::ConverterParams params;
  params.insert_fake_links = false;
  domino::ScheduleConverter conv(t, g, sigs, params);

  std::vector<std::size_t> demand(g.num_links());
  for (auto& d : demand) d = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const auto strict = sched.schedule_batch(demand, 5);
  ASSERT_FALSE(strict.empty());
  const auto rs = conv.convert(strict, {}, {}, 1, 0);
  for (std::size_t s = 1; s < rs.slots.size(); ++s) {
    std::multiset<topo::LinkId> real, want(strict[s - 1].begin(),
                                           strict[s - 1].end());
    for (const auto& e : rs.slots[s].entries) {
      EXPECT_FALSE(e.fake);
      real.insert(e.link);
    }
    EXPECT_EQ(real, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConverterProperty, ::testing::Range(1, 9));

// ---- End-to-end conservation properties ------------------------------------

struct SweepCase {
  api::Scheme scheme;
  std::uint64_t seed;
};

class ConservationProperty
    : public ::testing::TestWithParam<std::tuple<api::Scheme, int>> {};

TEST_P(ConservationProperty, DeliveredNeverExceedsOfferedAndDelayPositive) {
  const auto [scheme, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto trace = topo::synthesize_trace({}, rng);
  const auto t = topo::Topology::build_tmn(trace.rss, 4, 2, {}, rng);

  api::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.duration = msec(400);
  cfg.traffic.downlink_bps = 4e6;
  cfg.traffic.uplink_bps = 2e6;
  const auto r = api::run_experiment(t, cfg);

  for (const auto& l : r.links) {
    // Rate-limited sources: goodput can never exceed the offered rate by
    // more than one packet of rounding.
    const double offered = l.uplink ? 2e6 : 4e6;
    EXPECT_LE(l.throughput_bps, offered * 1.05) << to_string(scheme);
    if (l.delivered > 0) {
      // Delay is at least one frame airtime (384 us at 12 Mbps).
      EXPECT_GE(l.mean_delay_us, 380.0);
    }
  }
  EXPECT_GE(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.000001);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationProperty,
    ::testing::Combine(::testing::Values(api::Scheme::kDcf,
                                         api::Scheme::kCentaur,
                                         api::Scheme::kDomino,
                                         api::Scheme::kOmniscient),
                       ::testing::Values(11, 22, 33)));

// ---- DOMINO-vs-DCF dominance on hidden-heavy topologies --------------------

class DominanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(DominanceProperty, DominoAtLeastCompetitiveOnSaturatedTmn) {
  Rng rng(GetParam() * 131);
  const auto trace = topo::synthesize_trace({}, rng);
  const auto t = topo::Topology::build_tmn(trace.rss, 5, 2, {}, rng);

  api::ExperimentConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  cfg.duration = sec(1);
  cfg.traffic.saturate_downlink = true;

  cfg.scheme = api::Scheme::kDcf;
  const auto dcf = api::run_experiment(t, cfg);
  cfg.scheme = api::Scheme::kDomino;
  const auto dom = api::run_experiment(t, cfg);
  cfg.scheme = api::Scheme::kOmniscient;
  const auto omni = api::run_experiment(t, cfg);

  // DOMINO must stay within a modest factor of DCF at worst (scheduling
  // overhead), and never beat the genie.
  EXPECT_GT(dom.aggregate_throughput_bps,
            0.75 * dcf.aggregate_throughput_bps);
  EXPECT_LE(dom.aggregate_throughput_bps,
            1.02 * omni.aggregate_throughput_bps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceProperty, ::testing::Values(1, 2, 3));

// ---- Poll-planner invariants over random populations -----------------------
// The multi-symbol planner (rop/poll_planner.h) must uphold, for any
// population of 1..256 clients: per-symbol subchannel disjointness, the
// airtime budget, bounded starvation, and seeded determinism.

class PollPlannerProperty : public ::testing::TestWithParam<int> {};

std::vector<rop::PollClient> random_population(Rng& rng, std::size_t n) {
  std::vector<rop::PollClient> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rop::PollClient c;
    c.client = static_cast<topo::NodeId>(10 + i);
    c.rss_at_ap = rng.uniform(-85.0, -40.0);
    c.backlog = static_cast<std::size_t>(rng.uniform_int(0, 3));
    c.rounds_since_polled = static_cast<std::size_t>(rng.uniform_int(0, 5));
    out.push_back(c);
  }
  return out;
}

void expect_well_formed(const rop::PollRound& round, const rop::RopParams& p) {
  EXPECT_GE(round.symbols, 1u);
  EXPECT_LE(round.symbols, p.max_poll_symbols);
  std::set<std::pair<std::size_t, std::size_t>> used;  // (symbol, subchannel)
  for (const rop::PollSlot& s : round.slots) {
    EXPECT_LT(s.symbol, round.symbols);
    EXPECT_LT(s.subchannel, p.num_subchannels);
    EXPECT_TRUE(used.insert({s.symbol, s.subchannel}).second)
        << "symbol " << s.symbol << " subchannel " << s.subchannel
        << " assigned twice";
  }
}

TEST_P(PollPlannerProperty, StaticRoundsDisjointCompleteAndBudgeted) {
  Rng rng(GetParam() * 131 + 7);
  rop::RopParams p;
  p.poll_mode = rop::PollMode::kMultiSymbol;
  const rop::PollPlanner planner(p);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 256));
    const auto clients = random_population(rng, n);
    const rop::PollRound round = planner.plan_static(clients);
    expect_well_formed(round, p);
    // Static rounds poll every client, in exactly ceil(n / 24) symbols
    // (capped at the budget).
    const std::size_t need =
        (n + p.num_subchannels - 1) / p.num_subchannels;
    EXPECT_EQ(round.symbols, std::min(need, p.max_poll_symbols));
    std::set<topo::NodeId> polled;
    for (const rop::PollSlot& s : round.slots) polled.insert(s.client);
    EXPECT_EQ(polled.size(), n);
  }
}

TEST_P(PollPlannerProperty, StaticPlanMatchesSingleSymbolAllocatorUpTo24) {
  // Legacy polling seeds its slot table from plan_static capped at one
  // symbol; it must reproduce the single-symbol allocator on the AP's
  // clients in id order, RSS ties included, for any population that fits
  // one symbol, and so must multi-symbol polling.
  Rng rng(GetParam() * 53 + 11);
  for (const rop::PollMode mode :
       {rop::PollMode::kLegacy, rop::PollMode::kMultiSymbol}) {
    rop::RopParams p;
    p.poll_mode = mode;
    const rop::PollPlanner planner(p);
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 24));
      auto clients = random_population(rng, n);
      // Odd trials round RSS to 5 dB steps, so ties are common.
      if (trial % 2 == 1) {
        for (auto& c : clients) {
          c.rss_at_ap = 5.0 * std::round(c.rss_at_ap / 5.0);
        }
      }
      std::vector<topo::NodeId> ids;
      std::vector<double> rss;
      for (const rop::PollClient& c : clients) {
        ids.push_back(c.client);
        rss.push_back(c.rss_at_ap);
      }
      const auto want = rop::SubchannelAllocator(p).assign(ids, rss);
      std::reverse(clients.begin(), clients.end());  // order must not matter
      const rop::PollRound round = planner.plan_static(clients);
      EXPECT_EQ(round.symbols, 1u);
      ASSERT_EQ(round.slots.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(round.slots[i].client, want[i].client) << "slot " << i;
        EXPECT_EQ(round.slots[i].subchannel, want[i].subchannel)
            << "client " << want[i].client;
        EXPECT_EQ(round.slots[i].symbol, 0u);
      }
    }
  }
}

TEST_P(PollPlannerProperty, AdaptiveRoundsDisjointAndCoverMustPolls) {
  Rng rng(GetParam() * 977 + 13);
  rop::RopParams p;
  p.poll_mode = rop::PollMode::kAdaptive;
  const rop::PollPlanner planner(p);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 256));
    const auto clients = random_population(rng, n);
    const rop::PollRound round =
        planner.plan_adaptive(clients, static_cast<std::uint64_t>(trial));
    expect_well_formed(round, p);
    // Every backlogged or aged-out client must be in the roster.
    std::set<topo::NodeId> polled;
    for (const rop::PollSlot& s : round.slots) polled.insert(s.client);
    for (const rop::PollClient& c : clients) {
      if (c.backlog > 0 ||
          c.rounds_since_polled + 1 >= p.adaptive_max_interval) {
        EXPECT_TRUE(polled.contains(c.client))
            << "must-poll client " << c.client << " missing (backlog "
            << c.backlog << ", age " << c.rounds_since_polled << ")";
      }
    }
  }
}

TEST_P(PollPlannerProperty, AdaptiveNeverStarvesWithinBoundedRounds) {
  // Simulate the controller's age bookkeeping over many rounds: with all
  // clients idle, rotation plus the max-interval guarantee must poll every
  // client at least once per adaptive_max_interval rounds.
  Rng rng(GetParam() * 389 + 5);
  rop::RopParams p;
  p.poll_mode = rop::PollMode::kAdaptive;
  const rop::PollPlanner planner(p);
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(25, 256));
  auto clients = random_population(rng, n);
  for (auto& c : clients) {
    c.backlog = 0;  // worst case for rotation: nobody forces a poll
    c.rounds_since_polled = 0;
  }
  std::map<topo::NodeId, std::size_t> since_polled;
  for (std::uint64_t round_idx = 0; round_idx < 32; ++round_idx) {
    const rop::PollRound round = planner.plan_adaptive(clients, round_idx);
    expect_well_formed(round, p);
    std::set<topo::NodeId> polled;
    for (const rop::PollSlot& s : round.slots) polled.insert(s.client);
    for (auto& c : clients) {
      if (polled.contains(c.client)) {
        c.rounds_since_polled = 0;
        since_polled[c.client] = 0;
      } else {
        ++c.rounds_since_polled;
        EXPECT_LE(++since_polled[c.client], p.adaptive_max_interval)
            << "client " << c.client << " starved at round " << round_idx;
      }
    }
  }
}

TEST_P(PollPlannerProperty, PlansAreDeterministicAndSeeded) {
  Rng rng(GetParam() * 241 + 3);
  rop::RopParams p;
  p.poll_mode = rop::PollMode::kMultiSymbol;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(30, 256));
  const auto clients = random_population(rng, n);

  const rop::PollPlanner planner(p);
  const rop::PollRound a = planner.plan(clients, 4);
  const rop::PollRound b = planner.plan(clients, 4);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  EXPECT_EQ(a.symbols, b.symbols);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].client, b.slots[i].client);
    EXPECT_EQ(a.slots[i].subchannel, b.slots[i].subchannel);
    EXPECT_EQ(a.slots[i].symbol, b.slots[i].symbol);
  }

  // A different assign_seed permutes the symbol partition (the population
  // spans several symbols, so some client must move).
  rop::RopParams p2 = p;
  p2.assign_seed = p.assign_seed + 1;
  const rop::PollRound c = rop::PollPlanner(p2).plan(clients, 4);
  std::map<topo::NodeId, std::size_t> sym_a, sym_c;
  for (const rop::PollSlot& s : a.slots) sym_a[s.client] = s.symbol;
  for (const rop::PollSlot& s : c.slots) sym_c[s.client] = s.symbol;
  EXPECT_NE(sym_a, sym_c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PollPlannerProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace dmn
