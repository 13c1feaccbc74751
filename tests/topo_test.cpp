// Unit tests: topology, propagation, the synthetic 40-node trace, T(m,n)
// construction, conflict graphs and the hidden/exposed census.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "topo/conflict_graph.h"
#include "topo/node.h"
#include "topo/propagation.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"
#include "util/units.h"

namespace dmn::topo {
namespace {

TEST(Node, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Propagation, LogDistanceMonotone) {
  LogDistanceModel m;
  const double near = m.rss_dbm({0, 0}, {0, 10});
  const double far = m.rss_dbm({0, 0}, {0, 100});
  EXPECT_GT(near, far);
  // 10x distance at exponent 3 costs 30 dB.
  EXPECT_NEAR(near - far, 30.0, 1e-9);
}

TEST(Propagation, ClampsBelowOneMetre) {
  LogDistanceModel m;
  EXPECT_DOUBLE_EQ(m.rss_dbm({0, 0}, {0, 0.1}), m.rss_dbm({0, 0}, {0, 1.0}));
}

TEST(RssMapTest, SymmetricStorage) {
  constexpr double kNoPath = -std::numeric_limits<double>::infinity();
  RssMap map(4);
  map.set_rss(1, 3, -62.5);
  map.set_rss(3, 0, -71.0);  // written high id first
  map.set_rss(2, 3, -50.0);
  EXPECT_DOUBLE_EQ(map.rss(1, 3), -62.5);
  EXPECT_DOUBLE_EQ(map.rss(3, 1), -62.5);
  EXPECT_DOUBLE_EQ(map.rss(0, 3), -71.0);
  EXPECT_DOUBLE_EQ(map.rss(3, 0), -71.0);
  // A write in either order replaces the one entry the pair has.
  map.set_rss(3, 2, -52.0);
  EXPECT_DOUBLE_EQ(map.rss(2, 3), -52.0);
  EXPECT_DOUBLE_EQ(map.rss(3, 2), -52.0);
  for (NodeId a = 0; a < 4; ++a) {
    EXPECT_EQ(map.rss(a, a), kNoPath) << "diagonal " << a;
  }
  // Unwritten pairs still read no path, in both orders.
  for (const auto& [a, b] : {std::pair{0, 1}, std::pair{0, 2},
                             std::pair{1, 2}}) {
    EXPECT_EQ(map.rss(a, b), kNoPath) << a << "," << b;
    EXPECT_EQ(map.rss(b, a), kNoPath) << b << "," << a;
  }
  // The rows the triangle walk reads: rss(a, b) for b > a, contiguous.
  const auto row0 = map.upper_row(0);
  ASSERT_EQ(row0.size(), 3u);
  EXPECT_EQ(row0[0], kNoPath);
  EXPECT_EQ(row0[2], -71.0);
  const auto row2 = map.upper_row(2);
  ASSERT_EQ(row2.size(), 1u);
  EXPECT_EQ(row2[0], -52.0);
  EXPECT_TRUE(map.upper_row(3).empty());
  // Out-of-range ids throw in every position and both orders; the diagonal
  // is not stored, so it cannot be written.
  EXPECT_THROW(map.rss(4, 0), std::out_of_range);
  EXPECT_THROW(map.rss(0, 4), std::out_of_range);
  EXPECT_THROW(map.rss(-1, 2), std::out_of_range);
  EXPECT_THROW(map.rss(4, 4), std::out_of_range);
  EXPECT_THROW(map.set_rss(4, 1, -60.0), std::out_of_range);
  EXPECT_THROW(map.set_rss(1, -1, -60.0), std::out_of_range);
  EXPECT_THROW(map.set_rss(2, 2, -60.0), std::invalid_argument);
  EXPECT_EQ(map.rss(2, 2), kNoPath);
}

TEST(RssMapTest, OutOfRangeThrows) {
  RssMap map(2);
  EXPECT_THROW(map.rss(0, 5), std::out_of_range);
  EXPECT_THROW(map.set_rss(-1, 0, 0.0), std::out_of_range);
}

TEST(TraceSynth, FortyNodesTwoBuildings) {
  Rng rng(1);
  const auto trace = synthesize_trace({}, rng);
  EXPECT_EQ(trace.positions.size(), 40u);
  EXPECT_EQ(trace.rss.size(), 40u);
  // Half the nodes sit in each building (disjoint x ranges).
  int left = 0;
  for (const auto& p : trace.positions) {
    if (p.x <= 60.0) ++left;
  }
  EXPECT_EQ(left, 20);
}

TEST(TraceSynth, CrossBuildingWeakerOnAverage) {
  Rng rng(2);
  const auto trace = synthesize_trace({}, rng);
  double intra = 0.0, inter = 0.0;
  int ni = 0, nx = 0;
  for (int i = 0; i < 40; ++i) {
    for (int j = i + 1; j < 40; ++j) {
      const bool cross = (i < 20) != (j < 20);
      if (cross) {
        inter += trace.rss.rss(i, j);
        ++nx;
      } else {
        intra += trace.rss.rss(i, j);
        ++ni;
      }
    }
  }
  EXPECT_LT(inter / nx, intra / ni - 10.0);
}

TEST(TraceSynth, RssMismatchStatisticNearPaper) {
  // The paper: 0.54% of pairs exceed 38 dB difference. Our synthetic trace
  // must stay in the same regime (well under a few percent).
  Rng rng(3);
  const auto trace = synthesize_trace({}, rng);
  const double frac = rss_mismatch_fraction(trace.rss, 38.0, -80.0);
  EXPECT_LT(frac, 0.05);
}

TEST(TmnBuilder, ShapeAndAssociations) {
  Rng rng(4);
  const auto trace = synthesize_trace({}, rng);
  const Topology t = Topology::build_tmn(trace.rss, 10, 2, {}, rng);
  EXPECT_EQ(t.num_nodes(), 30u);
  EXPECT_EQ(t.aps().size(), 10u);
  for (NodeId ap : t.aps()) {
    const auto cs = t.clients_of(ap);
    EXPECT_EQ(cs.size(), 2u);
    for (NodeId c : cs) {
      EXPECT_TRUE(t.can_communicate(ap, c))
          << "client must be in communication range of its AP";
    }
  }
}

TEST(TmnBuilder, ThrowsWhenTraceTooSmall) {
  Rng rng(5);
  TraceParams small;
  small.num_nodes = 6;
  const auto trace = synthesize_trace(small, rng);
  EXPECT_THROW(Topology::build_tmn(trace.rss, 10, 2, {}, rng),
               std::runtime_error);
}

TEST(TmnBuilder, SelectionIsPinned) {
  // Candidate APs are tried in descending communication degree, ties by
  // trace id. Pin which trace nodes T(10, 2) picks on the seed-42 trace
  // (AP ids, associations, and the dBm sum over the kept pairs) so a
  // change in how degrees are counted cannot move the pick silently.
  Rng rng(42);
  const auto trace = synthesize_trace({}, rng);
  const Topology t = Topology::build_tmn(trace.rss, 10, 2, {}, rng);
  EXPECT_EQ(t.aps(),
            (std::vector<NodeId>{3, 9, 10, 11, 12, 13, 19, 20, 25, 27}));
  std::vector<NodeId> assoc;
  for (NodeId c : t.all_clients()) assoc.push_back(t.node(c).ap);
  EXPECT_EQ(assoc, (std::vector<NodeId>{10, 9, 10, 3, 11, 3, 9, 11, 19, 27,
                                        20, 13, 25, 20, 12, 19, 25, 13, 12,
                                        27}));
  double sum = 0.0;
  for (NodeId a = 0; a < static_cast<NodeId>(t.num_nodes()); ++a) {
    for (NodeId b = a + 1; b < static_cast<NodeId>(t.num_nodes()); ++b) {
      if (std::isfinite(t.rss(a, b))) sum += t.rss(a, b);
    }
  }
  EXPECT_DOUBLE_EQ(sum, -44300.358217440058);
}

TEST(RandomNetwork, ClientsInRangeOfTheirAp) {
  Rng rng(6);
  LogDistanceModel model;
  const Topology t = Topology::random_network(20, 3, 800.0, model, {}, rng);
  EXPECT_EQ(t.num_nodes(), 80u);
  for (NodeId c : t.all_clients()) {
    EXPECT_TRUE(t.can_communicate(c, t.node(c).ap));
  }
}

TEST(ManualBuilder, TiersBehave) {
  ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  const auto c = b.add_client(ap);
  const auto ap2 = b.add_ap();
  b.sense(ap, ap2);
  const Topology t = b.build();
  EXPECT_TRUE(t.can_communicate(ap, c));
  EXPECT_TRUE(t.can_sense(ap, ap2));
  EXPECT_FALSE(t.can_communicate(ap, ap2));  // sense tier < assoc threshold
  EXPECT_FALSE(t.can_sense(c, ap2));         // default faint
}

// ---- the one-pass triangle build against the plain scan ---------------------
// The Topology constructor visits each unordered pair once and leaves a
// no-path pair's zero in place. The reference below is the plain scan it
// replaced: every ordered pair (a, b) converted with its own dbm_to_mw,
// audible when a != b and the pair reaches the receiver sensitivity, and
// coupling components by union-find over nonzero power and associations.

struct ScanTables {
  std::vector<double> mw;  // n x n, row-major
  std::vector<std::vector<NodeId>> audible;
  std::vector<std::size_t> root;  // smallest member of the node's component
};

std::size_t scan_find(const std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) x = parent[x];
  return x;
}

/// `seed_roots` carries earlier couplings forward: components merge and
/// never split, so after update_rss / set_association they are the union
/// of every coupling the topology has had. Empty = a freshly built one.
ScanTables scan_tables(const Topology& t,
                       std::vector<std::size_t> seed_roots = {}) {
  const std::size_t n = t.num_nodes();
  ScanTables s;
  s.mw.resize(n * n);
  s.audible.resize(n);
  std::vector<std::size_t> parent = std::move(seed_roots);
  if (parent.empty()) {
    parent.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  auto unite = [&](std::size_t a, std::size_t b) {
    a = scan_find(parent, a);
    b = scan_find(parent, b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double dbm = t.rss(static_cast<NodeId>(a), static_cast<NodeId>(b));
      const double mw = dbm_to_mw(dbm);
      s.mw[a * n + b] = mw;
      if (mw > 0.0) unite(a, b);
      if (a != b && dbm >= t.thresholds().min_rss_dbm) {
        s.audible[a].push_back(static_cast<NodeId>(b));
      }
    }
  }
  for (const Node& node : t.nodes()) {
    if (!node.is_ap && node.ap != kNoNode) {
      unite(static_cast<std::size_t>(node.id),
            static_cast<std::size_t>(node.ap));
    }
  }
  s.root.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.root[i] = scan_find(parent, i);
  return s;
}

void expect_tables_match(const Topology& t, const ScanTables& s) {
  const std::size_t n = t.num_nodes();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    t.rss_mw(static_cast<NodeId>(a), static_cast<NodeId>(b))),
                std::bit_cast<std::uint64_t>(s.mw[a * n + b]))
          << "rss_mw(" << a << ", " << b << ")";
    }
    const auto heard = t.audible_from(static_cast<NodeId>(a));
    EXPECT_EQ(std::vector<NodeId>(heard.begin(), heard.end()), s.audible[a])
        << "audible_from(" << a << ")";
  }
  // Component ids follow each component's smallest member.
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::vector<std::uint32_t> id(n, kUnset);
  std::vector<std::vector<NodeId>> members;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t& c = id[s.root[i]];
    if (c == kUnset) {
      c = static_cast<std::uint32_t>(members.size());
      members.emplace_back();
    }
    members[c].push_back(static_cast<NodeId>(i));
    EXPECT_EQ(t.component_of(static_cast<NodeId>(i)), c) << "node " << i;
  }
  ASSERT_EQ(t.component_count(), members.size());
  for (std::uint32_t c = 0; c < members.size(); ++c) {
    const auto got = t.component_members(c);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), members[c])
        << "component " << c;
  }
}

/// The e2ebench campus shape, small: buildings with no path between them,
/// each a chain of APs within carrier-sense range of their neighbours.
Topology small_campus(std::size_t buildings, std::size_t aps_per_building,
                      std::size_t clients_per_ap) {
  ManualTopologyBuilder b;
  for (std::size_t k = 0; k < buildings; ++k) {
    NodeId prev = kNoNode;
    for (std::size_t a = 0; a < aps_per_building; ++a) {
      const NodeId ap = b.add_ap();
      if (prev != kNoNode) b.sense(prev, ap);
      NodeId first = kNoNode;
      for (std::size_t c = 0; c < clients_per_ap; ++c) {
        const NodeId client = b.add_client(ap);
        if (first == kNoNode) first = client;
      }
      // A hidden-terminal edge from the previous AP to this AP's first
      // client, so blocks carry both tiers.
      if (prev != kNoNode && first != kNoNode) b.interfere(prev, first);
      prev = ap;
    }
  }
  return b.build();
}

TEST(TopologyTables, RandomNetworkMatchesThePlainScan) {
  LogDistanceModel model;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const Topology t = Topology::random_network(20, 3, 800.0, model, {}, rng);
    expect_tables_match(t, scan_tables(t));
  }
}

TEST(TopologyTables, ShadowedPositionsMatchThePlainScan) {
  Rng rng(11);
  std::vector<Position> pos;
  std::vector<Node> nodes;
  for (NodeId i = 0; i < 40; ++i) {
    pos.push_back(Position{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
    nodes.push_back(Node{i, pos.back(), i % 8 == 0, kNoNode});
  }
  RssMap rss = RssMap::from_positions(pos, LogDistanceModel{}, 8.0, rng);
  const Topology t(std::move(nodes), std::move(rss), {});
  expect_tables_match(t, scan_tables(t));
}

TEST(TopologyTables, TmnOnTheSyntheticTraceMatchesThePlainScan) {
  Rng rng(42);
  const auto trace = synthesize_trace({}, rng);
  const Topology t = Topology::build_tmn(trace.rss, 10, 2, {}, rng);
  expect_tables_match(t, scan_tables(t));
}

TEST(TopologyTables, CampusBlocksMatchThePlainScan) {
  const Topology t = small_campus(3, 4, 3);
  const ScanTables s = scan_tables(t);
  expect_tables_match(t, s);
  // No path between buildings: one component each.
  EXPECT_EQ(t.component_count(), 3u);
}

TEST(TopologyTables, UpdatesKeepMatchingThePlainScan) {
  Topology t = small_campus(3, 2, 2);  // APs 0, 3 | 6, 9 | 12, 15
  ScanTables s = scan_tables(t);
  expect_tables_match(t, s);
  ASSERT_EQ(t.component_count(), 3u);

  t.update_rss(3, 6, -70.0);  // joins buildings 0 and 1
  s = scan_tables(t, s.root);
  expect_tables_match(t, s);
  EXPECT_EQ(t.component_count(), 2u);

  t.update_rss(0, 3, kRssFaint);  // the chain's sense edge: no path now
  t.update_rss(3, 6, kRssFaint);  // and the bridge; components never split
  s = scan_tables(t, s.root);
  expect_tables_match(t, s);
  EXPECT_EQ(t.rss_mw(3, 6), 0.0);
  EXPECT_EQ(t.component_count(), 2u);

  t.set_association(13, 0);  // a client of building 2 roams to AP 0
  s = scan_tables(t, s.root);
  expect_tables_match(t, s);
  EXPECT_EQ(t.component_count(), 1u);

  t.update_rss(1, 16, -84.0);  // audible below carrier sense
  t.update_rss(16, 1, -90.0);  // heard by nobody, still coupled
  s = scan_tables(t, s.root);
  expect_tables_match(t, s);
}

TEST(TopologyTables, UnderflowingPowerNeitherCouplesNorIsHeard) {
  // -4000 dBm is finite and valid, but 10^-400 mW underflows to zero.
  ManualTopologyBuilder b;
  const NodeId ap0 = b.add_ap();
  const NodeId ap1 = b.add_ap();
  b.set_rss(ap0, ap1, -4000.0);
  Topology t = b.build();
  expect_tables_match(t, scan_tables(t));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.rss_mw(ap0, ap1)), 0u);
  EXPECT_TRUE(t.audible_from(ap0).empty());
  EXPECT_NE(t.component_of(ap0), t.component_of(ap1));
  // The same through update_rss.
  t.update_rss(ap0, ap1, -4000.0);
  expect_tables_match(t, scan_tables(t));
  EXPECT_EQ(t.component_count(), 2u);
}

// ---- Conflict graph -------------------------------------------------------

Topology hidden_pair_topology() {
  // Two AP->client links; AP0's signal destroys C1's reception and vice
  // versa is faint: a classic hidden pair.
  ManualTopologyBuilder b;
  const auto ap0 = b.add_ap();
  const auto ap1 = b.add_ap();
  const auto c0 = b.add_client(ap0);
  const auto c1 = b.add_client(ap1);
  (void)c0;
  b.interfere(ap0, c1);
  return b.build();
}

TEST(ConflictGraph, SharedNodeAlwaysConflicts) {
  ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  const auto c = b.add_client(ap);
  const Topology t = b.build();
  const std::vector<Link> links = {{ap, c}, {c, ap}};
  const auto g = ConflictGraph::build(t, links);
  EXPECT_TRUE(g.conflicts(0, 1));
}

TEST(ConflictGraph, HiddenInterferenceConflicts) {
  const Topology t = hidden_pair_topology();
  const auto links = t.make_links(true, false);
  const auto g = ConflictGraph::build(t, links);
  ASSERT_EQ(g.num_links(), 2u);
  EXPECT_TRUE(g.conflicts(0, 1));
}

TEST(ConflictGraph, ExposedPairDoesNotConflict) {
  // Senders hear each other but receivers are clean: schedulable together.
  ManualTopologyBuilder b;
  const auto ap0 = b.add_ap();
  const auto ap1 = b.add_ap();
  b.add_client(ap0);
  b.add_client(ap1);
  b.sense(ap0, ap1);
  const Topology t = b.build();
  const auto links = t.make_links(true, false);
  const auto g = ConflictGraph::build(t, links);
  EXPECT_FALSE(g.conflicts(0, 1));
}

TEST(ConflictGraph, AckPhaseProtected) {
  // Scheduled slots align ACK phases with ACK phases: the protected case
  // is one link's ACK (receiver -> sender) colliding with the OTHER
  // link's concurrent ACK emitter. Here C1's transmissions destroy
  // reception at AP0, so AP0 cannot decode C0's ACK while C1 acks —
  // the full rule must conflict while the data-only rule passes.
  ManualTopologyBuilder b;
  const auto ap0 = b.add_ap();
  const auto ap1 = b.add_ap();
  const auto c0 = b.add_client(ap0);
  const auto c1 = b.add_client(ap1);
  b.interfere(c1, ap0);  // the other RECEIVER's emissions break AP0's rx
  // Asymmetry: link B's data is strong enough to survive AP0's reverse
  // interference (SINR 13 dB), but AP0's ACK reception (-55 signal) is not.
  b.set_rss(ap1, c1, -45.0);
  (void)c0;
  const Topology t = b.build();
  const auto links = t.make_links(true, false);  // AP0->C0, AP1->C1
  const auto g = ConflictGraph::build(t, links);
  EXPECT_TRUE(g.conflicts(0, 1));        // full rule: ACK at AP0 breaks
  EXPECT_FALSE(g.data_conflicts(0, 1));  // data-only rule passes
}

TEST(ConflictGraph, BadLinkIdThrowsOutOfRange) {
  const Topology t = hidden_pair_topology();
  const auto g = ConflictGraph::build(t, t.make_links(true, false));
  ASSERT_EQ(g.num_links(), 2u);
  for (const LinkId bad : {LinkId{2}, LinkId{64}, kNoLink}) {
    EXPECT_THROW((void)g.conflicts(0, bad), std::out_of_range) << bad;
    EXPECT_THROW((void)g.conflicts(bad, 0), std::out_of_range) << bad;
    EXPECT_THROW((void)g.data_conflicts(1, bad), std::out_of_range) << bad;
    EXPECT_THROW((void)g.data_conflicts(bad, 1), std::out_of_range) << bad;
    EXPECT_THROW((void)g.conflict_row(bad), std::out_of_range) << bad;
    EXPECT_THROW((void)g.data_conflict_row(bad), std::out_of_range) << bad;
  }
  // A link conflicts with itself under both rules.
  EXPECT_TRUE(g.conflicts(1, 1));
  EXPECT_TRUE(g.data_conflicts(1, 1));
}

TEST(ConflictGraph, ExtendToMaximalIsMaximalAndIndependent) {
  Rng rng(8);
  const auto trace = synthesize_trace({}, rng);
  const Topology t = Topology::build_tmn(trace.rss, 6, 2, {}, rng);
  const auto links = t.make_links(true, true);
  const auto g = ConflictGraph::build(t, links);

  std::vector<LinkId> all(g.num_links());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  std::vector<LinkId> set;
  g.extend_to_maximal(set, all);

  // Pairwise data-conflict-free.
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      EXPECT_FALSE(g.data_conflicts(set[i], set[j]));
    }
  }
  // Maximal: no remaining link fits.
  for (LinkId cand : all) {
    if (std::find(set.begin(), set.end(), cand) != set.end()) continue;
    bool fits = true;
    for (LinkId s : set) {
      if (g.data_conflicts(cand, s)) {
        fits = false;
        break;
      }
    }
    EXPECT_FALSE(fits) << "link " << cand << " should have been added";
  }
}

TEST(Census, CountsHiddenAndExposed) {
  // Build one hidden pair and one exposed pair in a 4-cell network.
  ManualTopologyBuilder b;
  const auto ap0 = b.add_ap();
  const auto ap1 = b.add_ap();
  const auto ap2 = b.add_ap();
  const auto ap3 = b.add_ap();
  b.add_client(ap0);
  const auto c1 = b.add_client(ap1);
  b.add_client(ap2);
  b.add_client(ap3);
  b.interfere(ap0, c1);  // hidden: ap0 unheard by ap1, corrupts c1
  b.sense(ap2, ap3);     // exposed: ap2/ap3 hear each other, links clean
  const Topology t = b.build();
  const auto links = t.make_links(true, false);
  const auto census = classify_pairs(t, links);
  EXPECT_GE(census.hidden, 1u);
  EXPECT_GE(census.exposed, 1u);
  EXPECT_EQ(census.total, 6u);  // C(4,2) node-disjoint link pairs
}

class TmnSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TmnSweep, BuildsRequestedShape) {
  Rng rng(100 + GetParam().first);
  // Denser variant for client-heavy shapes (the paper's T(6,5) needs 36 of
  // 40 nodes associated).
  TraceParams dense;
  dense.building_w = 40.0;
  dense.building_gap = 15.0;
  dense.wall_db = 2.0;
  const auto trace = synthesize_trace(dense, rng);
  const auto [m, n] = GetParam();
  const Topology t = Topology::build_tmn(trace.rss, m, n, {}, rng);
  EXPECT_EQ(t.aps().size(), static_cast<std::size_t>(m));
  EXPECT_EQ(t.all_clients().size(), static_cast<std::size_t>(m * n));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TmnSweep,
                         ::testing::Values(std::pair{4, 2}, std::pair{6, 5},
                                           std::pair{10, 2},
                                           std::pair{12, 1}));

// ---- ingestion validation --------------------------------------------------
// The Topology constructor is the chokepoint every topology source passes
// through; corrupt RSS traces and malformed node tables must be rejected
// there with the offending entry named.

TEST(TopologyValidation, RejectsEmptyNodeList) {
  EXPECT_THROW(Topology({}, RssMap(0), {}), std::invalid_argument);
}

TEST(TopologyValidation, RejectsDuplicateOrMisnumberedIds) {
  std::vector<Node> nodes{Node{0, {}, true, kNoNode},
                          Node{0, {}, false, 0}};  // duplicate id 0
  try {
    Topology(nodes, RssMap(2), {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("index 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("id 0"), std::string::npos) << msg;
  }
}

TEST(TopologyValidation, RejectsClientWithBadApReference) {
  // Client points at a nonexistent node.
  std::vector<Node> missing{Node{0, {}, true, kNoNode},
                            Node{1, {}, false, 7}};
  EXPECT_THROW(Topology(missing, RssMap(2), {}), std::invalid_argument);
  // Client points at another client.
  std::vector<Node> not_ap{Node{0, {}, true, kNoNode},
                           Node{1, {}, false, 0},
                           Node{2, {}, false, 1}};
  try {
    Topology(not_ap, RssMap(3), {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not an AP"), std::string::npos)
        << e.what();
  }
}

TEST(TopologyValidation, RejectsNanAndPositiveRss) {
  std::vector<Node> nodes{Node{0, {}, true, kNoNode},
                          Node{1, {}, false, 0}};
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), 3.5,
        std::numeric_limits<double>::infinity()}) {
    RssMap rss(2);
    rss.set_rss(0, 1, bad);
    try {
      Topology(nodes, rss, {});
      FAIL() << "expected std::invalid_argument for RSS " << bad;
    } catch (const std::invalid_argument& e) {
      // The offending pair is named.
      EXPECT_NE(std::string(e.what()).find("RSS(0, 1)"), std::string::npos)
          << e.what();
    }
  }
  // Five nodes, two bad pairs among valid ones: the message names the
  // first bad pair in row-major order. Row-major order over (a, b) meets
  // (0, 4) first; a walk of the lower triangle would name (3, 2) and one
  // by column would name (2, 3).
  std::vector<Node> five{Node{0, {}, true, kNoNode}};
  for (NodeId c = 1; c < 5; ++c) five.push_back(Node{c, {}, false, 0});
  RssMap rss(5);
  for (NodeId c = 1; c < 5; ++c) rss.set_rss(0, c, -50.0);
  rss.set_rss(1, 2, -70.0);
  rss.set_rss(3, 2, 4.0);
  rss.set_rss(4, 0, std::numeric_limits<double>::quiet_NaN());
  try {
    Topology(five, rss, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("RSS(0, 4)"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("(2, 3)"), std::string::npos) << msg;
  }
  // With the first one mended the second is named.
  rss.set_rss(0, 4, -50.0);
  try {
    Topology(five, rss, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("RSS(2, 3)"), std::string::npos)
        << e.what();
  }
}

TEST(TopologyValidation, AcceptsNegativeInfinityAsNoPath) {
  std::vector<Node> nodes{Node{0, {}, true, kNoNode},
                          Node{1, {}, false, 0}};
  RssMap rss(2);
  rss.set_rss(0, 1, -std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(Topology(nodes, rss, {}));
}

TEST(TopologyValidation, RejectsMismatchedRssMapSize) {
  std::vector<Node> nodes{Node{0, {}, true, kNoNode}};
  EXPECT_THROW(Topology(nodes, RssMap(3), {}), std::invalid_argument);
}

TEST(TopologyValidation, BuildTmnRejectsZeroShape) {
  Rng rng(1);
  const auto trace = synthesize_trace({}, rng);
  EXPECT_THROW(Topology::build_tmn(trace.rss, 0, 2, {}, rng),
               std::invalid_argument);
  EXPECT_THROW(Topology::build_tmn(trace.rss, 10, 0, {}, rng),
               std::invalid_argument);
}

TEST(TopologyValidation, RandomNetworkRejectsDegenerateArea) {
  Rng rng(1);
  LogDistanceModel model;
  EXPECT_THROW(Topology::random_network(0, 2, 100.0, model, {}, rng),
               std::invalid_argument);
  EXPECT_THROW(Topology::random_network(2, 2, 0.0, model, {}, rng),
               std::invalid_argument);
  EXPECT_THROW(Topology::random_network(2, 2, -5.0, model, {}, rng),
               std::invalid_argument);
}

TEST(TopologyValidation, ManualBuilderRejectsBadEdgeIds) {
  ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  b.add_client(ap);
  b.set_rss(0, 9, -40.0);  // node 9 does not exist
  try {
    b.build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(0, 9)"), std::string::npos)
        << e.what();
  }
}

TEST(Census, Tmn102HasHiddenAndExposedPairs) {
  // The paper reports 10 hidden and 62 exposed pairs in its T(10,2); our
  // synthetic trace must land in the same qualitative regime.
  Rng rng(42);
  const auto trace = synthesize_trace({}, rng);
  const Topology t = Topology::build_tmn(trace.rss, 10, 2, {}, rng);
  const auto links = t.make_links(true, true);
  const auto census = classify_pairs(t, links);
  EXPECT_GT(census.hidden, 0u);
  EXPECT_GT(census.exposed, 0u);
  EXPECT_GT(census.total, 100u);
}

}  // namespace
}  // namespace dmn::topo
