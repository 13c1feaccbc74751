// Unit tests: topology, propagation, the synthetic 40-node trace, T(m,n)
// construction, conflict graphs and the hidden/exposed census.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "topo/conflict_graph.h"
#include "topo/node.h"
#include "topo/propagation.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"

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
  RssMap map(4);
  map.set_rss(1, 3, -62.5);
  EXPECT_DOUBLE_EQ(map.rss(1, 3), -62.5);
  EXPECT_DOUBLE_EQ(map.rss(3, 1), -62.5);
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
