// Unit tests: RAND greedy scheduler, the schedule converter (§3.3 — fake
// links, trigger budgets, batch connection, ROP insertion), the omniscient
// genie, and CENTAUR's batch machinery. The converter is also checked
// against a frozen copy of its earlier map/set implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "centaur/centaur.h"
#include "domino/controller.h"
#include "domino/converter.h"
#include "domino/rand_scheduler.h"
#include "domino/signature_plan.h"
#include "mac/dcf.h"
#include "omni/omniscient.h"
#include "topo/conflict_graph.h"
#include "topo/dynamics.h"
#include "topo/topology.h"
#include "topo/trace_synth.h"
#include "wired/backbone.h"

namespace dmn {
namespace {

/// Figure 7's four AP-client pairs: cells 1&2 interfere, cells 3&4
/// interfere, and the two halves are disjoint — the paper's two-chain
/// example.
topo::Topology fig7_topology() {
  topo::ManualTopologyBuilder b;
  const auto ap1 = b.add_ap();   // 0
  const auto ap2 = b.add_ap();   // 1
  const auto ap3 = b.add_ap();   // 2
  const auto ap4 = b.add_ap();   // 3
  const auto c1 = b.add_client(ap1);  // 4
  const auto c2 = b.add_client(ap2);  // 5
  const auto c3 = b.add_client(ap3);  // 6
  const auto c4 = b.add_client(ap4);  // 7
  b.interfere(ap1, c2).interfere(ap2, c1);  // cells 1-2 conflict
  b.interfere(ap3, c4).interfere(ap4, c3);  // cells 3-4 conflict
  b.sense(ap1, ap2).sense(ap3, ap4);
  b.sense(c1, c2).sense(c3, c4);
  (void)c1; (void)c2; (void)c3; (void)c4;
  return b.build();
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : topo_(fig7_topology()),
        links_(topo_.make_links(true, true)),
        graph_(topo::ConflictGraph::build(topo_, links_)) {}

  std::size_t find(topo::NodeId s, topo::NodeId r) const {
    return static_cast<std::size_t>(graph_.find({s, r}));
  }

  topo::Topology topo_;
  std::vector<topo::Link> links_;
  topo::ConflictGraph graph_;
};

TEST_F(SchedulerTest, SlotIsIndependentAndDemandGated) {
  domino::RandScheduler rand(graph_);
  std::vector<std::size_t> demand(graph_.num_links(), 0);
  demand[find(0, 4)] = 5;  // AP1->C1
  demand[find(1, 5)] = 5;  // AP2->C2 (conflicts with AP1->C1)
  demand[find(2, 6)] = 5;  // AP3->C3
  const auto slot = rand.schedule_slot(demand);
  EXPECT_TRUE(graph_.is_independent(slot));
  for (topo::LinkId l : slot) {
    EXPECT_GT(demand[static_cast<std::size_t>(l)], 0u);
  }
  // AP1->C1 and AP2->C2 cannot both be in; AP3->C3 is independent of both.
  EXPECT_EQ(slot.size(), 2u);
}

TEST_F(SchedulerTest, RotationAlternatesConflictingLinks) {
  domino::RandScheduler rand(graph_);
  std::vector<std::size_t> demand(graph_.num_links(), 0);
  demand[find(0, 4)] = 100;
  demand[find(1, 5)] = 100;
  std::set<topo::LinkId> seen_first;
  for (int i = 0; i < 4; ++i) {
    const auto slot = rand.schedule_slot(demand);
    ASSERT_FALSE(slot.empty());
    seen_first.insert(slot.front());
  }
  EXPECT_EQ(seen_first.size(), 2u) << "fairness rotation must alternate";
}

TEST_F(SchedulerTest, BatchConsumesDemand) {
  domino::RandScheduler rand(graph_);
  std::vector<std::size_t> demand(graph_.num_links(), 0);
  demand[find(0, 4)] = 2;
  const auto batch = rand.schedule_batch(demand, 10);
  int scheduled = 0;
  for (const auto& slot : batch) {
    for (topo::LinkId l : slot) {
      if (static_cast<std::size_t>(l) == find(0, 4)) ++scheduled;
    }
  }
  EXPECT_EQ(scheduled, 2) << "demand of 2 packets -> exactly 2 slots";
}

// ---- Converter ------------------------------------------------------------

class ConverterTest : public SchedulerTest {
 protected:
  ConverterTest() : signatures_(topo_.num_nodes()) {}

  domino::RelativeSchedule convert_simple(
      const std::vector<std::vector<topo::LinkId>>& strict,
      const std::vector<topo::NodeId>& rop = {}) {
    domino::ScheduleConverter conv(topo_, graph_, signatures_);
    return conv.convert(strict, {}, rop, 1, 0);
  }

  domino::SignaturePlan signatures_;
};

TEST_F(ConverterTest, FakeInsertionMakesMaximalCover) {
  const auto rs = convert_simple({{static_cast<topo::LinkId>(find(0, 4))}});
  ASSERT_EQ(rs.slots.size(), 2u);  // overlap + 1
  const auto& slot = rs.slots[1];
  EXPECT_GT(slot.entries.size(), 1u) << "fake links must fill the slot";
  bool has_fake = false;
  std::vector<topo::LinkId> ids;
  for (const auto& e : slot.entries) {
    ids.push_back(e.link);
    has_fake = has_fake || e.fake;
  }
  EXPECT_TRUE(has_fake);
  // All entries pairwise data-conflict-free.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_FALSE(graph_.data_conflicts(ids[i], ids[j]));
    }
  }
}

TEST_F(ConverterTest, FakeInsertionDisabledByKnob) {
  domino::ConverterParams params;
  params.insert_fake_links = false;
  domino::ScheduleConverter conv(topo_, graph_, signatures_, params);
  const auto rs = conv.convert({{static_cast<topo::LinkId>(find(0, 4))}},
                               {}, {}, 1, 0);
  EXPECT_EQ(rs.slots[1].entries.size(), 1u);
}

TEST_F(ConverterTest, TriggerBudgetsRespected) {
  // Alternate the two conflicting pairs over several slots and check the
  // inbound (<=2) / outbound (<=4) budgets on every boundary.
  std::vector<std::vector<topo::LinkId>> strict;
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      strict.push_back({static_cast<topo::LinkId>(find(0, 4)),
                        static_cast<topo::LinkId>(find(2, 6))});
    } else {
      strict.push_back({static_cast<topo::LinkId>(find(1, 5)),
                        static_cast<topo::LinkId>(find(3, 7))});
    }
  }
  const auto rs = convert_simple(strict);
  for (const auto& slot : rs.slots) {
    std::map<topo::NodeId, int> inbound, outbound;
    for (const auto& t : slot.triggers) {
      ++inbound[t.target];
      if (t.via != t.target && !t.continuation) ++outbound[t.via];
    }
    for (const auto& [n, c] : inbound) {
      EXPECT_LE(c, 2) << "inbound budget at node " << n;
    }
    for (const auto& [n, c] : outbound) {
      EXPECT_LE(c, 4) << "outbound budget at node " << n;
    }
  }
}

TEST_F(ConverterTest, FirstBatchFirstSlotSurvivesWithoutTriggers) {
  const auto rs = convert_simple({{static_cast<topo::LinkId>(find(0, 4))}});
  EXPECT_TRUE(rs.slots[0].entries.empty());
  EXPECT_TRUE(rs.slots[0].triggers.empty());
  EXPECT_FALSE(rs.slots[1].entries.empty());
}

TEST_F(ConverterTest, ForcedPollOnEmptyOverlapSlotSurvives) {
  // Single-slot first batch: the greedy ROP pass has no interior boundary
  // to try, so the poll is force-placed on the (empty) overlap slot.
  // Regression: trigger assignment used to clear rop_after/rop_aps along
  // with the empty slot's nonexistent triggers, silently discarding a
  // demanded poll; the polling AP must instead keep it and self-start.
  const auto rs =
      convert_simple({{static_cast<topo::LinkId>(find(0, 4))}}, {2});
  ASSERT_EQ(rs.slots.size(), 2u);
  EXPECT_TRUE(rs.slots[0].entries.empty());
  EXPECT_TRUE(rs.slots[0].triggers.empty());
  EXPECT_TRUE(rs.slots[0].rop_after);
  ASSERT_EQ(rs.slots[0].rop_aps.size(), 1u);
  EXPECT_EQ(rs.slots[0].rop_aps[0], 2);
}

TEST_F(ConverterTest, BatchConnectionCarriesOverlapSlot) {
  domino::ScheduleConverter conv(topo_, graph_, signatures_);
  const auto rs1 = conv.convert({{static_cast<topo::LinkId>(find(0, 4))}},
                                {}, {}, 1, 0);
  const auto& last = rs1.slots.back();
  const auto rs2 = conv.convert({{static_cast<topo::LinkId>(find(1, 5))}},
                                last.entries, {}, 2, last.global_index);
  // Overlap slot repeats the previous batch's last entries and now carries
  // triggers into the new batch.
  ASSERT_EQ(rs2.slots[0].global_index, last.global_index);
  EXPECT_EQ(rs2.slots[0].entries.size(), last.entries.size());
  EXPECT_FALSE(rs2.slots[0].triggers.empty());
}

TEST_F(ConverterTest, RopInsertionSkipsOverlapBoundaryAndShares) {
  std::vector<std::vector<topo::LinkId>> strict(4);
  const auto rs = convert_simple(strict, {0, 1, 2, 3});
  // No poll on the overlap boundary.
  EXPECT_FALSE(rs.slots[0].rop_after);
  // Every requested AP placed somewhere.
  std::set<topo::NodeId> polled;
  for (const auto& slot : rs.slots) {
    if (slot.rop_after) {
      EXPECT_FALSE(slot.rop_aps.empty());
    }
    for (topo::NodeId ap : slot.rop_aps) {
      EXPECT_TRUE(polled.insert(ap).second) << "AP polled twice";
    }
  }
  EXPECT_EQ(polled.size(), 4u);
  // Sharing rule: co-polling APs have no conflicting links.
  domino::ScheduleConverter conv(topo_, graph_, signatures_);
  for (const auto& slot : rs.slots) {
    for (std::size_t i = 0; i < slot.rop_aps.size(); ++i) {
      for (std::size_t j = i + 1; j < slot.rop_aps.size(); ++j) {
        // Cells 1&2 conflict; 3&4 conflict. Valid co-poll sets pair across
        // the halves only.
        const auto a = slot.rop_aps[i];
        const auto b2 = slot.rop_aps[j];
        const bool same_half = (a <= 1 && b2 <= 1) || (a >= 2 && b2 >= 2);
        EXPECT_FALSE(same_half)
            << "conflicting APs " << a << "," << b2 << " share an ROP slot";
      }
    }
  }
}

TEST_F(ConverterTest, ApPlansCoverRolesAndCodes) {
  std::vector<std::vector<topo::LinkId>> strict = {
      {static_cast<topo::LinkId>(find(0, 4)),
       static_cast<topo::LinkId>(find(2, 6))},
      {static_cast<topo::LinkId>(find(4, 0)),
       static_cast<topo::LinkId>(find(6, 2))},
  };
  domino::ScheduleConverter conv(topo_, graph_, signatures_);
  const auto rs = conv.convert(strict, {}, {}, 1, 0);
  const auto plans = conv.make_ap_plans(rs);
  std::map<topo::NodeId, const domino::ApSchedule*> by_ap;
  for (const auto& p : plans) by_ap[p.ap] = &p;
  ASSERT_TRUE(by_ap.count(0));
  bool saw_tx = false, saw_rx = false;
  for (const auto& row : by_ap[0]->slots) {
    if (row.role == domino::ApSlotPlan::Role::kTxData) {
      saw_tx = true;
      EXPECT_EQ(row.peer, 4);
    }
    if (row.role == domino::ApSlotPlan::Role::kRxData) saw_rx = true;
  }
  EXPECT_TRUE(saw_tx);
  EXPECT_TRUE(saw_rx);
  // Every AP plan shares the same rop boundary list (lattice consistency).
  for (const auto& p : plans) {
    EXPECT_EQ(p.rop_boundaries, plans.front().rop_boundaries);
    EXPECT_EQ(p.batch_first_slot, 1u);
  }
}

// ---- Converter differential ------------------------------------------------
//
// The converter plans on flat per-graph tables (a node x node ROP-sharing
// matrix, node-indexed trigger counters and flags, per-AP row slots). The
// reference below is the map/set implementation it replaced, frozen here:
// both must produce the same relative schedules and AP plans, field by
// field, on random batches, and keep doing so after in-place graph rebuilds.

namespace reference {

/// Two APs may poll on one boundary when no link of one conflicts with any
/// link of the other.
bool aps_can_share_rop(const topo::ConflictGraph& graph, topo::NodeId a,
                       topo::NodeId b) {
  for (std::size_t i = 0; i < graph.num_links(); ++i) {
    const topo::Link& la = graph.link(static_cast<topo::LinkId>(i));
    if (la.sender != a && la.receiver != a) continue;
    for (std::size_t j = 0; j < graph.num_links(); ++j) {
      const topo::Link& lb = graph.link(static_cast<topo::LinkId>(j));
      if (lb.sender != b && lb.receiver != b) continue;
      if (graph.conflicts(static_cast<topo::LinkId>(i),
                          static_cast<topo::LinkId>(j))) {
        return false;
      }
    }
  }
  return true;
}

class MapSetConverter {
 public:
  MapSetConverter(const topo::Topology& topo, const topo::ConflictGraph& graph,
                  const domino::SignaturePlan& signatures,
                  const domino::ConverterParams& params)
      : topo_(topo), graph_(graph), signatures_(signatures), params_(params) {}

  domino::RelativeSchedule convert(
      const std::vector<std::vector<topo::LinkId>>& strict,
      const std::vector<domino::SlotEntry>& prev_last,
      const std::vector<topo::NodeId>& rop_aps_needed,
      std::uint64_t batch_id, std::uint64_t first_global_index,
      const std::vector<std::uint32_t>& rop_symbols_needed) {
    domino::RelativeSchedule rs;
    rs.batch_id = batch_id;
    domino::RelSlot overlap;
    overlap.global_index = first_global_index;
    overlap.entries = prev_last;
    rs.slots.push_back(std::move(overlap));
    std::vector<topo::LinkId> all_links(graph_.num_links());
    for (std::size_t i = 0; i < all_links.size(); ++i) {
      all_links[i] = static_cast<topo::LinkId>(i);
    }
    for (std::size_t s = 0; s < strict.size(); ++s) {
      domino::RelSlot slot;
      slot.global_index = first_global_index + 1 + s;
      std::vector<topo::LinkId> links = strict[s];
      const std::size_t real_count = links.size();
      if (params_.insert_fake_links) {
        graph_.extend_to_maximal(links, all_links);
      }
      for (std::size_t i = 0; i < links.size(); ++i) {
        slot.entries.push_back(domino::SlotEntry{links[i], i >= real_count});
      }
      rs.slots.push_back(std::move(slot));
    }
    for (std::size_t a = 0; a < rop_aps_needed.size(); ++a) {
      const topo::NodeId ap = rop_aps_needed[a];
      const std::uint32_t symbols =
          a < rop_symbols_needed.size()
              ? std::max<std::uint32_t>(rop_symbols_needed[a], 1)
              : 1;
      bool placed = false;
      for (std::size_t i = 1; i + 1 < rs.slots.size() && !placed; ++i) {
        domino::RelSlot& si = rs.slots[i];
        bool reachable = false;
        for (topo::NodeId v : endpoints(si)) {
          if (v == ap || can_trigger(v, ap)) {
            reachable = true;
            break;
          }
        }
        if (!reachable) continue;
        if (!si.rop_after) {
          si.rop_after = true;
          si.rop_aps.push_back(ap);
          placed = true;
        } else {
          bool shareable = true;
          for (topo::NodeId other : si.rop_aps) {
            if (!aps_can_share_rop(ap, other)) {
              shareable = false;
              break;
            }
          }
          if (shareable) {
            si.rop_aps.push_back(ap);
            placed = true;
          }
        }
        if (placed) si.rop_symbols = std::max(si.rop_symbols, symbols);
      }
      if (!placed && rs.slots.size() > 1) {
        std::size_t at = rs.slots.size() - 2;
        for (std::size_t i = at; i >= 1; --i) {
          bool shareable = true;
          for (topo::NodeId other : rs.slots[i].rop_aps) {
            if (!aps_can_share_rop(ap, other)) {
              shareable = false;
              break;
            }
          }
          if (shareable) {
            at = i;
            break;
          }
        }
        domino::RelSlot& fallback = rs.slots[at];
        fallback.rop_after = true;
        fallback.rop_aps.push_back(ap);
        fallback.rop_symbols = std::max(fallback.rop_symbols, symbols);
      }
    }
    for (std::size_t i = 0; i + 1 < rs.slots.size(); ++i) {
      assign_triggers(rs.slots[i], rs.slots[i + 1]);
    }
    return rs;
  }

  std::vector<domino::ApSchedule> make_ap_plans(
      const domino::RelativeSchedule& rs) const {
    using domino::ApSlotPlan;
    std::map<topo::NodeId, domino::ApSchedule> plans;
    const std::uint64_t first_new = rs.slots.size() > 1
                                        ? rs.slots[1].global_index
                                        : rs.slots.front().global_index;
    std::vector<domino::ApSchedule::RopBoundary> rop_boundaries;
    for (const domino::RelSlot& slot : rs.slots) {
      if (slot.rop_after) {
        rop_boundaries.push_back({slot.global_index, slot.rop_symbols});
      }
    }
    for (topo::NodeId ap : topo_.aps()) {
      plans[ap].ap = ap;
      plans[ap].batch_id = rs.batch_id;
      plans[ap].batch_first_slot = first_new;
      plans[ap].rop_boundaries = rop_boundaries;
    }
    for (const domino::RelSlot& slot : rs.slots) {
      std::map<topo::NodeId, ApSlotPlan> rows;
      auto row = [&](topo::NodeId ap) -> ApSlotPlan& {
        auto [it, fresh] = rows.try_emplace(ap);
        if (fresh) it->second.global_index = slot.global_index;
        return it->second;
      };
      for (const domino::SlotEntry& e : slot.entries) {
        const topo::Link& l = graph_.link(e.link);
        const bool down = topo_.node(l.sender).is_ap;
        const topo::NodeId ap = down ? l.sender : l.receiver;
        ApSlotPlan& r = row(ap);
        r.role = down ? ApSlotPlan::Role::kTxData : ApSlotPlan::Role::kRxData;
        r.peer = down ? l.receiver : l.sender;
        r.fake = e.fake;
      }
      for (const domino::Trigger& t : slot.triggers) {
        if (t.continuation) {
          row(t.via).client_continue = true;
          continue;
        }
        if (t.via == t.target) continue;
        const topo::Node& via_node = topo_.node(t.via);
        const std::size_t code = signatures_.code_of(t.target);
        if (via_node.is_ap) {
          row(t.via).my_codes.push_back(code);
        } else {
          row(via_node.ap).client_codes.push_back(code);
        }
      }
      if (slot.rop_after) {
        for (const domino::SlotEntry& e : slot.entries) {
          const topo::Link& l = graph_.link(e.link);
          const topo::NodeId ap =
              topo_.node(l.sender).is_ap ? l.sender : l.receiver;
          ApSlotPlan& r = row(ap);
          r.rop_after = true;
          r.rop_symbols = slot.rop_symbols;
        }
        for (topo::NodeId ap : slot.rop_aps) {
          ApSlotPlan& r = row(ap);
          r.rop_after = true;
          r.polls_in_rop = true;
          r.rop_symbols = slot.rop_symbols;
        }
      }
      for (auto& [ap, plan_row] : rows) {
        plans[ap].slots.push_back(std::move(plan_row));
      }
    }
    std::vector<domino::ApSchedule> out;
    for (auto& [ap, plan] : plans) out.push_back(std::move(plan));
    return out;
  }

  std::uint64_t untriggerable_drops() const { return dropped_; }

 private:
  std::vector<topo::NodeId> endpoints(const domino::RelSlot& slot) const {
    std::vector<topo::NodeId> out;
    for (const domino::SlotEntry& e : slot.entries) {
      const topo::Link& l = graph_.link(e.link);
      out.push_back(l.sender);
      out.push_back(l.receiver);
    }
    return out;
  }

  bool can_trigger(topo::NodeId via, topo::NodeId target) const {
    if (via == target) return true;
    return topo_.rss(via, target) >= params_.trigger_rss_floor_dbm;
  }

  bool aps_can_share_rop(topo::NodeId a, topo::NodeId b) const {
    return reference::aps_can_share_rop(graph_, a, b);
  }

  void assign_triggers(domino::RelSlot& from, domino::RelSlot& to) {
    if (from.entries.empty()) return;
    struct Target {
      topo::NodeId node;
      bool is_entry;
      bool fake;
      std::size_t entry_index;
    };
    std::vector<Target> targets;
    for (std::size_t i = 0; i < to.entries.size(); ++i) {
      if (to.entries[i].fake) continue;
      const topo::Link& l = graph_.link(to.entries[i].link);
      targets.push_back(Target{l.sender, true, false, i});
    }
    for (topo::NodeId ap : from.rop_aps) {
      targets.push_back(Target{ap, false, false, 0});
    }
    for (std::size_t i = 0; i < to.entries.size(); ++i) {
      if (!to.entries[i].fake) continue;
      const topo::Link& l = graph_.link(to.entries[i].link);
      targets.push_back(Target{l.sender, true, true, i});
    }
    const std::vector<topo::NodeId> vias = endpoints(from);
    std::map<topo::NodeId, int> outbound;
    std::map<topo::NodeId, int> inbound;
    std::set<topo::NodeId> continuation_ok;
    for (const domino::SlotEntry& e : from.entries) {
      const topo::Link& l = graph_.link(e.link);
      continuation_ok.insert(topo_.node(l.sender).is_ap ? l.receiver
                                                        : l.sender);
    }
    std::set<topo::NodeId> must_listen;
    for (const Target& t : targets) {
      if (!t.fake && !topo_.node(t.node).is_ap &&
          !continuation_ok.contains(t.node)) {
        must_listen.insert(t.node);
      }
    }
    std::set<topo::NodeId> used_as_via;
    auto contains = [](const std::vector<topo::NodeId>& v, topo::NodeId n) {
      return std::find(v.begin(), v.end(), n) != v.end();
    };
    auto pick_via = [&](const Target& tgt,
                        const std::vector<topo::NodeId>& exclude) {
      const topo::NodeId target = tgt.node;
      if (topo_.node(target).is_ap && contains(vias, target) &&
          !contains(exclude, target)) {
        return target;
      }
      topo::NodeId best = topo::kNoNode;
      double best_rss = -1e9;
      for (topo::NodeId v : vias) {
        if (v == target || must_listen.contains(v) || contains(exclude, v)) {
          continue;
        }
        if (outbound[v] >= params_.max_outbound) continue;
        if (!can_trigger(v, target)) continue;
        const double rss = topo_.rss(v, target);
        if (rss > best_rss) {
          best_rss = rss;
          best = v;
        }
      }
      return best;
    };
    auto assign_one = [&](const Target& tgt,
                          std::vector<topo::NodeId>& already) -> bool {
      const bool is_client = !topo_.node(tgt.node).is_ap;
      if (is_client && continuation_ok.contains(tgt.node) &&
          already.empty()) {
        const topo::NodeId ap = topo_.node(tgt.node).ap;
        already.push_back(ap);
        from.triggers.push_back(domino::Trigger{ap, tgt.node, true});
        ++inbound[tgt.node];
        return true;
      }
      if (is_client && used_as_via.contains(tgt.node)) return false;
      if (is_client && continuation_ok.contains(tgt.node)) return false;
      const topo::NodeId via = pick_via(tgt, already);
      if (via == topo::kNoNode) return false;
      already.push_back(via);
      from.triggers.push_back(domino::Trigger{via, tgt.node});
      ++inbound[tgt.node];
      if (via != tgt.node) {
        ++outbound[via];
        if (!topo_.node(via).is_ap) used_as_via.insert(via);
      }
      return true;
    };
    std::vector<bool> reachable(targets.size(), false);
    std::vector<std::vector<topo::NodeId>> assigned(targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      reachable[t] = assign_one(targets[t], assigned[t]);
    }
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (!reachable[t]) continue;
      if (inbound[targets[t].node] >= params_.max_inbound) continue;
      assign_one(targets[t], assigned[t]);
    }
    std::vector<domino::SlotEntry> kept;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (!targets[t].is_entry) continue;
      if (reachable[t] || !targets[t].fake) {
        kept.push_back(to.entries[targets[t].entry_index]);
        if (!reachable[t]) ++dropped_;
      }
    }
    to.entries = std::move(kept);
  }

  const topo::Topology& topo_;
  const topo::ConflictGraph& graph_;
  const domino::SignaturePlan& signatures_;
  domino::ConverterParams params_;
  std::uint64_t dropped_ = 0;
};

}  // namespace reference

void expect_same_schedule(const domino::RelativeSchedule& got,
                          const domino::RelativeSchedule& want) {
  EXPECT_EQ(got.batch_id, want.batch_id);
  ASSERT_EQ(got.slots.size(), want.slots.size());
  for (std::size_t s = 0; s < got.slots.size(); ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    const domino::RelSlot& g = got.slots[s];
    const domino::RelSlot& w = want.slots[s];
    EXPECT_EQ(g.global_index, w.global_index);
    ASSERT_EQ(g.entries.size(), w.entries.size());
    for (std::size_t i = 0; i < g.entries.size(); ++i) {
      EXPECT_EQ(g.entries[i].link, w.entries[i].link);
      EXPECT_EQ(g.entries[i].fake, w.entries[i].fake);
    }
    ASSERT_EQ(g.triggers.size(), w.triggers.size());
    for (std::size_t i = 0; i < g.triggers.size(); ++i) {
      EXPECT_EQ(g.triggers[i].via, w.triggers[i].via);
      EXPECT_EQ(g.triggers[i].target, w.triggers[i].target);
      EXPECT_EQ(g.triggers[i].continuation, w.triggers[i].continuation);
    }
    EXPECT_EQ(g.rop_after, w.rop_after);
    EXPECT_EQ(g.rop_aps, w.rop_aps);
    EXPECT_EQ(g.rop_symbols, w.rop_symbols);
  }
}

void expect_same_plans(const std::vector<domino::ApSchedule>& got,
                       const std::vector<domino::ApSchedule>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    SCOPED_TRACE("plan " + std::to_string(p));
    const domino::ApSchedule& g = got[p];
    const domino::ApSchedule& w = want[p];
    EXPECT_EQ(g.ap, w.ap);
    EXPECT_EQ(g.batch_id, w.batch_id);
    EXPECT_EQ(g.batch_first_slot, w.batch_first_slot);
    EXPECT_EQ(g.planned_at, w.planned_at);
    EXPECT_EQ(g.rop_boundaries, w.rop_boundaries);
    ASSERT_EQ(g.slots.size(), w.slots.size());
    for (std::size_t r = 0; r < g.slots.size(); ++r) {
      SCOPED_TRACE("row " + std::to_string(r));
      const domino::ApSlotPlan& gr = g.slots[r];
      const domino::ApSlotPlan& wr = w.slots[r];
      EXPECT_EQ(gr.global_index, wr.global_index);
      EXPECT_EQ(gr.role, wr.role);
      EXPECT_EQ(gr.peer, wr.peer);
      EXPECT_EQ(gr.fake, wr.fake);
      EXPECT_EQ(gr.my_codes, wr.my_codes);
      EXPECT_EQ(gr.client_codes, wr.client_codes);
      EXPECT_EQ(gr.client_continue, wr.client_continue);
      EXPECT_EQ(gr.rop_after, wr.rop_after);
      EXPECT_EQ(gr.polls_in_rop, wr.polls_in_rop);
      EXPECT_EQ(gr.rop_symbols, wr.rop_symbols);
      EXPECT_TRUE(gr.poll_roster.empty());
      EXPECT_TRUE(wr.poll_roster.empty());
    }
  }
}

/// Drives a converter and the reference through identical random batches:
/// RAND schedules over random demand, random poll sets (order, size and
/// symbol counts), the previous batch's last slot as the overlap (sometimes
/// dropped, as after a rebuild).
class DifferentialDriver {
 public:
  DifferentialDriver(const topo::Topology& t, const topo::ConflictGraph& g,
                        const domino::ConverterParams& params)
      : topo_(t),
        graph_(g),
        signatures_(t.num_nodes()),
        conv_(t, g, signatures_, params),
        ref_(t, g, signatures_, params) {}

  void run_batches(int batches, Rng& rng) {
    domino::RandScheduler rand(graph_);
    const std::vector<topo::NodeId> aps = topo_.aps();
    for (int b = 0; b < batches; ++b) {
      SCOPED_TRACE("batch " + std::to_string(batch_id_ + 1));
      std::vector<std::size_t> demand(graph_.num_links());
      for (auto& d : demand) {
        d = static_cast<std::size_t>(rng.uniform_int(0, 6));
      }
      const auto slots = static_cast<std::size_t>(rng.uniform_int(1, 12));
      const auto strict = rand.schedule_batch(std::move(demand), slots);

      std::vector<topo::NodeId> rop_aps;
      if (rng.chance(0.7)) {
        rop_aps = aps;
        rng.shuffle(rop_aps);
        rop_aps.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(aps.size()))));
      }
      std::vector<std::uint32_t> symbols;
      if (rng.chance(0.5)) {
        for (std::size_t i = 0; i < rop_aps.size(); ++i) {
          symbols.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
        }
      }
      if (rng.chance(0.1)) prev_last_.clear();

      ++batch_id_;
      const domino::RelativeSchedule got = conv_.convert(
          strict, prev_last_, rop_aps, batch_id_, next_global_, symbols);
      const domino::RelativeSchedule want = ref_.convert(
          strict, prev_last_, rop_aps, batch_id_, next_global_, symbols);
      expect_same_schedule(got, want);
      expect_same_plans(conv_.make_ap_plans(got), ref_.make_ap_plans(want));
      EXPECT_EQ(conv_.untriggerable_drops(), ref_.untriggerable_drops());
      prev_last_ = want.slots.back().entries;
      next_global_ += want.slots.size() - 1;
    }
  }

  /// The graph was rebuilt in place: its LinkIds changed meaning.
  void on_graph_rebuilt() { prev_last_.clear(); }

 private:
  const topo::Topology& topo_;
  const topo::ConflictGraph& graph_;
  domino::SignaturePlan signatures_;
  domino::ScheduleConverter conv_;
  reference::MapSetConverter ref_;
  std::vector<domino::SlotEntry> prev_last_;
  std::uint64_t batch_id_ = 0;
  std::uint64_t next_global_ = 0;
};

/// Random budgets and the fake-link ablation, so every branch of the
/// trigger assignment runs.
domino::ConverterParams random_params(Rng& rng) {
  domino::ConverterParams p;
  p.max_inbound = static_cast<int>(rng.uniform_int(1, 3));
  p.max_outbound = static_cast<int>(rng.uniform_int(1, 5));
  p.insert_fake_links = rng.chance(0.8);
  return p;
}

/// Converts on `t`, then has one client leave and rejoin with an in-place
/// graph rebuild after each change, converting with the same objects.
void check_against_reference(topo::Topology t, bool uplink, Rng& rng) {
  auto graph = std::make_unique<topo::ConflictGraph>(
      topo::ConflictGraph::build(t, t.make_links(true, uplink)));
  DifferentialDriver diff(t, *graph, random_params(rng));
  diff.run_batches(15, rng);

  const std::vector<topo::NodeId> clients = t.all_clients();
  const topo::NodeId leaver = clients[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(clients.size()) - 1))];
  for (const bool active : {false, true}) {
    SCOPED_TRACE(std::string(active ? "rejoin" : "leave") + " of node " +
                 std::to_string(leaver));
    t.set_node_active(leaver, active);
    *graph = topo::ConflictGraph::build(t, t.make_links(true, uplink));
    diff.on_graph_rebuilt();
    diff.run_batches(15, rng);
  }
}

TEST(ConverterDifferential, RandomTopologiesMatchMapSetReference) {
  for (std::uint64_t draw = 1000; draw <= 1011; ++draw) {
    SCOPED_TRACE("T(20,3) draw " + std::to_string(draw));
    Rng rng(draw);
    topo::LogDistanceModel model;
    const auto t =
        topo::Topology::random_network(20, 3, 800.0, model, {}, rng);
    check_against_reference(t, /*uplink=*/draw % 2 == 1, rng);
  }
}

TEST(ConverterDifferential, FloorplanTopologiesMatchMapSetReference) {
  const std::pair<std::size_t, std::size_t> shapes[] = {{2, 6}, {4, 4},
                                                        {4, 10}};
  std::uint64_t seed = 40;
  for (const auto& [aps, per_ap] : shapes) {
    SCOPED_TRACE("floor plan " + std::to_string(aps) + "x" +
                 std::to_string(per_ap));
    Rng rng(++seed);
    const auto t = topo::make_floorplan_topology({}, aps, per_ap, {}, rng);
    check_against_reference(t, /*uplink=*/true, rng);
  }
}

// Forced ROP placement (no boundary can trigger the polling AP) must still
// keep every boundary's pollers pairwise shareable. Random T(20,3) draws of
// the Fig 14 shape (downlink links only), converted the way the controller
// does (an idle first batch, then RAND over random demand, padded to the
// batch length, every AP polled), count the boundaries where that fails,
// i.e. where no boundary qualified for a forced AP. Appending forced APs
// to the last boundary failed 21 times here.
TEST(ConverterProperty, ForcedRopPlacementAlwaysFindsAShareableBoundary) {
  const domino::DominoParams batch;
  std::size_t forced = 0;
  std::size_t unshareable = 0;
  for (std::uint64_t draw = 1000; draw < 1040; ++draw) {
    Rng rng(draw);
    topo::LogDistanceModel model;
    const auto t =
        topo::Topology::random_network(20, 3, 800.0, model, {}, rng);
    const auto graph =
        topo::ConflictGraph::build(t, t.make_links(true, false));
    const domino::SignaturePlan signatures(t.num_nodes());
    const domino::ConverterParams params;
    domino::ScheduleConverter conv(t, graph, signatures, params);
    domino::RandScheduler rand(graph);
    std::vector<domino::SlotEntry> prev_last;
    std::uint64_t next_global = 0;
    for (std::uint64_t b = 1; b <= 20; ++b) {
      std::vector<std::size_t> demand(graph.num_links());
      for (auto& d : demand) {
        d = static_cast<std::size_t>(b == 1 ? 0 : rng.uniform_int(0, 6));
      }
      auto strict = rand.schedule_batch(std::move(demand), batch.batch_slots);
      while (strict.size() < batch.batch_slots) strict.emplace_back();
      const auto rs =
          conv.convert(strict, prev_last, t.aps(), b, next_global);
      for (const domino::RelSlot& slot : rs.slots) {
        for (std::size_t i = 0; i < slot.rop_aps.size(); ++i) {
          const topo::NodeId ap = slot.rop_aps[i];
          const bool reachable = std::any_of(
              slot.entries.begin(), slot.entries.end(),
              [&](const domino::SlotEntry& e) {
                const topo::Link& l = graph.link(e.link);
                for (topo::NodeId via : {l.sender, l.receiver}) {
                  if (via == ap || t.rss(via, ap) >=
                                       params.trigger_rss_floor_dbm) {
                    return true;
                  }
                }
                return false;
              });
          if (!reachable) ++forced;
          for (std::size_t j = i + 1; j < slot.rop_aps.size(); ++j) {
            if (!reference::aps_can_share_rop(graph, ap, slot.rop_aps[j])) {
              ++unshareable;
            }
          }
        }
      }
      prev_last = rs.slots.back().entries;
      next_global += rs.slots.size() - 1;
    }
  }
  EXPECT_GT(forced, 0u) << "no draw forced a placement; the check is vacuous";
  EXPECT_EQ(unshareable, 0u);
}

TEST(SignaturePlanTest, AssignsUniqueCodesAndRejectsOverflow) {
  domino::SignaturePlan plan(10);
  std::set<std::size_t> codes;
  for (topo::NodeId n = 0; n < 10; ++n) {
    EXPECT_TRUE(codes.insert(plan.code_of(n)).second);
  }
  EXPECT_THROW((void)plan.code_of(10), std::out_of_range);
  // The longest Gold set holds 1023 nodes; past it the plan refuses.
  EXPECT_NO_THROW(domino::SignaturePlan(1023));
  EXPECT_THROW(domino::SignaturePlan(1024), std::invalid_argument);
}

// ---- Omniscient genie ------------------------------------------------------

TEST(Omniscient, SaturatedPairNearsSlotRate) {
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  b.add_client(ap);
  auto topo = b.build();
  sim::Simulator sim;
  phy::Medium medium(sim, topo);
  const auto links = topo.make_links(true, false);
  auto graph = topo::ConflictGraph::build(topo, links);
  int delivered = 0;
  std::vector<std::unique_ptr<omni::OmniNodeMac>> nodes;
  std::vector<omni::OmniNodeMac*> raw;
  mac::WifiParams omni_params;
  omni_params.queue_capacity = 1000;
  for (const topo::Node& n : topo.nodes()) {
    nodes.push_back(std::make_unique<omni::OmniNodeMac>(
        sim, medium, n.id, omni_params,
        [&](const traffic::Packet&, topo::NodeId, TimeNs) { ++delivered; }));
    raw.push_back(nodes.back().get());
  }
  omni::OmniscientScheduler sched(sim, medium, graph, {}, raw);
  for (int i = 0; i < 300; ++i) {
    traffic::Packet p;
    p.id = static_cast<traffic::PacketId>(i + 1);
    p.flow = 0;
    p.src = ap;
    p.dst = 1;
    nodes[0]->enqueue(p);
  }
  sched.start(0);
  sim.run_until(msec(100));
  // Slot = 384 + 10 us -> ~253 packets/100ms; 300 offered, most delivered.
  EXPECT_GT(delivered, 240);
}

// ---- CENTAUR ---------------------------------------------------------------

TEST(Centaur, BatchBarrierWaitsForSlowestAp) {
  // Figure 13(b): AP3 (here ap_slow) shares the medium with two free APs;
  // the barrier makes everyone wait for it.
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  const auto a2 = b.add_ap();
  b.add_client(a0);  // 3
  b.add_client(a1);  // 4
  b.add_client(a2);  // 5
  // a2 hears both others (defers constantly); a0 and a1 are mutually free.
  b.sense(a0, a2);
  b.sense(a1, a2);
  auto topo = b.build();

  sim::Simulator sim;
  phy::Medium medium(sim, topo);
  std::map<int, int> delivered;
  std::vector<std::unique_ptr<mac::DcfNode>> nodes;
  std::map<topo::NodeId, mac::DcfNode*> aps;
  for (const topo::Node& n : topo.nodes()) {
    nodes.push_back(std::make_unique<mac::DcfNode>(
        sim, medium, n.id, mac::WifiParams{}, Rng(1 + n.id),
        [&](const traffic::Packet& p, topo::NodeId at, TimeNs) {
          if (at == p.dst) ++delivered[p.flow];
        }));
    if (topo.node(n.id).is_ap) aps[n.id] = nodes.back().get();
  }
  const auto dl = topo.make_links(true, false);
  auto graph = topo::ConflictGraph::build(topo, dl);
  wired::Backbone backbone(sim, {}, topo.aps(), Rng(77));
  centaur::CentaurController ctrl(sim, backbone, graph, aps);

  traffic::PacketId next = 0;
  auto offer = [&](topo::NodeId src, topo::NodeId dst, int flow, int n) {
    for (int i = 0; i < n; ++i) {
      traffic::Packet p;
      p.id = ++next;
      p.flow = flow;
      p.src = src;
      p.dst = dst;
      nodes[static_cast<std::size_t>(src)]->enqueue(p);
    }
  };
  offer(0, 3, 0, 200);
  offer(1, 4, 1, 200);
  offer(2, 5, 2, 200);
  ctrl.start(usec(100));
  sim.run_until(msec(150));

  // All three links progress (scheduling works)...
  EXPECT_GT(delivered[0], 20);
  EXPECT_GT(delivered[2], 20);
  // ...but the barrier ties the free APs to the deferring one: their
  // throughput cannot run ahead by more than ~one quota per batch.
  EXPECT_LE(delivered[0] - delivered[2], 40);
  EXPECT_GT(ctrl.batches_dispatched(), 3u);
}

TEST(Centaur, ApsHeldUntilRelease) {
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  b.add_client(ap);
  auto topo = b.build();
  sim::Simulator sim;
  phy::Medium medium(sim, topo);
  int delivered = 0;
  mac::DcfNode apn(sim, medium, ap, {}, Rng(1),
                   [&](const traffic::Packet&, topo::NodeId, TimeNs) {
                     ++delivered;
                   });
  mac::DcfNode cn(sim, medium, 1, {}, Rng(2),
                  [&](const traffic::Packet& p, topo::NodeId at, TimeNs) {
                    if (at == p.dst) ++delivered;
                  });
  const auto dl = topo.make_links(true, false);
  auto graph = topo::ConflictGraph::build(topo, dl);
  wired::Backbone backbone(sim, {}, topo.aps(), Rng(3));
  std::map<topo::NodeId, mac::DcfNode*> aps{{ap, &apn}};
  centaur::CentaurController ctrl(sim, backbone, graph, aps);
  // Not started: the controller's constructor gates the AP.
  traffic::Packet p;
  p.id = 1;
  p.flow = 0;
  p.src = ap;
  p.dst = 1;
  apn.enqueue(p);
  sim.run_until(msec(5));
  EXPECT_EQ(delivered, 0) << "gated AP must hold its queue";
  ctrl.start(sim.now());
  sim.run_until(msec(15));
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace dmn
