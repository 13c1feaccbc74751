#include "domino/converter.h"

#include <algorithm>
#include <stdexcept>

namespace dmn::domino {

ScheduleConverter::ScheduleConverter(const topo::Topology& topo,
                                     const topo::ConflictGraph& graph,
                                     const SignaturePlan& signatures,
                                     const ConverterParams& params)
    : topo_(topo),
      graph_(graph),
      signatures_(signatures),
      params_(params),
      aps_(topo.aps()),
      plan_of_(topo.num_nodes(), kNotAp),
      marks_(topo.num_nodes()) {
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    plan_of_[static_cast<std::size_t>(aps_[i])] = i;
  }
}

void ScheduleConverter::refresh_graph_tables() {
  if (graph_generation_ == graph_.generation()) return;
  graph_generation_ = graph_.generation();
  const std::size_t links = graph_.num_links();
  all_links_.resize(links);
  for (std::size_t i = 0; i < links; ++i) {
    all_links_[i] = static_cast<topo::LinkId>(i);
  }
  // Two nodes may poll together iff no link at one conflicts with a link at
  // the other: clear the pair for every endpoint pair of a conflicting
  // link pair (a link conflicts with itself).
  const std::size_t n = topo_.num_nodes();
  share_rop_.assign(n * n, 1);
  for (std::size_t i = 0; i < links; ++i) {
    const topo::Link& a = graph_.link(static_cast<topo::LinkId>(i));
    for (std::size_t j = 0; j < links; ++j) {
      if (!graph_.conflicts(static_cast<topo::LinkId>(i),
                            static_cast<topo::LinkId>(j))) {
        continue;
      }
      const topo::Link& b = graph_.link(static_cast<topo::LinkId>(j));
      for (const topo::NodeId x : {a.sender, a.receiver}) {
        for (const topo::NodeId y : {b.sender, b.receiver}) {
          share_rop_[static_cast<std::size_t>(x) * n +
                     static_cast<std::size_t>(y)] = 0;
        }
      }
    }
  }
}

ScheduleConverter::NodeMark& ScheduleConverter::mark(topo::NodeId n) {
  NodeMark& m = marks_[static_cast<std::size_t>(n)];
  if (m.stamp != mark_stamp_) m = NodeMark{mark_stamp_};
  return m;
}

bool ScheduleConverter::can_trigger(topo::NodeId via,
                                    topo::NodeId target) const {
  if (via == target) return true;
  return topo_.rss(via, target) >= params_.trigger_rss_floor_dbm;
}

topo::NodeId ScheduleConverter::pick_via(topo::NodeId target,
                                         topo::NodeId exclude) {
  // Self-continuation: free, APs only (they hold the schedule).
  if (topo_.node(target).is_ap && (mark(target).flags & kMarkVia) != 0 &&
      target != exclude) {
    return target;
  }
  topo::NodeId best = topo::kNoNode;
  double best_rss = -1e9;
  for (const topo::NodeId v : vias_) {
    if (v == target) continue;  // clients cannot self-time
    if (v == exclude) continue;
    const NodeMark& m = mark(v);
    if ((m.flags & kMarkMustListen) != 0) continue;
    if (m.outbound >= params_.max_outbound) continue;
    const double rss = topo_.rss(v, target);
    if (rss < params_.trigger_rss_floor_dbm) continue;  // cannot trigger
    if (rss > best_rss) {
      best_rss = rss;
      best = v;
    }
  }
  return best;
}

bool ScheduleConverter::assign_one(RelSlot& from, Target& tgt, bool backup) {
  const topo::Node& node = topo_.node(tgt.node);
  const bool is_client = !node.is_ap;
  NodeMark& m = mark(tgt.node);
  const bool continuation = (m.flags & kMarkContinuation) != 0;
  // Continuation first: free and robust for clients staying active.
  if (is_client && continuation && !backup) {
    from.triggers.push_back(Trigger{node.ap, tgt.node, /*continuation=*/true});
    ++m.inbound;
    return true;
  }
  // A (fake) client already bursting as a via cannot also listen.
  if (is_client && (m.flags & kMarkUsedAsVia) != 0) return false;
  // Continuation clients do not listen; they cannot take RF backups.
  if (is_client && continuation) return false;
  const topo::NodeId via =
      pick_via(tgt.node, backup ? tgt.first_via : topo::kNoNode);
  if (via == topo::kNoNode) return false;
  if (!backup) tgt.first_via = via;
  from.triggers.push_back(Trigger{via, tgt.node});
  ++m.inbound;
  if (via != tgt.node) {
    NodeMark& v = mark(via);
    ++v.outbound;
    if (!topo_.node(via).is_ap) v.flags |= kMarkUsedAsVia;
  }
  return true;
}

void ScheduleConverter::assign_triggers(RelSlot& from, RelSlot& to) {
  if (from.entries.empty()) {
    // Very first batch: no preceding slot exists, so nothing can trigger —
    // the APs individually self-start this slot from their local clocks
    // (§3.3 batch connection). Keep every entry, assign no triggers. Polls
    // forced onto this boundary stay: the polling AP self-starts the poll
    // from its anchored lattice, exactly like an untriggerable real entry
    // (dropping them here silently lost a demanded poll each time the
    // forced ROP placement landed on an empty overlap slot).
    return;
  }
  ++mark_stamp_;  // every node mark starts clean
  // Targets: senders of `to`'s entries, plus APs polling right after
  // `from`. Clients must receive an explicit signature; APs self-continue
  // when they are an endpoint of `from`. Priority order: real entries,
  // then polling APs, then fake entries — a fake client target may be
  // *sacrificed* (used as a via instead of listening for its own trigger)
  // when it is the only node that can reach a higher-priority target.
  targets_.clear();
  for (std::size_t i = 0; i < to.entries.size(); ++i) {
    if (to.entries[i].fake) continue;
    const topo::Link& l = graph_.link(to.entries[i].link);
    targets_.push_back(Target{l.sender, true, false, i});
  }
  for (topo::NodeId ap : from.rop_aps) {
    targets_.push_back(Target{ap, false, false, 0});
  }
  for (std::size_t i = 0; i < to.entries.size(); ++i) {
    if (!to.entries[i].fake) continue;
    const topo::Link& l = graph_.link(to.entries[i].link);
    targets_.push_back(Target{l.sender, true, true, i});
  }

  // Vias: the endpoints of `from`, in entry order (the best-RSS scan keeps
  // the first of equal candidates). Instructed continuation: a client
  // target that is already an endpoint of `from` gets its "go again"
  // in-band from its AP (data frame or ACK), costing nothing and requiring
  // no listening.
  vias_.clear();
  for (const SlotEntry& e : from.entries) {
    const topo::Link& l = graph_.link(e.link);
    vias_.push_back(l.sender);
    vias_.push_back(l.receiver);
    mark(l.sender).flags |= kMarkVia;
    mark(l.receiver).flags |= kMarkVia;
    const topo::NodeId client =
        topo_.node(l.sender).is_ap ? l.receiver : l.sender;
    mark(client).flags |= kMarkContinuation;
  }

  // Clients that must *listen* at this boundary — next-slot senders of
  // REAL entries without a continuation path cannot broadcast signatures
  // at the same instant (half-duplex would make them deaf to their own
  // trigger).
  for (const Target& t : targets_) {
    NodeMark& m = mark(t.node);
    if (!t.fake && !topo_.node(t.node).is_ap &&
        (m.flags & kMarkContinuation) == 0) {
      m.flags |= kMarkMustListen;
    }
  }

  // Pass 1 in priority order, then pass 2 (backup trigger) where budgets
  // allow.
  for (Target& t : targets_) t.reachable = assign_one(from, t, false);
  for (Target& t : targets_) {
    if (!t.reachable) continue;
    if (mark(t.node).inbound >= params_.max_inbound) continue;
    assign_one(from, t, true);
  }

  // Fake entries whose sender was sacrificed as a via (or is otherwise
  // unreachable) are dropped — they are optional filler. Real entries and
  // polling APs are KEPT even when untriggerable: the AP holds the
  // schedule and executes the slot from its anchored slot lattice (the
  // generalized "APs individually start executing" rule); a downlink AP
  // with no RF trigger path would otherwise starve forever. Untriggered
  // uplink entries rely on the AP-side kick.
  kept_.clear();
  for (const Target& t : targets_) {
    if (!t.is_entry) continue;
    if (t.reachable || !t.fake) {
      kept_.push_back(to.entries[t.entry_index]);
      if (!t.reachable) ++dropped_;  // stat: executed on lattice timing
    }
  }
  to.entries.swap(kept_);
}

RelativeSchedule ScheduleConverter::convert(
    const std::vector<std::vector<topo::LinkId>>& strict,
    const std::vector<SlotEntry>& prev_last,
    const std::vector<topo::NodeId>& rop_aps_needed, std::uint64_t batch_id,
    std::uint64_t first_global_index,
    const std::vector<std::uint32_t>& rop_symbols_needed) {
  RelativeSchedule rs;
  rs.batch_id = batch_id;

  // Overlap slot (batch connection).
  RelSlot overlap;
  overlap.global_index = first_global_index;
  overlap.entries = prev_last;
  rs.slots.push_back(std::move(overlap));

  refresh_graph_tables();

  // New slots with fake-link insertion.
  for (std::size_t s = 0; s < strict.size(); ++s) {
    RelSlot slot;
    slot.global_index = first_global_index + 1 + s;
    std::vector<topo::LinkId> links = strict[s];
    const std::size_t real_count = links.size();
    if (params_.insert_fake_links) {
      graph_.extend_to_maximal(links, all_links_);
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      slot.entries.push_back(SlotEntry{links[i], i >= real_count});
    }
    rs.slots.push_back(std::move(slot));
  }

  // Greedy ROP insertion (before triggers so polling APs get triggers too).
  // Boundary 0 is the overlap slot — it may already be executing when this
  // batch's plan reaches the APs, so polls there could be silently lost;
  // start at boundary 1.
  for (std::size_t a = 0; a < rop_aps_needed.size(); ++a) {
    const topo::NodeId ap = rop_aps_needed[a];
    const std::uint32_t symbols =
        a < rop_symbols_needed.size() ? std::max<std::uint32_t>(
                                            rop_symbols_needed[a], 1)
                                      : 1;
    if (rs.slots.size() < 2) continue;
    // A boundary qualifies when every AP already polling there (if any)
    // can share it with this one.
    const auto shareable = [&](const RelSlot& si) {
      return std::all_of(
          si.rop_aps.begin(), si.rop_aps.end(),
          [&](topo::NodeId other) { return aps_can_share_rop(ap, other); });
    };
    std::size_t at = 0;  // boundary 0 is never searched: 0 = not found
    for (std::size_t i = 1; i + 1 < rs.slots.size() && at == 0; ++i) {
      const RelSlot& si = rs.slots[i];
      // Can si trigger this AP?
      const bool reachable = std::any_of(
          si.entries.begin(), si.entries.end(), [&](const SlotEntry& e) {
            const topo::Link& l = graph_.link(e.link);
            return can_trigger(l.sender, ap) || can_trigger(l.receiver, ap);
          });
      if (reachable && shareable(si)) at = i;
    }
    if (at == 0) {
      // No boundary can trigger this AP: it self-starts the poll from its
      // schedule anchor, so only shareability matters. Take the latest
      // qualifying boundary, else the last one.
      at = rs.slots.size() - 2;
      for (std::size_t i = at; i >= 1; --i) {
        if (shareable(rs.slots[i])) {
          at = i;
          break;
        }
      }
    }
    RelSlot& chosen = rs.slots[at];
    chosen.rop_after = true;
    chosen.rop_aps.push_back(ap);
    chosen.rop_symbols = std::max(chosen.rop_symbols, symbols);
  }

  // Trigger assignment across consecutive slot pairs.
  for (std::size_t i = 0; i + 1 < rs.slots.size(); ++i) {
    assign_triggers(rs.slots[i], rs.slots[i + 1]);
  }

  // Auditor self-test defects (src/audit): corrupt the otherwise-correct
  // output the way a converter bug would, so the auditor must flag it.
  if (test_defect_ == TestDefect::kExtraTrigger) {
    for (RelSlot& s : rs.slots) {
      auto it = std::find_if(
          s.triggers.begin(), s.triggers.end(),
          [](const Trigger& t) { return !t.continuation; });
      if (it == s.triggers.end()) continue;
      const Trigger dup = *it;
      for (int i = 0; i <= params_.max_inbound; ++i) s.triggers.push_back(dup);
      break;
    }
  } else if (test_defect_ == TestDefect::kConflictingEntry) {
    for (std::size_t i = 1; i < rs.slots.size(); ++i) {
      RelSlot& s = rs.slots[i];
      if (s.entries.empty()) continue;
      const topo::LinkId a = s.entries.front().link;
      topo::LinkId bad = a;  // fallback: a duplicate entry is also invalid
      for (topo::LinkId b : all_links_) {
        if (b != a && graph_.data_conflicts(a, b)) {
          bad = b;
          break;
        }
      }
      s.entries.push_back(SlotEntry{bad, /*fake=*/true});
      break;
    }
  }
  return rs;
}

std::vector<ApSchedule> ScheduleConverter::make_ap_plans(
    const RelativeSchedule& rs) const {
  // One plan per AP in ascending id order; `row_slot` remembers which slot
  // an AP's last row belongs to, so each slot opens at most one row per AP.
  std::vector<ApSchedule> plans(aps_.size());
  std::vector<std::size_t> row_slot(aps_.size(), rs.slots.size());
  const std::uint64_t first_new =
      rs.slots.size() > 1 ? rs.slots[1].global_index
                          : rs.slots.front().global_index;
  std::vector<ApSchedule::RopBoundary> rop_boundaries;
  for (const RelSlot& slot : rs.slots) {
    if (slot.rop_after) {
      rop_boundaries.push_back({slot.global_index, slot.rop_symbols});
    }
  }
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    plans[i].ap = aps_[i];
    plans[i].batch_id = rs.batch_id;
    plans[i].batch_first_slot = first_new;
    plans[i].rop_boundaries = rop_boundaries;
  }

  for (std::size_t s = 0; s < rs.slots.size(); ++s) {
    const RelSlot& slot = rs.slots[s];
    // Start a plan row for any AP that acts in this slot.
    auto row = [&](topo::NodeId ap) -> ApSlotPlan& {
      const std::size_t i = plan_of_.at(static_cast<std::size_t>(ap));
      if (i == kNotAp) {
        throw std::invalid_argument("make_ap_plans: row for a non-AP node");
      }
      std::vector<ApSlotPlan>& rows = plans[i].slots;
      if (row_slot[i] != s) {
        row_slot[i] = s;
        rows.emplace_back().global_index = slot.global_index;
      }
      return rows.back();
    };

    for (const SlotEntry& e : slot.entries) {
      const topo::Link& l = graph_.link(e.link);
      const bool down = topo_.node(l.sender).is_ap;
      const topo::NodeId ap = down ? l.sender : l.receiver;
      ApSlotPlan& r = row(ap);
      r.role = down ? ApSlotPlan::Role::kTxData : ApSlotPlan::Role::kRxData;
      r.peer = down ? l.receiver : l.sender;
      r.fake = e.fake;
    }
    for (const Trigger& t : slot.triggers) {
      if (t.continuation) {
        // In-band "go again" for the via-AP's client.
        row(t.via).client_continue = true;
        continue;
      }
      if (t.via == t.target) continue;  // self-continuation, no airtime
      const topo::Node& via_node = topo_.node(t.via);
      const std::size_t code = signatures_.code_of(t.target);
      if (via_node.is_ap) {
        row(t.via).my_codes.push_back(code);
      } else {
        // Client via: the instruction rides its AP's data frame or ACK.
        row(via_node.ap).client_codes.push_back(code);
      }
    }
    if (slot.rop_after) {
      for (const SlotEntry& e : slot.entries) {
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
  }
  return plans;
}

}  // namespace dmn::domino
