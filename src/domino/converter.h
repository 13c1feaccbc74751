#pragma once
// The Schedule Converter (§3.3): turns a strict schedule produced by an
// arbitrary scheduler into a relative schedule.
//
//  1. Fake-link insertion: every slot is extended to a maximal independent
//     set in the conflict graph; inserted links are marked fake (they send
//     a header-only packet when the sender has no data) so every node keeps
//     hearing triggers.
//  2. ROP-slot insertion (greedy): each AP that must be polled gets an ROP
//     slot at the first boundary whose preceding slot can trigger it;
//     non-conflicting APs share an ROP slot; at most one ROP slot per
//     boundary.
//  3. Trigger assignment: for every sender in slot i+1 (and every AP
//     polling at boundary i), pick up to `max_inbound` (2) triggering
//     endpoints from slot i, best-RSS first, honoring the per-node
//     `max_outbound` (4) signature budget. A node active in consecutive
//     slots self-continues at zero cost (APs know their schedule; clients
//     never self-continue because they don't).
//  4. Batch connection: the previous batch's last slot is carried as
//     slots[0] so its endpoints trigger this batch's first new slot.
//
// Targets with no reachable trigger are dropped from the slot ("the
// scheduler will reschedule such links").

#include <cstdint>
#include <vector>

#include "audit/mutation.h"
#include "domino/relative_schedule.h"
#include "domino/signature_plan.h"
#include "topo/conflict_graph.h"
#include "topo/topology.h"

namespace dmn::domino {

struct ConverterParams {
  int max_inbound = 2;   // triggers per target (robustness vs reliability)
  int max_outbound = 4;  // signatures one node may combine (Figure 9)
  /// A signature from `via` reaches `target` when rss >= this floor
  /// (correlation gain makes signatures detectable at carrier-sense level).
  static constexpr double trigger_rss_floor_dbm = -82.0;
  bool insert_fake_links = true;  // ablation knob
};

class ScheduleConverter {
 public:
  ScheduleConverter(const topo::Topology& topo,
                    const topo::ConflictGraph& graph,
                    const SignaturePlan& signatures,
                    const ConverterParams& params = {});

  /// Converts one strict batch. `prev_last` is the retained last slot of
  /// the previous batch (empty entries for the very first batch).
  /// `rop_aps_needed` lists APs to poll within this batch;
  /// `rop_symbols_needed` (parallel to it, or empty for all-1) how many
  /// poll symbols each AP's round spans — a boundary shared by several APs
  /// stretches the lattice by the widest round placed on it.
  /// `first_global_index` is the global index of the overlap slot.
  RelativeSchedule convert(
      const std::vector<std::vector<topo::LinkId>>& strict,
      const std::vector<SlotEntry>& prev_last,
      const std::vector<topo::NodeId>& rop_aps_needed,
      std::uint64_t batch_id, std::uint64_t first_global_index,
      const std::vector<std::uint32_t>& rop_symbols_needed = {});

  /// Splits a relative schedule into per-AP plans for distribution.
  std::vector<ApSchedule> make_ap_plans(const RelativeSchedule& rs) const;

  /// Whether nodes `a` and `b` may poll in one ROP slot under the graph as
  /// it is now: no link at one conflicts with a link at the other.
  bool aps_can_share_rop(topo::NodeId a, topo::NodeId b) {
    refresh_graph_tables();
    return share_rop_[static_cast<std::size_t>(a) * topo_.num_nodes() +
                      static_cast<std::size_t>(b)] != 0;
  }

  /// Count of entries dropped because no trigger could reach them.
  std::uint64_t untriggerable_drops() const { return dropped_; }

  /// Auditor self-test switch (src/audit): under kConverterExtraTrigger or
  /// kConverterConflictingEntry, convert() injects that defect into its
  /// otherwise-correct output so the auditor must catch it.
  void set_mutation(audit::Mutation m) { mutation_ = m; }

 private:
  /// A node to trigger at one boundary (see assign_triggers).
  struct Target {
    topo::NodeId node;
    bool is_entry;            // false for polling APs
    bool fake;
    std::size_t entry_index;  // into to.entries when is_entry
    bool reachable = false;   // pass 1 found a trigger
    /// The via pass 1 picked by RSS; the pass-2 backup must differ.
    topo::NodeId first_via = topo::kNoNode;
  };

  /// Per-node state of one assign_triggers call. An entry is live only
  /// while its stamp equals the call's, so each call starts from clean
  /// state without clearing the table.
  struct NodeMark {
    std::uint64_t stamp = 0;
    std::uint8_t flags = 0;  // kMark* bits
    int inbound = 0;
    int outbound = 0;
  };
  static constexpr std::uint8_t kMarkVia = 1;           // endpoint of `from`
  static constexpr std::uint8_t kMarkContinuation = 2;  // in-band "go again"
  static constexpr std::uint8_t kMarkMustListen = 4;    // deaf at boundary
  static constexpr std::uint8_t kMarkUsedAsVia = 8;     // client bursting

  /// Rebuilds the tables derived from the conflict graph when its
  /// generation moved (first use, or an in-place rebuild after churn).
  void refresh_graph_tables();
  NodeMark& mark(topo::NodeId n);
  bool can_trigger(topo::NodeId via, topo::NodeId target) const;
  /// Gives `tgt` a trigger from `from`: its first (pass 1) or, when
  /// `backup`, a second one from a different via (pass 2). False if none.
  bool assign_one(RelSlot& from, Target& tgt, bool backup);
  /// Best-RSS via for `target` among the vias, never `exclude`.
  topo::NodeId pick_via(topo::NodeId target, topo::NodeId exclude);

  void assign_triggers(RelSlot& from, RelSlot& to);

  const topo::Topology& topo_;
  const topo::ConflictGraph& graph_;
  const SignaturePlan& signatures_;
  ConverterParams params_;
  std::uint64_t dropped_ = 0;
  audit::Mutation mutation_ = audit::Mutation::kNone;

  // ---- tables of one graph build (refresh_graph_tables) ------------------
  std::uint64_t graph_generation_ = 0;
  std::vector<topo::LinkId> all_links_;
  /// Node x node, row-major: 1 when no link at the row node conflicts with
  /// a link at the column node (the two may poll in one ROP slot).
  std::vector<std::uint8_t> share_rop_;

  // ---- tables of the topology's fixed node set ---------------------------
  static constexpr std::size_t kNotAp = static_cast<std::size_t>(-1);
  std::vector<topo::NodeId> aps_;     // Topology::aps(), ascending
  std::vector<std::size_t> plan_of_;  // node -> index into aps_, or kNotAp

  // ---- assign_triggers scratch, reused across calls ----------------------
  std::vector<NodeMark> marks_;
  std::uint64_t mark_stamp_ = 0;
  std::vector<topo::NodeId> vias_;
  std::vector<Target> targets_;
  std::vector<SlotEntry> kept_;
};

}  // namespace dmn::domino
