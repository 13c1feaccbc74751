#pragma once
// Relative-schedule data model: the converter's output and the per-AP plans
// the controller distributes over the wired backbone.

#include <cstdint>
#include <vector>

#include "phy/frame.h"
#include "topo/node.h"
#include "util/time.h"

namespace dmn::domino {

/// One link scheduled in a slot.
struct SlotEntry {
  topo::LinkId link = topo::kNoLink;
  /// Inserted by fake-link insertion (§3.3). A fake entry still carries real
  /// data when the sender's queue has some — fake marks schedule intent,
  /// not payload.
  bool fake = false;
};

/// "`via` broadcasts `target`'s signature at the end of this slot."
/// via is an endpoint (sender or receiver) of a link in this slot; target
/// is the sender of a link in the NEXT slot or an AP polling right after
/// this slot. via == target encodes self-continuation (a node active in
/// consecutive slots times itself; no airtime).
struct Trigger {
  topo::NodeId via = topo::kNoNode;
  topo::NodeId target = topo::kNoNode;
  /// Instructed continuation: `target` is a client active in this slot
  /// whose AP (`via`) tells it in-band to transmit again next slot. No
  /// signature airtime, no listening required.
  bool continuation = false;
};

struct RelSlot {
  std::uint64_t global_index = 0;  // monotone across batches
  std::vector<SlotEntry> entries;
  std::vector<Trigger> triggers;   // emitted at this slot's signature phase
  bool rop_after = false;          // an ROP slot follows this slot
  std::vector<topo::NodeId> rop_aps;  // APs polling in that ROP slot
  /// Poll symbols the ROP slot spans: the max over its polling APs' rounds
  /// (they poll in parallel, so the lattice stretches by the widest). 1 for
  /// the paper's single-symbol ROP.
  std::uint32_t rop_symbols = 1;
};

struct RelativeSchedule {
  std::uint64_t batch_id = 0;
  /// slots[0] is the retained last slot of the previous batch (overlap
  /// slot): it re-ships only the triggers pointing into this batch. For the
  /// first batch it is a synthetic empty slot and slots[1] self-starts.
  std::vector<RelSlot> slots;
};

/// What one AP must do in one global slot — the unit the controller ships.
struct ApSlotPlan {
  std::uint64_t global_index = 0;

  enum class Role {
    kNone,    // not an endpoint this slot (may still need to poll after it)
    kTxData,  // downlink: AP transmits to `peer`
    kRxData,  // uplink: AP expects data from `peer`
  };
  Role role = Role::kNone;
  topo::NodeId peer = topo::kNoNode;
  bool fake = false;  // the entry was a fake-link insertion

  /// Codes this AP broadcasts at the slot's signature phase.
  phy::SignatureCodes my_codes;
  /// Codes its client must broadcast (embedded into the data frame or ACK,
  /// Figure 8).
  phy::SignatureCodes client_codes;
  /// In-band "transmit again next slot" flag for the peer client.
  bool client_continue = false;

  bool rop_after = false;     // signature phase ends with the ROP signature
  bool polls_in_rop = false;  // this AP polls in the following ROP slot
  /// Symbols of the ROP slot after this slot (meaningful when rop_after);
  /// every acting AP announces it in-band so clients stretch the lattice by
  /// the same amount.
  std::uint32_t rop_symbols = 1;
  /// polls_in_rop, adaptive mode: the roster the AP broadcasts in its kPoll
  /// (stamped by the controller after conversion). Empty in the static
  /// modes — clients then answer on their slots.
  std::vector<phy::PollAssignment> poll_roster;
};

struct ApSchedule {
  topo::NodeId ap = topo::kNoNode;
  std::uint64_t batch_id = 0;
  /// Global index of the batch's first NEW slot (after the overlap slot);
  /// APs use it to anchor strict self-starts at the very first batch.
  std::uint64_t batch_first_slot = 0;
  /// Controller time the batch was planned at (plan-age telemetry).
  TimeNs planned_at = 0;
  /// One ROP boundary: the global slot index it follows and how many poll
  /// symbols it spans (the lattice stretch is rop_duration(symbols)).
  struct RopBoundary {
    std::uint64_t slot = 0;
    std::uint32_t symbols = 1;
    bool operator==(const RopBoundary&) const = default;
  };
  /// Slots followed by an ROP slot — shipped to EVERY AP so all nodes
  /// project the same slot lattice across ROP boundaries.
  std::vector<RopBoundary> rop_boundaries;
  std::vector<ApSlotPlan> slots;
};

}  // namespace dmn::domino
