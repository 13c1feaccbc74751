#pragma once
// The auditor's mutant switch, apart from audit.h so the layers that carry a
// defect site (phy, domino, api) can name it without depending on the
// auditor: each such class takes one set_mutation(audit::Mutation) and
// compares against the enum where its defect would act.

namespace dmn::audit {

/// Deliberately broken layer variants for the auditor self-test. kNone in
/// every real experiment; tests/audit_test.cpp runs one mutant per value
/// and asserts the matching invariant trips.
enum class Mutation {
  kNone = 0,
  /// phy::Medium removes only half of a transmission's power row at TX end,
  /// corrupting the incremental interference sums.
  kMediumLeakPower,
  /// ScheduleConverter duplicates a trigger past max_inbound.
  kConverterExtraTrigger,
  /// ScheduleConverter appends a fake entry that conflicts with its slot.
  kConverterConflictingEntry,
  /// DominoNodeBase treats every triggering burst as carrying its code.
  kMacTriggerWithoutSignature,
  /// DominoClientMac delivers a decoded downlink packet twice.
  kMacDoubleDelivery,
  /// DominoClientMac reports queue length + 1 in ROP responses.
  kRopReportOffset,
  /// Lifecycle: a departed client is neither detached from its AP nor
  /// RSS-isolated — its radio keeps running and downlink packets keep
  /// arriving ("ghost radio").
  kLifecycleGhostRadio,
  /// Lifecycle: a roam updates the topology's association but skips MAC
  /// re-registration and the conflict-graph rebuild, so the controller
  /// keeps scheduling the stale link.
  kLifecycleStaleRoam,
  /// DominoClientMac answers every multi-symbol poll in symbol 0 regardless
  /// of its assigned symbol, colliding with the symbol-0 group's
  /// subchannels.
  kRopCrossSymbolCollision,
  /// DominoController drops the highest-id client from every (adaptive)
  /// poll roster it plans, so that client is never polled again.
  kRopStarvedClient,
  /// DominoController spreads each (adaptive) roster one-client-per-symbol,
  /// blowing the round past the max_poll_symbols airtime budget.
  kRopAirtimeOverBudget,
};

}  // namespace dmn::audit
