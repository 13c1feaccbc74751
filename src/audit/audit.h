#pragma once
// Online invariant auditor: continuously re-verifies the semantic claims the
// simulator's layers rely on, while the simulation runs.
//
// Golden tests pin today's outputs; they cannot say the outputs are *right*.
// The auditor can: it hooks the existing layers through narrow observer
// seams (phy::MediumObserver, domino::ScheduleObserver, domino::DominoTrace,
// and the facade's traffic hooks) and re-checks, per event:
//
//   medium     incremental interference accounting == from-scratch per-node
//              power recompute over the active transmissions; carrier-sense
//              cache consistent with its defining predicate;
//   converter  every strict slot is an independent set; the relative
//              schedule's real entries map back exactly to their strict
//              slot; trigger in-degree <= max_inbound / out-degree <=
//              max_outbound and via/target/rss-floor validity; fake entries
//              only fill uncovered capacity under the data-only conflict
//              rule; batches connect through the shared overlap slot;
//   domino MAC a client transmission fires only after its trigger signature
//              was actually on the air (or an in-band continuation
//              authorized it); per-node slot tags advance strictly
//              monotonically;
//   ROP        one poll's responses occupy pairwise-distinct subchannels;
//              a response's queue report equals the client's queue length
//              at poll time modulo 6-bit saturation; responders belong to
//              the polling AP;
//   traffic    per-flow conservation: a delivered packet was offered and
//              accepted, never rejected at enqueue, and never delivered
//              twice.
//
// The auditor is STRICTLY passive: it consumes no RNG, schedules no events
// and never mutates simulation state, so audit-on results are byte-identical
// to audit-off results (tests/audit_test.cpp asserts this through
// api::serialize_result). When off it costs one null pointer check per seam.
//
// Enabling: set ExperimentConfig::audit.mode explicitly, or export
// DMN_AUDIT=1 (throw on first violation) / DMN_AUDIT=record (accumulate
// into the AuditReport surfaced on ExperimentResult::audit). The env knob
// lets every existing bench and test run audited without code changes.
//
// Trusting the auditor: audit::Mutation (audit/mutation.h) enumerates
// deliberately broken variants of the audited layers (a medium that leaks
// power on TX end, a converter that over-assigns triggers, a client that
// misreports its queue, ...); each layer takes it through one test-only
// set_mutation switch. tests/audit_test.cpp compiles each
// mutant and asserts the corresponding invariant trips — proving the
// auditor catches the bugs it claims to. docs/TESTING.md describes how to
// add an invariant together with its mutant.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/mutation.h"
#include "domino/controller.h"
#include "mac/mac_common.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "topo/topology.h"
#include "traffic/packet.h"
#include "traffic/queue.h"

namespace dmn::audit {

enum class AuditMode {
  /// Consult the DMN_AUDIT environment variable ("" / unset = off,
  /// "record" = record, anything else truthy = throw).
  kInherit,
  kOff,
  /// Accumulate violations into the AuditReport; never throw.
  kRecord,
  /// Throw AuditViolation at the first violation (loud CI / bench mode).
  kThrow,
};

struct AuditConfig {
  AuditMode mode = AuditMode::kInherit;
  /// Test-only: compile one deliberate defect into the stack
  /// (audit/mutation.h).
  Mutation mutation = Mutation::kNone;
};

/// The effective mode: an explicit config mode wins; kInherit resolves the
/// DMN_AUDIT environment variable.
AuditMode resolve_mode(const AuditConfig& cfg);

/// One observed invariant violation, with simulation-time context.
struct AuditRecord {
  std::string invariant;  // dotted name, e.g. "converter.trigger-in-degree"
  std::string detail;
  TimeNs sim_time = 0;
};

/// Violation summary surfaced on ExperimentResult::audit. Stored records
/// are capped; counters are exact.
struct AuditReport {
  std::uint64_t checks_run = 0;
  std::uint64_t total_violations = 0;
  std::map<std::string, std::uint64_t> violations_by_invariant;
  /// First kMaxStored violations, in occurrence order.
  std::vector<AuditRecord> records;
  static constexpr std::size_t kMaxStored = 64;

  bool violation_free() const { return total_violations == 0; }
  std::string summary() const;
};

/// Merges per-queue reports (a partitioned run builds one auditor per event
/// queue so every invariant is still checked, race-free, on its own queue)
/// into one summary: counters sum, stored records concatenate in queue
/// order up to kMaxStored.
AuditReport merge_reports(
    const std::vector<std::shared_ptr<const AuditReport>>& parts);

/// Thrown (in kThrow mode) at the first violated invariant.
class AuditViolation : public std::runtime_error {
 public:
  AuditViolation(const std::string& invariant, const std::string& detail,
                 TimeNs sim_time);

  std::string invariant;
  TimeNs sim_time = 0;
};

/// Scheme-independent settings the facade distills from ExperimentConfig
/// (the auditor must not depend on the api layer).
struct AuditSettings {
  /// The converter's limits (ExperimentConfig::converter).
  domino::ConverterParams converter;
  /// ROP 6-bit saturation ceiling (RopParams::max_queue_report()).
  unsigned rop_max_report = 63;
  /// Fault injection forges trigger false positives: the trigger-provenance
  /// invariant cannot hold and is skipped.
  bool signature_forging = false;
  /// Poll symbols one ROP round may span (RopParams::symbol_cap()). A
  /// kPoll announcing more symbols, or a roster assignment at or past the
  /// announced count, violates rop.airtime-over-budget.
  unsigned poll_symbol_budget = 1;
  /// Adaptive polling legitimately reassigns subchannels round to round, so
  /// the per-client subchannel-constancy invariant is skipped (collisions
  /// are still caught per poll symbol).
  bool adaptive_polling = false;
  /// Consecutive rostered polls an active associated client may miss before
  /// rop.starved-client trips (adaptive_max_interval plus grace). 0 skips
  /// the check (the static modes: kPoll carries no roster).
  unsigned starvation_rounds = 0;
};

class SimAuditor final : public phy::MediumObserver,
                         public domino::ScheduleObserver,
                         public traffic::OfferObserver {
 public:
  SimAuditor(sim::Simulator& sim, const topo::Topology& topo, AuditMode mode,
             AuditSettings settings);

  // ---- wiring (facade / stacks) -------------------------------------------
  void attach_medium(phy::Medium& medium);
  void attach_graph(const topo::ConflictGraph& graph) { graph_ = &graph; }
  /// The facade's NodeId-indexed MAC table (must outlive the auditor).
  void attach_macs(const std::vector<mac::MacEntity*>& macs) {
    macs_ = &macs;
  }

  // ---- phy::MediumObserver ------------------------------------------------
  void on_medium_tx(const phy::Frame& frame, TimeNs start,
                    TimeNs end) override;
  void on_medium_accounting() override;

  // ---- domino::ScheduleObserver -------------------------------------------
  void on_batch_planned(
      const std::vector<std::vector<topo::LinkId>>& strict,
      const domino::RelativeSchedule& rs,
      const std::vector<domino::SlotEntry>& prev_last,
      const std::vector<topo::NodeId>& rop_aps_needed) override;

  // ---- DominoTrace hooks (chained by the facade) --------------------------
  void on_trigger(std::uint64_t tag, topo::NodeId node, TimeNs t);
  void on_data_tx(std::uint64_t slot, topo::NodeId node, topo::NodeId peer,
                  TimeNs t, bool fake, bool uplink);
  void on_poll(std::uint64_t slot, topo::NodeId ap, TimeNs t);
  /// In-band continuation authorizing `node` to transmit in `slot`.
  void on_continuation(std::uint64_t slot, topo::NodeId node, TimeNs t);

  // ---- traffic hooks (MAC queues, the facade's TCP path) -------------------
  /// An application packet was offered to its source MAC.
  void on_offered(const traffic::Packet& p) override;
  /// The source MAC rejected the offered packet (queue full).
  void on_offer_rejected(traffic::PacketId id, traffic::FlowId flow) override;
  /// A data packet was delivered at its MAC destination. TCP ACKs are not
  /// routed here (they are reverse-path control, not generated app data).
  void on_delivered(const traffic::Packet& p, topo::NodeId at, TimeNs now);

  // ---- lifecycle hooks (facade driver) ------------------------------------
  /// A scripted join (active=true) or leave (active=false) took effect. The
  /// driver's script is ground truth: delivery to a client after its leave
  /// (plus a short in-flight grace) violates "lifecycle.delivery-to-
  /// departed".
  void on_lifecycle(topo::NodeId node, bool active, TimeNs now);
  /// A client joined or re-associated: per-client ROP subchannel state is
  /// reset (its new slot may legitimately sit on a different subchannel).
  void on_client_reassociated(topo::NodeId client);
  /// The schedule context was invalidated (graph rebuild): the next batch
  /// need not connect to the previous one through the overlap slot.
  void on_schedule_reset();

  /// End-of-run checks; call once after the simulation completed.
  void finalize();

  std::shared_ptr<const AuditReport> report() const { return report_; }

 private:
  void violate(const std::string& invariant, const std::string& detail);
  void check(bool ok, const char* invariant, const std::string& detail);

  void check_medium_sums();
  void check_relative_slot(const domino::RelSlot& slot,
                           const std::vector<topo::LinkId>& strict_slot,
                           bool has_strict);
  void check_boundary(const domino::RelSlot& from,
                      const domino::RelSlot& to);
  bool aps_can_share_rop(topo::NodeId a, topo::NodeId b) const;
  void prune_signature_ledger(TimeNs now);

  sim::Simulator& sim_;
  const topo::Topology& topo_;
  AuditMode mode_;
  AuditSettings settings_;
  std::shared_ptr<AuditReport> report_;

  phy::Medium* medium_ = nullptr;
  const topo::ConflictGraph* graph_ = nullptr;
  const std::vector<mac::MacEntity*>* macs_ = nullptr;

  // Scratch for the from-scratch medium recompute (avoids per-check allocs).
  std::vector<double> scratch_inbound_;
  std::vector<double> scratch_rop_;
  std::vector<std::uint32_t> scratch_txcount_;

  // Batch-connection state across on_batch_planned calls.
  bool have_prev_batch_ = false;
  std::uint64_t prev_batch_last_index_ = 0;
  std::vector<domino::SlotEntry> prev_batch_last_entries_;

  // Signature ledger: recent on-air trigger bursts, for provenance checks.
  struct BurstRecord {
    topo::NodeId src;
    TimeNs end;
    phy::SignatureCodes codes;
  };
  std::deque<BurstRecord> bursts_;

  // Per-node slot-lattice state.
  struct NodeLattice {
    bool has_last = false;
    std::uint64_t last_data_tag = 0;
    /// Slots this client may transmit in (trigger tag+1 / continuation).
    std::set<std::uint64_t> authorized;
  };
  std::vector<NodeLattice> lattice_;

  // ROP state: responses per (ap, poll tag), and per-client subchannel.
  // Disjointness is scoped per poll symbol — only clients answering in the
  // same symbol of a round are on the air together.
  struct PollResponseSeen {
    topo::NodeId client;
    std::size_t subchannel;
    std::uint32_t symbol;
  };
  struct PollGroup {
    std::uint64_t key;  // (ap << 44) | tag
    TimeNs last_seen;
    std::vector<PollResponseSeen> responses;
  };
  std::deque<PollGroup> polls_;
  /// Static-mode subchannel pin: a client keeps its slot from one join or
  /// roam to the next, so any switch in between violates
  /// rop.subchannel-change.
  std::unordered_map<topo::NodeId, std::size_t> client_subchannel_;
  /// Consecutive rostered polls each client has been absent from (rosters
  /// observed on the air via kPoll; starvation bound in AuditSettings).
  std::unordered_map<topo::NodeId, unsigned> poll_misses_;

  // Traffic conservation (per packet id; ids are globally unique).
  struct FlowLedger {
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t rejected = 0;
  };
  std::map<traffic::FlowId, FlowLedger> flow_ledger_;
  std::unordered_set<traffic::PacketId> offered_ids_;
  std::unordered_set<traffic::PacketId> rejected_ids_;
  std::unordered_set<traffic::PacketId> delivered_ids_;

  // Lifecycle ledger: per-node presence according to the driver's script.
  struct NodePresence {
    bool active = true;
    TimeNs left_at = 0;
  };
  std::unordered_map<topo::NodeId, NodePresence> presence_;
  /// In-flight grace after a leave: a frame transmitted just before the
  /// leave may legitimately complete at the departing client.
  static constexpr TimeNs kDepartureGrace = msec(5);
};

}  // namespace dmn::audit
