#include "audit/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "util/units.h"

namespace dmn::audit {

namespace {

/// Gold-code index of a node. SignaturePlan assigns codes by node id
/// (signature_plan.h); the auditor mirrors that mapping rather than
/// depending on the plan object owned by the scheme stack.
std::size_t code_of(topo::NodeId node) {
  return static_cast<std::size_t>(node);
}

constexpr double kRelTol = 1e-9;    // incremental-vs-scratch power sums
constexpr double kAbsTolMw = 1e-15; // far below any single RSS contribution

/// How many recent signature bursts / poll groups / authorized tags to
/// retain. Provenance and disjointness only ever look a settle-time into
/// the past; these bounds keep the auditor O(1) in run length.
constexpr std::size_t kMaxBursts = 512;
constexpr std::size_t kMaxPollGroups = 32;
constexpr std::uint64_t kAuthorizedWindow = 128;

}  // namespace

AuditMode resolve_mode(const AuditConfig& cfg) {
  if (cfg.mode != AuditMode::kInherit) return cfg.mode;
  const char* v = std::getenv("DMN_AUDIT");
  if (v == nullptr || v[0] == '\0' || (v[0] == '0' && v[1] == '\0')) {
    return AuditMode::kOff;
  }
  if (std::string_view(v) == "record") return AuditMode::kRecord;
  return AuditMode::kThrow;
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  os << "audit: " << checks_run << " checks, " << total_violations
     << " violations";
  for (const auto& [inv, n] : violations_by_invariant) {
    os << "\n  " << inv << ": " << n;
  }
  return os.str();
}

AuditReport merge_reports(
    const std::vector<std::shared_ptr<const AuditReport>>& parts) {
  AuditReport out;
  for (const auto& part : parts) {
    if (part == nullptr) continue;
    out.checks_run += part->checks_run;
    out.total_violations += part->total_violations;
    for (const auto& [inv, n] : part->violations_by_invariant) {
      out.violations_by_invariant[inv] += n;
    }
    for (const AuditRecord& r : part->records) {
      if (out.records.size() >= AuditReport::kMaxStored) break;
      out.records.push_back(r);
    }
  }
  return out;
}

AuditViolation::AuditViolation(const std::string& inv,
                               const std::string& detail, TimeNs t)
    : std::runtime_error("audit: " + inv + " violated at t=" +
                         std::to_string(t) + "ns: " + detail),
      invariant(inv),
      sim_time(t) {}

SimAuditor::SimAuditor(sim::Simulator& sim, const topo::Topology& topo,
                       AuditMode mode, AuditSettings settings)
    : sim_(sim),
      topo_(topo),
      mode_(mode),
      settings_(settings),
      report_(std::make_shared<AuditReport>()),
      lattice_(topo.num_nodes()) {}

void SimAuditor::attach_medium(phy::Medium& medium) {
  medium_ = &medium;
  medium.set_observer(this);
  scratch_inbound_.assign(topo_.num_nodes(), 0.0);
  scratch_rop_.assign(topo_.num_nodes(), 0.0);
  scratch_txcount_.assign(topo_.num_nodes(), 0);
}

void SimAuditor::violate(const std::string& invariant,
                         const std::string& detail) {
  ++report_->total_violations;
  ++report_->violations_by_invariant[invariant];
  if (report_->records.size() < AuditReport::kMaxStored) {
    report_->records.push_back(AuditRecord{invariant, detail, sim_.now()});
  }
  if (mode_ == AuditMode::kThrow) {
    throw AuditViolation(invariant, detail, sim_.now());
  }
}

void SimAuditor::check(bool ok, const char* invariant,
                       const std::string& detail) {
  ++report_->checks_run;
  if (!ok) violate(invariant, detail);
}

// ---------------------------------------------------------------------------
// Medium: incremental accounting vs from-scratch recompute
// ---------------------------------------------------------------------------

void SimAuditor::check_medium_sums() {
  // The medium keeps sums for its members, and a transmission's power
  // never leaves its coupling component: recompute each active row over
  // its sender's component and compare the members.
  const std::vector<phy::NodeRun>& runs = medium_->member_runs();
  for (const phy::NodeRun& run : runs) {
    for (std::size_t i = run.begin; i < run.end; ++i) {
      scratch_inbound_[i] = 0.0;
      scratch_rop_[i] = 0.0;
      scratch_txcount_[i] = 0;
    }
  }
  medium_->visit_active_tx([&](const phy::Frame& f, TimeNs, TimeNs,
                               bool rop) {
    const auto row = topo_.rss_mw_row(f.src);
    for (const topo::NodeId n :
         topo_.component_members(topo_.component_of(f.src))) {
      const auto i = static_cast<std::size_t>(n);
      scratch_inbound_[i] += row[i];
      if (rop) scratch_rop_[i] += row[i];
    }
    ++scratch_txcount_[static_cast<std::size_t>(f.src)];
  });

  ++report_->checks_run;
  for (const phy::NodeRun& run : runs) {
    for (std::size_t i = run.begin; i < run.end; ++i) {
      const auto id = static_cast<topo::NodeId>(i);
      const double inc = medium_->inbound_mw(id);
      const double scr = scratch_inbound_[i];
      if (std::abs(inc - scr) > kAbsTolMw + kRelTol * scr) {
        std::ostringstream os;
        os << "node " << i << ": incremental inbound " << inc
           << " mW vs from-scratch " << scr << " mW ("
           << medium_->active_tx_count() << " active tx)";
        violate("medium.interference-accounting", os.str());
      }
      const double inc_rop = medium_->rop_inbound_mw(id);
      const double scr_rop = scratch_rop_[i];
      if (std::abs(inc_rop - scr_rop) > kAbsTolMw + kRelTol * scr_rop) {
        std::ostringstream os;
        os << "node " << i << ": incremental ROP inbound " << inc_rop
           << " mW vs from-scratch " << scr_rop << " mW";
        violate("medium.interference-accounting", os.str());
      }
      if (medium_->tx_count(id) != scratch_txcount_[i]) {
        std::ostringstream os;
        os << "node " << i << ": tx_count " << medium_->tx_count(id)
           << " vs recount " << scratch_txcount_[i];
        violate("medium.interference-accounting", os.str());
      }
      // Carrier sense must agree with its defining predicate over the
      // medium's own cached sums (exact — refresh just ran).
      const bool busy =
          medium_->tx_count(id) > 0 ||
          medium_->external_interference_mw() + medium_->inbound_mw(id) >=
              medium_->cs_threshold_mw();
      if (busy != medium_->cs_busy_cached(id)) {
        std::ostringstream os;
        os << "node " << i << ": cached cs_busy="
           << (medium_->cs_busy_cached(id) ? 1 : 0) << " but predicate says "
           << (busy ? 1 : 0);
        violate("medium.carrier-sense", os.str());
      }
    }
  }
}

void SimAuditor::on_medium_accounting() {
  if (medium_ != nullptr) check_medium_sums();
}

void SimAuditor::on_medium_tx(const phy::Frame& frame, TimeNs /*start*/,
                              TimeNs end) {
  // Signature ledger for trigger provenance.
  if (frame.type == phy::FrameType::kSignature && frame.burst.has_value()) {
    bursts_.push_back(BurstRecord{frame.src, end, frame.burst->codes});
    if (bursts_.size() > kMaxBursts) bursts_.pop_front();
    return;
  }

  if (frame.type == phy::FrameType::kPoll) {
    // ---- poll-round invariants ----
    ++report_->checks_run;
    if (frame.poll_symbol > settings_.poll_symbol_budget) {
      std::ostringstream os;
      os << "AP " << frame.src << " poll (slot " << frame.slot_tag
         << ") spans " << frame.poll_symbol << " symbols, over the budget of "
         << settings_.poll_symbol_budget;
      violate("rop.airtime-over-budget", os.str());
    }
    for (const phy::PollAssignment& a : frame.poll_roster) {
      if (a.symbol >= frame.poll_symbol) {
        std::ostringstream os;
        os << "AP " << frame.src << " poll (slot " << frame.slot_tag
           << ") assigns client " << a.client << " to symbol " << a.symbol
           << " but announces only " << frame.poll_symbol << " symbols";
        violate("rop.airtime-over-budget", os.str());
      }
    }
    // Starvation: every active associated client must appear in the AP's
    // rosters at least once per `starvation_rounds` consecutive polls.
    if (settings_.starvation_rounds > 0 && !frame.poll_roster.empty()) {
      std::set<topo::NodeId> rostered;
      for (const phy::PollAssignment& a : frame.poll_roster) {
        rostered.insert(a.client);
      }
      for (topo::NodeId c : topo_.clients_of(frame.src)) {
        if (const auto it = presence_.find(c);
            it != presence_.end() && !it->second.active) {
          poll_misses_.erase(c);
          continue;
        }
        if (rostered.contains(c)) {
          poll_misses_[c] = 0;
          continue;
        }
        const unsigned misses = ++poll_misses_[c];
        if (misses > settings_.starvation_rounds) {
          std::ostringstream os;
          os << "client " << c << " missing from " << misses
             << " consecutive poll rosters of AP " << frame.src
             << " (bound " << settings_.starvation_rounds << ")";
          violate("rop.starved-client", os.str());
        }
      }
    }
    return;
  }

  if (frame.type != phy::FrameType::kRopResponse) return;

  // ---- ROP invariants ----
  ++report_->checks_run;
  const topo::NodeId src = frame.src;
  if (frame.queue_report > settings_.rop_max_report) {
    std::ostringstream os;
    os << "client " << src << " reported " << frame.queue_report << " > "
       << settings_.rop_max_report;
    violate("rop.report-range", os.str());
  }
  // The response is built and sent in the same simulator event that reads
  // the queue, so the client's queue length at observation time is exactly
  // the polled length.
  if (macs_ != nullptr && src >= 0 &&
      static_cast<std::size_t>(src) < macs_->size() &&
      (*macs_)[static_cast<std::size_t>(src)] != nullptr) {
    const std::size_t qlen = (*macs_)[static_cast<std::size_t>(src)]
                                 ->queue_size();
    const unsigned expect = static_cast<unsigned>(
        std::min<std::size_t>(qlen, settings_.rop_max_report));
    if (frame.queue_report != expect) {
      std::ostringstream os;
      os << "client " << src << " reported " << frame.queue_report
         << " but queue length is " << qlen << " (expected report " << expect
         << ")";
      violate("rop.report-mismatch", os.str());
    }
  }
  if (topo_.node(src).ap != frame.dst) {
    std::ostringstream os;
    os << "client " << src << " answered poll of AP " << frame.dst
       << " but is associated to AP " << topo_.node(src).ap;
    violate("rop.foreign-response", os.str());
  }
  // Subchannel constancy holds in the static modes, where a client answers
  // on its slot until its next join or roam. Adaptive rosters legitimately
  // reassign subchannels round to round.
  if (!settings_.adaptive_polling) {
    const auto [it, fresh] =
        client_subchannel_.try_emplace(src, frame.subchannel);
    if (!fresh && it->second != frame.subchannel) {
      std::ostringstream os;
      os << "client " << src << " switched subchannel " << it->second
         << " -> " << frame.subchannel;
      violate("rop.subchannel-change", os.str());
    }
  }

  // Subchannel disjointness within one poll (same AP, same slot tag).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(frame.dst) << 44) |
      (frame.slot_tag & ((std::uint64_t{1} << 44) - 1));
  PollGroup* group = nullptr;
  for (PollGroup& g : polls_) {
    if (g.key == key) {
      group = &g;
      break;
    }
  }
  if (group == nullptr) {
    polls_.push_back(PollGroup{key, end, {}});
    if (polls_.size() > kMaxPollGroups) polls_.pop_front();
    group = &polls_.back();
  }
  group->last_seen = end;
  for (const PollResponseSeen& seen : group->responses) {
    if (seen.subchannel == frame.subchannel &&
        seen.symbol == frame.poll_symbol && seen.client != src) {
      std::ostringstream os;
      os << "clients " << seen.client << " and " << src
         << " both answered AP " << frame.dst << " poll (slot "
         << frame.slot_tag << ") on subchannel " << seen.subchannel
         << " in symbol " << seen.symbol;
      violate("rop.subchannel-collision", os.str());
    }
  }
  group->responses.push_back(
      PollResponseSeen{src, frame.subchannel, frame.poll_symbol});
}

// ---------------------------------------------------------------------------
// Converter: schedule invariants per planned batch
// ---------------------------------------------------------------------------

bool SimAuditor::aps_can_share_rop(topo::NodeId a, topo::NodeId b) const {
  for (std::size_t i = 0; i < graph_->num_links(); ++i) {
    const topo::Link& la = graph_->link(static_cast<topo::LinkId>(i));
    if (la.sender != a && la.receiver != a) continue;
    for (std::size_t j = 0; j < graph_->num_links(); ++j) {
      const topo::Link& lb = graph_->link(static_cast<topo::LinkId>(j));
      if (lb.sender != b && lb.receiver != b) continue;
      if (graph_->conflicts(static_cast<topo::LinkId>(i),
                            static_cast<topo::LinkId>(j))) {
        return false;
      }
    }
  }
  return true;
}

void SimAuditor::check_relative_slot(
    const domino::RelSlot& slot, const std::vector<topo::LinkId>& strict_slot,
    bool has_strict) {
  ++report_->checks_run;

  // Real entries map back exactly to the strict slot (multiset equality);
  // the converter may drop fake filler but never a scheduled real link.
  if (has_strict) {
    std::vector<topo::LinkId> real;
    for (const domino::SlotEntry& e : slot.entries) {
      if (!e.fake) real.push_back(e.link);
    }
    std::vector<topo::LinkId> want = strict_slot;
    std::sort(real.begin(), real.end());
    std::sort(want.begin(), want.end());
    if (real != want) {
      std::ostringstream os;
      os << "slot " << slot.global_index << ": real entries {";
      for (topo::LinkId l : real) os << " " << l;
      os << " } != strict slot {";
      for (topo::LinkId l : want) os << " " << l;
      os << " }";
      violate("converter.real-entry-mapping", os.str());
    }
    for (const domino::SlotEntry& e : slot.entries) {
      if (!e.fake) continue;
      if (!settings_.converter.insert_fake_links) {
        std::ostringstream os;
        os << "slot " << slot.global_index << ": fake entry on link "
           << e.link << " with fake-link insertion disabled";
        violate("converter.fake-on-uncovered", os.str());
      }
      if (std::find(strict_slot.begin(), strict_slot.end(), e.link) !=
          strict_slot.end()) {
        std::ostringstream os;
        os << "slot " << slot.global_index << ": link " << e.link
           << " is both a strict entry and a fake insertion";
        violate("converter.fake-on-uncovered", os.str());
      }
    }
  }

  // Pairwise slot independence. Real-real pairs obey the full conflict
  // rule; pairs involving a fake entry obey the relaxed data-only rule
  // fake insertion is allowed to use. Duplicate links are never valid.
  for (std::size_t i = 0; i < slot.entries.size(); ++i) {
    for (std::size_t j = i + 1; j < slot.entries.size(); ++j) {
      const domino::SlotEntry& a = slot.entries[i];
      const domino::SlotEntry& b = slot.entries[j];
      if (a.link == b.link) {
        std::ostringstream os;
        os << "slot " << slot.global_index << ": link " << a.link
           << " scheduled twice";
        violate("converter.slot-independence", os.str());
        continue;
      }
      const bool fake_pair = a.fake || b.fake;
      const bool conflict = fake_pair ? graph_->data_conflicts(a.link, b.link)
                                      : graph_->conflicts(a.link, b.link);
      if (conflict) {
        std::ostringstream os;
        os << "slot " << slot.global_index << ": links " << a.link << " and "
           << b.link << (fake_pair ? " (fake-involved)" : "")
           << " conflict";
        violate("converter.slot-independence", os.str());
      }
    }
  }

  // ROP sharing: co-polling APs must be pairwise conflict-free.
  for (std::size_t i = 0; i < slot.rop_aps.size(); ++i) {
    for (std::size_t j = i + 1; j < slot.rop_aps.size(); ++j) {
      if (!aps_can_share_rop(slot.rop_aps[i], slot.rop_aps[j])) {
        std::ostringstream os;
        os << "slot " << slot.global_index << ": APs " << slot.rop_aps[i]
           << " and " << slot.rop_aps[j]
           << " share an ROP slot but their links conflict";
        violate("converter.rop-sharing", os.str());
      }
    }
  }
  if (!slot.rop_aps.empty() && !slot.rop_after) {
    std::ostringstream os;
    os << "slot " << slot.global_index
       << ": rop_aps non-empty but rop_after not set";
    violate("converter.rop-coverage", os.str());
  }
}

void SimAuditor::check_boundary(const domino::RelSlot& from,
                                const domino::RelSlot& to) {
  ++report_->checks_run;

  std::vector<topo::NodeId> vias;
  for (const domino::SlotEntry& e : from.entries) {
    const topo::Link& l = graph_->link(e.link);
    vias.push_back(l.sender);
    vias.push_back(l.receiver);
  }
  std::map<topo::NodeId, int> inbound;
  std::map<topo::NodeId, int> outbound;

  for (const domino::Trigger& t : from.triggers) {
    ++inbound[t.target];
    if (!t.continuation && t.via != t.target) ++outbound[t.via];

    // Via validity.
    if (std::find(vias.begin(), vias.end(), t.via) == vias.end()) {
      std::ostringstream os;
      os << "slot " << from.global_index << ": trigger via " << t.via
         << " is not an endpoint of the slot";
      violate("converter.trigger-via", os.str());
    }
    if (t.continuation) {
      if (topo_.node(t.target).is_ap || topo_.node(t.target).ap != t.via) {
        std::ostringstream os;
        os << "slot " << from.global_index << ": continuation for "
           << t.target << " via " << t.via << " (not its AP)";
        violate("converter.trigger-via", os.str());
      }
      if (std::find(vias.begin(), vias.end(), t.target) == vias.end()) {
        std::ostringstream os;
        os << "slot " << from.global_index << ": continuation target "
           << t.target << " is not active in the slot";
        violate("converter.trigger-via", os.str());
      }
    } else if (t.via == t.target) {
      // Self-continuation: APs only (they hold the schedule).
      if (!topo_.node(t.target).is_ap) {
        std::ostringstream os;
        os << "slot " << from.global_index << ": client " << t.target
           << " self-continues";
        violate("converter.trigger-via", os.str());
      }
    } else if (topo_.rss(t.via, t.target) <
               domino::ConverterParams::trigger_rss_floor_dbm) {
      std::ostringstream os;
      os << "slot " << from.global_index << ": trigger " << t.via << " -> "
         << t.target << " below RSS floor (" << topo_.rss(t.via, t.target)
         << " dBm < " << domino::ConverterParams::trigger_rss_floor_dbm
         << " dBm)";
      violate("converter.trigger-rss", os.str());
    }

    // Target validity: a sender in the next slot or an AP polling after
    // this slot.
    bool is_next_sender = false;
    for (const domino::SlotEntry& e : to.entries) {
      if (graph_->link(e.link).sender == t.target) {
        is_next_sender = true;
        break;
      }
    }
    const bool is_polling_ap =
        std::find(from.rop_aps.begin(), from.rop_aps.end(), t.target) !=
        from.rop_aps.end();
    if (!is_next_sender && !is_polling_ap) {
      std::ostringstream os;
      os << "slot " << from.global_index << ": trigger target " << t.target
         << " neither sends in slot " << to.global_index
         << " nor polls after this slot";
      violate("converter.trigger-target", os.str());
    }
  }

  for (const auto& [node, n] : inbound) {
    if (n > settings_.converter.max_inbound) {
      std::ostringstream os;
      os << "slot " << from.global_index << ": target " << node << " has "
         << n << " triggers (max_inbound "
         << settings_.converter.max_inbound << ")";
      violate("converter.trigger-in-degree", os.str());
    }
  }
  for (const auto& [node, n] : outbound) {
    if (n > settings_.converter.max_outbound) {
      std::ostringstream os;
      os << "slot " << from.global_index << ": via " << node << " combines "
         << n << " signatures (max_outbound "
         << settings_.converter.max_outbound << ")";
      violate("converter.trigger-out-degree", os.str());
    }
  }
}

void SimAuditor::on_batch_planned(
    const std::vector<std::vector<topo::LinkId>>& strict,
    const domino::RelativeSchedule& rs,
    const std::vector<domino::SlotEntry>& prev_last,
    const std::vector<topo::NodeId>& rop_aps_needed) {
  if (graph_ == nullptr || rs.slots.empty()) return;

  // Strict slots are independent sets under the FULL conflict rule.
  ++report_->checks_run;
  for (std::size_t s = 0; s < strict.size(); ++s) {
    for (std::size_t i = 0; i < strict[s].size(); ++i) {
      for (std::size_t j = i + 1; j < strict[s].size(); ++j) {
        if (strict[s][i] == strict[s][j] ||
            graph_->conflicts(strict[s][i], strict[s][j])) {
          std::ostringstream os;
          os << "strict slot " << s << ": links " << strict[s][i] << " and "
             << strict[s][j] << " cannot share a slot";
          violate("converter.strict-slot-independence", os.str());
        }
      }
    }
  }

  // Batch connection: the overlap slot is the previous batch's last slot,
  // entry for entry, at the same global index.
  ++report_->checks_run;
  const domino::RelSlot& overlap = rs.slots.front();
  auto entries_equal = [](const std::vector<domino::SlotEntry>& a,
                          const std::vector<domino::SlotEntry>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].link != b[i].link || a[i].fake != b[i].fake) return false;
    }
    return true;
  };
  if (!entries_equal(overlap.entries, prev_last)) {
    std::ostringstream os;
    os << "batch " << rs.batch_id
       << ": overlap slot entries differ from the previous batch's last "
          "slot";
    violate("converter.batch-connection", os.str());
  }
  if (have_prev_batch_) {
    if (overlap.global_index != prev_batch_last_index_) {
      std::ostringstream os;
      os << "batch " << rs.batch_id << ": overlap slot index "
         << overlap.global_index << " != previous batch's last index "
         << prev_batch_last_index_;
      violate("converter.batch-connection", os.str());
    }
    if (!entries_equal(overlap.entries, prev_batch_last_entries_)) {
      std::ostringstream os;
      os << "batch " << rs.batch_id
         << ": overlap slot entries differ from the last slot actually "
            "planned in the previous batch";
      violate("converter.batch-connection", os.str());
    }
  }

  // Global slot indices are contiguous within the batch.
  for (std::size_t i = 0; i < rs.slots.size(); ++i) {
    if (rs.slots[i].global_index != overlap.global_index + i) {
      std::ostringstream os;
      os << "batch " << rs.batch_id << ": slot " << i << " has global index "
         << rs.slots[i].global_index << ", expected "
         << overlap.global_index + i;
      violate("converter.slot-indexing", os.str());
    }
  }

  // Per-slot entry invariants. rs.slots[1 + s] corresponds to strict[s];
  // the overlap slot has no strict counterpart.
  static const std::vector<topo::LinkId> kNoStrict;
  check_relative_slot(overlap, kNoStrict, /*has_strict=*/false);
  for (std::size_t s = 0; s + 1 < rs.slots.size(); ++s) {
    const bool has_strict = s < strict.size();
    check_relative_slot(rs.slots[s + 1],
                        has_strict ? strict[s] : kNoStrict, has_strict);
  }

  // Trigger invariants per boundary.
  for (std::size_t i = 0; i + 1 < rs.slots.size(); ++i) {
    check_boundary(rs.slots[i], rs.slots[i + 1]);
  }

  // ROP coverage: every AP that needed a poll got exactly one.
  if (rs.slots.size() > 1) {
    ++report_->checks_run;
    for (topo::NodeId ap : rop_aps_needed) {
      std::size_t times = 0;
      for (const domino::RelSlot& s : rs.slots) {
        times += static_cast<std::size_t>(
            std::count(s.rop_aps.begin(), s.rop_aps.end(), ap));
      }
      if (times != 1) {
        std::ostringstream os;
        os << "batch " << rs.batch_id << ": AP " << ap << " polled "
           << times << " times (expected exactly 1)";
        violate("converter.rop-coverage", os.str());
      }
    }
  }

  // Lifecycle: every real scheduled link must match the CURRENT topology —
  // client associated to that AP and present. A roam/leave that reached the
  // topology but not the scheduler shows up here as a stale link.
  ++report_->checks_run;
  for (const domino::RelSlot& s : rs.slots) {
    for (const domino::SlotEntry& e : s.entries) {
      if (e.fake || e.link == topo::kNoLink) continue;
      const topo::Link& l = graph_->link(e.link);
      const bool down = topo_.node(l.sender).is_ap;
      const topo::NodeId ap = down ? l.sender : l.receiver;
      const topo::NodeId client = down ? l.receiver : l.sender;
      if (topo_.node(client).ap != ap) {
        std::ostringstream os;
        os << "batch " << rs.batch_id << " slot " << s.global_index
           << ": link " << e.link << " pairs client " << client
           << " with AP " << ap << " but the client is associated to AP "
           << topo_.node(client).ap;
        violate("converter.stale-association", os.str());
      } else if (!topo_.node_active(client)) {
        std::ostringstream os;
        os << "batch " << rs.batch_id << " slot " << s.global_index
           << ": link " << e.link << " schedules departed client "
           << client;
        violate("converter.stale-association", os.str());
      }
    }
  }

  have_prev_batch_ = true;
  prev_batch_last_index_ = rs.slots.back().global_index;
  prev_batch_last_entries_ = rs.slots.back().entries;
}

// ---------------------------------------------------------------------------
// Domino MAC: trigger provenance and slot-lattice monotonicity
// ---------------------------------------------------------------------------

void SimAuditor::prune_signature_ledger(TimeNs now) {
  while (!bursts_.empty() && bursts_.front().end + msec(1) < now) {
    bursts_.pop_front();
  }
}

void SimAuditor::on_trigger(std::uint64_t tag, topo::NodeId node, TimeNs t) {
  auto& lat = lattice_[static_cast<std::size_t>(node)];
  lat.authorized.insert(tag + 1);
  while (!lat.authorized.empty() &&
         *lat.authorized.begin() + kAuthorizedWindow < tag) {
    lat.authorized.erase(lat.authorized.begin());
  }

  // Provenance: some OTHER node put a burst carrying this node's code on
  // the air, ending exactly when the detection fired. Forged false
  // positives (fault injection) break this by design — skipped then.
  if (settings_.signature_forging) return;
  ++report_->checks_run;
  prune_signature_ledger(t);
  const std::size_t code = code_of(node);
  for (const BurstRecord& b : bursts_) {
    if (b.end != t || b.src == node) continue;
    if (b.codes.contains(code)) return;
  }
  std::ostringstream os;
  os << "node " << node << " detected its trigger for slot " << tag
     << " but no on-air burst ending at t=" << t << "ns carried code "
     << code;
  violate("domino.trigger-provenance", os.str());
}

void SimAuditor::on_continuation(std::uint64_t slot, topo::NodeId node,
                                 TimeNs /*t*/) {
  lattice_[static_cast<std::size_t>(node)].authorized.insert(slot);
}

void SimAuditor::on_data_tx(std::uint64_t slot, topo::NodeId node,
                            topo::NodeId /*peer*/, TimeNs /*t*/, bool /*fake*/,
                            bool uplink) {
  auto& lat = lattice_[static_cast<std::size_t>(node)];
  ++report_->checks_run;
  if (lat.has_last && slot <= lat.last_data_tag) {
    std::ostringstream os;
    os << "node " << node << " transmitted in slot " << slot
       << " after already transmitting in slot " << lat.last_data_tag;
    violate("domino.slot-monotonicity", os.str());
  }
  lat.has_last = true;
  lat.last_data_tag = std::max(lat.last_data_tag, slot);

  // Clients are purely reactive: an uplink transmission needs a detected
  // trigger for the previous slot or an in-band continuation. APs hold the
  // schedule and may self-start.
  if (uplink) {
    ++report_->checks_run;
    if (!lat.authorized.contains(slot)) {
      std::ostringstream os;
      os << "client " << node << " transmitted uplink in slot " << slot
         << " without a detected trigger or continuation authorizing it";
      violate("domino.untriggered-transmission", os.str());
    }
  }
}

void SimAuditor::on_poll(std::uint64_t /*slot*/, topo::NodeId ap,
                         TimeNs /*t*/) {
  ++report_->checks_run;
  if (!topo_.node(ap).is_ap) {
    std::ostringstream os;
    os << "non-AP node " << ap << " issued an ROP poll";
    violate("rop.poll-source", os.str());
  }
}

// ---------------------------------------------------------------------------
// Traffic conservation
// ---------------------------------------------------------------------------

void SimAuditor::on_offered(const traffic::Packet& p) {
  ++report_->checks_run;
  ++flow_ledger_[p.flow].generated;
  if (!offered_ids_.insert(p.id).second) {
    std::ostringstream os;
    os << "packet id " << p.id << " (flow " << p.flow
       << ") offered to the MAC twice";
    violate("traffic.duplicate-offer", os.str());
  }
}

void SimAuditor::on_offer_rejected(traffic::PacketId id,
                                   traffic::FlowId flow) {
  ++flow_ledger_[flow].rejected;
  rejected_ids_.insert(id);
}

void SimAuditor::on_delivered(const traffic::Packet& p, topo::NodeId at,
                              TimeNs now) {
  ++report_->checks_run;
  ++flow_ledger_[p.flow].delivered;
  if (!delivered_ids_.insert(p.id).second) {
    std::ostringstream os;
    os << "packet id " << p.id << " (flow " << p.flow << ") delivered twice";
    violate("traffic.duplicate-delivery", os.str());
  }
  if (!offered_ids_.contains(p.id)) {
    std::ostringstream os;
    os << "packet id " << p.id << " (flow " << p.flow
       << ") delivered but never offered";
    violate("traffic.unknown-delivery", os.str());
  }
  if (rejected_ids_.contains(p.id)) {
    std::ostringstream os;
    os << "packet id " << p.id << " (flow " << p.flow
       << ") delivered although its enqueue was rejected";
    violate("traffic.rejected-delivery", os.str());
  }
  if (at != p.dst) {
    std::ostringstream os;
    os << "packet id " << p.id << " delivered at node " << at
       << " but addressed to " << p.dst;
    violate("traffic.misdelivery", os.str());
  }
  // Lifecycle: a departed client must fall silent. Frames already in the
  // air (or ACK exchanges straddling the leave) get a short grace window;
  // anything later means the leave never reached the radio/MAC layers.
  if (const auto it = presence_.find(at);
      it != presence_.end() && !it->second.active &&
      now - it->second.left_at > kDepartureGrace) {
    std::ostringstream os;
    os << "packet id " << p.id << " delivered to node " << at << " "
       << (now - it->second.left_at) << " ns after it left the network";
    violate("lifecycle.delivery-to-departed", os.str());
  }
}

// ---------------------------------------------------------------------------
// Lifecycle: scripted presence as ground truth
// ---------------------------------------------------------------------------

void SimAuditor::on_lifecycle(topo::NodeId node, bool active, TimeNs now) {
  NodePresence& p = presence_[node];
  p.active = active;
  if (!active) p.left_at = now;
}

void SimAuditor::on_client_reassociated(topo::NodeId client) {
  // The new slot may sit on a different subchannel; retaining the old pin
  // would raise a false rop.subchannel-change violation. Its starvation
  // counter restarts with the new AP's rosters.
  client_subchannel_.erase(client);
  poll_misses_.erase(client);
}

void SimAuditor::on_schedule_reset() {
  // The conflict graph was rebuilt: LinkIds changed meaning, so the next
  // batch legitimately does not connect to the previous one.
  have_prev_batch_ = false;
  // Adaptive rosters are re-planned from the surviving client set.
  if (settings_.adaptive_polling) poll_misses_.clear();
}

void SimAuditor::finalize() {
  for (const auto& [flow, ledger] : flow_ledger_) {
    ++report_->checks_run;
    if (ledger.delivered + ledger.rejected > ledger.generated) {
      std::ostringstream os;
      os << "flow " << flow << ": delivered " << ledger.delivered
         << " + rejected " << ledger.rejected << " exceeds generated "
         << ledger.generated;
      violate("traffic.conservation", os.str());
    }
  }
}

}  // namespace dmn::audit
