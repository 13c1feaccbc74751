#include "domino/domino_mac.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "fault/fault_injector.h"
#include "util/units.h"

namespace dmn::domino {
namespace {

/// Settling delay before evaluating buffered signature bursts: concurrent
/// bursts end within a couple of microseconds of each other.
constexpr TimeNs kSigEvalSettle = usec(2);

/// Retry delay when an action lands while our own radio is still keyed.
constexpr TimeNs kTxBusyRetry = usec(7);

}  // namespace

// --------------------------------------------------------------------------
// DominoNodeBase
// --------------------------------------------------------------------------

DominoNodeBase::DominoNodeBase(sim::Simulator& sim, phy::Medium& medium,
                               topo::NodeId node, const DominoTiming& timing,
                               const SignaturePlan& signatures,
                               const phy::SignatureDetectionModel& model,
                               Rng rng, DominoTrace* trace)
    : sim_(sim),
      radio_(medium, node, this),
      timing_(timing),
      dur_(timing),
      signatures_(signatures),
      model_(model),
      rng_(std::move(rng)),
      trace_(trace) {}

void DominoNodeBase::send_burst(const std::vector<std::size_t>& codes,
                                std::uint64_t tag, bool rop_flag,
                                bool recovery, std::uint32_t rop_symbols) {
  if (codes.empty() || !powered_) return;
  phy::Frame f;
  f.type = phy::FrameType::kSignature;
  f.dst = topo::kNoNode;  // broadcast
  f.duration = dur_.burst_air;
  phy::SignatureBurst burst;
  burst.codes = codes;
  burst.start_signature = !rop_flag;
  burst.rop_signature = rop_flag;
  burst.recovery = recovery;
  burst.rop_symbols = std::max<std::uint32_t>(rop_symbols, 1);
  f.burst = std::move(burst);
  f.slot_tag = tag;
  radio_.send(f);
}

void DominoNodeBase::update_anchor(std::uint64_t tag, TimeNs t0,
                                   bool force) {
  // "The transmitter uses the last correctly received trigger as time
  // reference." Heard references only ever move the lattice later (or
  // refresh it); own executions (force) set it outright.
  if (!force && anchor_valid_) {
    const TimeNs projected = expected_start(tag);
    if (t0 < projected - dur_.slot_duration / 4) {
      // Earlier than our lattice: normally the other chain should defer to
      // us — but if every reference we hear is earlier, *we* are the
      // runaway island and must fall back to the network.
      ++anchor_rejections_total_;
      if (++anchor_rejections_ < 2) return;
    }
  }
  anchor_rejections_ = 0;
  const bool moved_later =
      anchor_valid_ && t0 > expected_start(tag) + usec(1);
  anchor_valid_ = true;
  anchor_tag_ = tag;
  anchor_t0_ = t0;
  if (moved_later && !force) on_anchor_moved();
}

TimeNs DominoNodeBase::expected_start(std::uint64_t tag) const {
  if (!anchor_valid_) return kTimeNever;
  const auto delta = static_cast<std::int64_t>(tag) -
                     static_cast<std::int64_t>(anchor_tag_);
  TimeNs horizon = delta * dur_.slot_duration;
  if (clock_skew_ppm_ != 0.0) {
    // A fast local clock (positive ppm) counts off its slots in less true
    // time. Skew only enters through this extrapolation: per-frame offsets
    // shift by ppm x 100 us < 1 ns and stay exact.
    horizon = static_cast<TimeNs>(static_cast<double>(horizon) /
                                  (1.0 + clock_skew_ppm_ * 1e-6));
  }
  return anchor_t0_ + horizon;
}

void DominoNodeBase::note_chain_resume(TimeNs now) {
  if (!loss_pending_) return;
  loss_pending_ = false;
  recovery_latency_slots_.push_back(
      static_cast<double>(now - loss_time_) /
      static_cast<double>(dur_.slot_duration));
}

void DominoNodeBase::on_frame_rx(const phy::Frame& frame,
                                 const phy::RxInfo& info) {
  if (!powered_) return;  // AP outage: the radio is dark
  if (frame.type == phy::FrameType::kSignature) {
    if (info.half_duplex_loss || !frame.burst.has_value()) return;
    sig_buffer_.push_back(BufferedBurst{*frame.burst, info.min_sinr_db,
                                        frame.slot_tag, sim_.now()});
    if (!eval_scheduled_) {
      eval_scheduled_ = true;
      sim_.post_in(kSigEvalSettle, [this] { evaluate_sig_buffer(); });
    }
    return;
  }

  // Passive re-anchoring from tagged data-phase frames.
  if (info.decoded) {
    if (frame.type == phy::FrameType::kData) {
      update_anchor(frame.slot_tag, sim_.now() - dur_.data_air);
    } else if (frame.type == phy::FrameType::kFakeHeader) {
      update_anchor(frame.slot_tag, sim_.now() - dur_.fake_air);
    }
  }
  handle_frame(frame, info);
}

void DominoNodeBase::evaluate_sig_buffer() {
  eval_scheduled_ = false;
  std::vector<BufferedBurst> bursts;
  bursts.swap(sig_buffer_);
  if (bursts.empty() || !powered_) return;

  // Total combined signatures on the air — the x-axis of Figure 9.
  int total = 0;
  for (const BufferedBurst& b : bursts) {
    total += static_cast<int>(b.burst.codes.size());
  }

  const std::size_t my_code = signatures_.code_of(node());
  for (const BufferedBurst& b : bursts) {
    bool has_mine =
        std::find(b.burst.codes.begin(), b.burst.codes.end(), my_code) !=
        b.burst.codes.end();
    const bool triggering =
        b.burst.start_signature || b.burst.rop_signature;

    // Forced false negative / scripted blackout: the correlator saw noise.
    // The whole burst is lost to this node — no trigger AND no re-anchor,
    // which is what makes a stomped signature phase a real chain break.
    if (faults_ != nullptr &&
        faults_->suppress_burst(node(), b.end_time, rng_)) {
      if (has_mine && triggering) {
        ++forced_trigger_losses_;
        faults_->note_trigger_loss();
        if (!loss_pending_) {
          loss_pending_ = true;
          loss_time_ = b.end_time;
        }
      }
      continue;
    }

    // A burst that ends at t closed slot `tag`; slot tag+1 starts one slot
    // later. Anchor on the slot start implied by the burst timing —
    // except recovery kicks, which are deliberately off-lattice.
    if (!b.burst.recovery) {
      update_anchor(b.tag + 1,
                    b.end_time + timing_.wifi.slot_time +
                        (b.burst.rop_signature
                             ? dur_.rop_duration(b.burst.rop_symbols)
                             : 0));
    }

    // Forced false positive: act on a start burst that did not carry our
    // code (correlation spike on someone else's signature).
    if (!has_mine && triggering && !b.burst.recovery &&
        faults_ != nullptr && faults_->forge_trigger(rng_)) {
      has_mine = true;
    }

    // Auditor self-test defect: every triggering burst looks like ours
    // (audit::Mutation::kMacTriggerWithoutSignature).
    if (test_trigger_on_any_burst_ && triggering && !b.burst.recovery) {
      has_mine = true;
    }

    if (!has_mine) continue;
    if (!triggering) continue;
    if (!model_.sample_detect(total, b.sinr_db, rng_)) continue;
    if (trace_ != nullptr && trace_->on_trigger) {
      trace_->on_trigger(b.tag, node(), b.end_time);
    }
    note_chain_resume(b.end_time);
    on_trigger_detected(
        b.tag, b.burst.rop_signature ? b.burst.rop_symbols : 0, b.end_time);
  }
}

// --------------------------------------------------------------------------
// DominoApMac
// --------------------------------------------------------------------------

DominoApMac::DominoApMac(sim::Simulator& sim, phy::Medium& medium,
                         topo::NodeId node, const DominoTiming& timing,
                         const SignaturePlan& signatures,
                         const phy::SignatureDetectionModel& model,
                         const rop::RopParams& rop_params, Rng rng,
                         mac::DeliveryFn deliver,
                         std::function<void(const ApReport&)> report_fn,
                         DominoTrace* trace)
    : DominoNodeBase(sim, medium, node, timing, signatures, model,
                     std::move(rng), trace),
      rop_params_(rop_params),
      rop_model_(rop_params),
      deliver_(std::move(deliver)),
      report_fn_(std::move(report_fn)),
      queue_(timing.wifi.queue_capacity) {}

void DominoApMac::register_client(const ClientInfo& info) {
  unregister_client(info.client);  // idempotent entry replacement
  clients_.push_back(info);
}

void DominoApMac::unregister_client(topo::NodeId client) {
  for (auto it = clients_.begin(); it != clients_.end(); ++it) {
    if (it->client == client) {
      clients_.erase(it);
      break;
    }
  }
  // seen_ is deliberately retained: a rejoining client may retransmit an
  // uplink packet whose ACK was lost before the leave, and erasing the
  // filter would let the AP deliver it a second time. The map is bounded by
  // the number of clients in the topology (a roam-out moves the entry to
  // the new AP via take_uplink_seen), and each filter ages by eviction.
}

std::vector<traffic::Packet> DominoApMac::extract_queued_for(
    topo::NodeId dst) {
  // The packet awaiting its ACK must stay: finish_slot / the ACK path pop
  // it via queue_.pop_for(awaiting_peer_) and would otherwise pop a
  // different packet for the same (departed) peer.
  std::optional<traffic::PacketId> exclude;
  if (awaiting_ack_valid_ && awaiting_peer_ == dst) exclude = awaiting_ack_;
  return queue_.extract_for(dst, exclude);
}

bool DominoApMac::enqueue(traffic::Packet p) {
  p.enqueued = sim_.now();
  return queue_.push(std::move(p));
}

DominoApMac::Row* DominoApMac::find_row(std::uint64_t g) {
  const auto it = rows_.find(g);
  return it == rows_.end() ? nullptr : &it->second;
}

DominoApMac::Row* DominoApMac::next_pending() {
  for (auto& [g, row] : rows_) {
    if (!row.executed && (frontier_ == 0 || g > frontier_)) return &row;
  }
  return nullptr;
}

void DominoApMac::advance_frontier(std::uint64_t g) {
  for (auto& [idx, row] : rows_) {
    if (idx < g && !row.executed) {
      row.executed = true;
      ++missed_rows_;
    }
  }
  frontier_ = std::max(frontier_, g);
}

void DominoApMac::set_powered(bool on) {
  if (on == powered_) return;
  powered_ = on;
  if (!on) {
    sim_.cancel(self_start_timer_);
    sim_.cancel(tx_event_);
    sim_.cancel(ack_timer_);
    tx_scheduled_ = false;
    awaiting_ack_valid_ = false;
    polling_ = false;
    poll_responses_.clear();
  } else {
    // Restart: resume from the retained schedule on the (possibly stale)
    // anchor; the first heard trigger re-snaps the lattice.
    arm_self_start();
  }
}

void DominoApMac::receive_plan(const ApSchedule& plan) {
  if (!powered_) return;  // a dark AP loses its dispatches
  for (const ApSlotPlan& p : plan.slots) {
    auto [it, fresh] = rows_.try_emplace(p.global_index);
    Row& row = it->second;
    if (fresh || (p.polls_in_rop && !row.plan.polls_in_rop)) {
      row.planned_at = plan.planned_at;
    }
    if (fresh) {
      row.plan = p;
    } else {
      // Overlap-slot merge: the next batch re-ships the retained slot with
      // the triggers pointing into the new batch.
      ApSlotPlan& cur = row.plan;
      for (std::size_t c : p.my_codes) {
        if (std::find(cur.my_codes.begin(), cur.my_codes.end(), c) ==
            cur.my_codes.end()) {
          cur.my_codes.push_back(c);
        }
      }
      for (std::size_t c : p.client_codes) {
        if (std::find(cur.client_codes.begin(), cur.client_codes.end(), c) ==
            cur.client_codes.end()) {
          cur.client_codes.push_back(c);
        }
      }
      cur.rop_after = cur.rop_after || p.rop_after;
      cur.polls_in_rop = cur.polls_in_rop || p.polls_in_rop;
      cur.client_continue = cur.client_continue || p.client_continue;
      cur.rop_symbols = std::max(cur.rop_symbols, p.rop_symbols);
      if (cur.poll_roster.empty()) cur.poll_roster = p.poll_roster;
      if (cur.role == ApSlotPlan::Role::kNone) {
        cur.role = p.role;
        cur.peer = p.peer;
        cur.fake = p.fake;
      }
    }
  }
  for (const ApSchedule::RopBoundary& b : plan.rop_boundaries) {
    std::uint32_t& symbols = rop_boundaries_[b.slot];
    symbols = std::max(symbols, std::max<std::uint32_t>(b.symbols, 1));
  }
  if (!has_anchor()) {
    // First batch: no chain exists yet, so start strictly from the local
    // clock — the wired jitter between APs is the initial misalignment the
    // chain then heals (Figure 11).
    update_anchor(plan.batch_first_slot,
                  sim_.now() + timing_.wifi.slot_time);
  }
  arm_self_start();
}

TimeNs DominoApMac::row_due(const Row& r) const {
  // Bootstrap (nothing executed yet): strict start exactly at the expected
  // slot time — that is the paper's "APs individually start executing".
  // Afterwards, the trigger chain leads and the self-start acts as the
  // anchored local slot clock with a small guard; uplink rows additionally
  // wait out a full data frame before the AP kicks the silent client, and
  // one further window after the kick before the row is written off.
  TimeNs due = anchored_start(r.plan.global_index);
  if (rows_executed_ == 0) return due;
  due += 2 * timing_.wifi.slot_time;
  if (r.plan.role == ApSlotPlan::Role::kRxData) {
    if (r.kick_sent) return r.kick_deadline;
    due += dur_.data_air + timing_.wifi.sifs + dur_.ack_air;
  }
  return due;
}

void DominoApMac::arm_self_start() {
  sim_.cancel(self_start_timer_);
  Row* r = next_pending();
  if (r == nullptr || !has_anchor()) return;
  const TimeNs at = std::max(row_due(*r), sim_.now());
  self_start_timer_ =
      sim_.schedule_at(at, [this] { on_self_start_timer(); });
}

void DominoApMac::on_self_start_timer() {
  if (!powered_) return;
  Row* r = next_pending();
  if (r == nullptr) return;
  const std::uint64_t g = r->plan.global_index;
  const TimeNs due = row_due(*r);
  if (sim_.now() < due) {
    arm_self_start();
    return;
  }
  // Self-starts are recovery actions, not scheduled concurrency: unlike
  // trigger-driven transmissions they defer to carrier sense so a lagging
  // AP does not stomp on chains that are still running.
  if (rows_executed_ > 0 && radio_.carrier_busy()) {
    sim_.cancel(self_start_timer_);
    self_start_timer_ = sim_.schedule_in(
        6 * timing_.wifi.slot_time, [this] { on_self_start_timer(); });
    return;
  }
  switch (r->plan.role) {
    case ApSlotPlan::Role::kTxData:
      ++self_starts_;
      execute_tx(g);
      break;
    case ApSlotPlan::Role::kRxData:
      if (!r->kick_sent) {
        // Bootstrap rule (§3.3): for an uplink at the head of a stalled
        // schedule the AP sends the client's signature to start it.
        r->kick_sent = true;
        r->kick_deadline = sim_.now() + 2 * dur_.slot_duration;
        ++self_starts_;
        note_chain_resume(sim_.now());
        send_burst({signatures_.code_of(r->plan.peer)}, g - 1,
                   /*rop_flag=*/false, /*recovery=*/true);
        // Give the client one response window before writing the row off.
        sim_.cancel(self_start_timer_);
        self_start_timer_ = sim_.schedule_in(
            2 * dur_.slot_duration, [this] { on_self_start_timer(); });
      } else {
        // The client never showed up; write the slot off and move on.
        r->executed = true;
        ++rows_executed_;
        advance_frontier(g);
        arm_self_start();
      }
      break;
    case ApSlotPlan::Role::kNone:
      r->executed = true;
      ++rows_executed_;
      advance_frontier(g);
      if (r->plan.polls_in_rop) {
        ++self_starts_;
        execute_poll(g, sim_.now());
      } else {
        arm_self_start();
      }
      break;
  }
}

void DominoApMac::on_trigger_detected(std::uint64_t tag,
                                      std::uint32_t rop_symbols,
                                      TimeNs detect_time) {
  // A polling AP acts in the ROP slot that opens right after `tag`.
  Row* r = find_row(tag);
  if (r != nullptr && !r->executed && r->plan.polls_in_rop &&
      r->plan.role == ApSlotPlan::Role::kNone &&
      (frontier_ == 0 || tag > frontier_)) {
    r->executed = true;
    ++rows_executed_;
    advance_frontier(tag);
    execute_poll(tag, detect_time + timing_.wifi.slot_time);
  }
  // A data transmitter of slot tag+1 starts one slot (plus ROP) later.
  Row* nxt = find_row(tag + 1);
  if (nxt != nullptr && !nxt->executed &&
      nxt->plan.role == ApSlotPlan::Role::kTxData) {
    schedule_tx(tag + 1,
                detect_time + timing_.wifi.slot_time +
                    (rop_symbols != 0 ? dur_.rop_duration(rop_symbols)
                                      : 0));
  }
  arm_self_start();
}

void DominoApMac::on_anchor_moved() {
  if (!tx_scheduled_) return;
  // Fine alignment only: snap a pending transmission onto the freshly
  // heard lattice when the correction is a fraction of a slot. Larger
  // disagreements mean the reference belongs to a differently-phased chain
  // and adopting it would pull us out of our own slot.
  const TimeNs snapped = anchored_start(tx_pending_slot_);
  if (snapped > sim_.now() &&
      std::abs(snapped - tx_scheduled_at_) < dur_.slot_duration / 4) {
    sim_.cancel(tx_event_);
    const std::uint64_t g = tx_pending_slot_;
    tx_scheduled_at_ = snapped;
    tx_event_ = sim_.schedule_at(snapped, [this, g] { execute_tx(g); });
  }
}

void DominoApMac::schedule_tx(std::uint64_t g, TimeNs at) {
  Row* r = find_row(g);
  if (r == nullptr || r->executed) return;
  if (tx_scheduled_) sim_.cancel(tx_event_);
  tx_scheduled_ = true;
  tx_pending_slot_ = g;
  tx_scheduled_at_ = std::max(at, sim_.now());
  tx_event_ = sim_.schedule_at(tx_scheduled_at_,
                               [this, g] { execute_tx(g); });
}

void DominoApMac::execute_tx(std::uint64_t g) {
  tx_scheduled_ = false;
  if (!powered_) return;
  Row* r = find_row(g);
  if (r == nullptr || r->executed) return;
  if (frontier_ != 0 && g <= frontier_) return;  // stale slot
  if (radio_.transmitting()) {
    schedule_tx(g, sim_.now() + kTxBusyRetry);
    return;
  }
  r->executed = true;
  ++rows_executed_;
  advance_frontier(g);
  note_chain_resume(sim_.now());
  const ApSlotPlan& p = r->plan;
  const TimeNs t0 = sim_.now();
  // Anchor the chain at the lattice-predicted slot start when we are only
  // late by the self-start guard: executing late must not ratchet the
  // lattice itself later (every frame we now send carries the anchor to
  // our neighbours).
  TimeNs anchor_t0 = t0;
  const TimeNs lattice = anchored_start(g);
  if (lattice != kTimeNever && t0 > lattice &&
      t0 - lattice < dur_.slot_duration / 4) {
    anchor_t0 = lattice;
  }
  update_anchor(g, anchor_t0, /*force=*/true);

  const traffic::Packet* pkt = queue_.front_for(p.peer);
  if (trace_ != nullptr && trace_->on_data_tx) {
    trace_->on_data_tx(g, node(), p.peer, t0, pkt == nullptr,
                       /*uplink=*/false);
  }

  phy::SignatureBurst instr;
  instr.codes = p.client_codes;
  instr.start_signature = !p.rop_after;
  instr.rop_signature = p.rop_after;
  instr.continue_next = p.client_continue;
  instr.rop_symbols = std::max<std::uint32_t>(p.rop_symbols, 1);

  phy::Frame f;
  f.dst = p.peer;
  f.slot_tag = g;
  f.client_instruction = instr;
  if (pkt != nullptr) {
    f.type = phy::FrameType::kData;
    f.bytes = pkt->bytes + timing_.wifi.mac_header_bytes;
    f.duration = dur_.data_air;
    f.packet = *pkt;
    f.packet_id = pkt->id;
    awaiting_ack_ = pkt->id;
    awaiting_ack_valid_ = true;
    awaiting_peer_ = p.peer;
    sim_.cancel(ack_timer_);
    ack_timer_ = sim_.schedule_in(
        f.duration + timing_.wifi.sifs + dur_.ack_air +
            timing_.wifi.slot_time,
        [this] {
          ++ack_timeouts_;
          awaiting_ack_valid_ = false;
          // §3.5: the packet stays queued; it is retransmitted the next
          // time this destination appears at the top of the schedule.
          auto& attempts = tx_attempts_[awaiting_ack_];
          ++attempts;
          if (attempts > timing_.wifi.retry_limit) {
            (void)queue_.pop_for(awaiting_peer_);
            tx_attempts_.erase(awaiting_ack_);
            ++retry_drops_;
          } else {
            prune_tx_attempts();
          }
        });
  } else {
    f.type = phy::FrameType::kFakeHeader;
    f.bytes = timing_.fake_header_bytes;
    f.duration = dur_.fake_air;
  }
  radio_.send(f);
  after_data_phase(*r, t0, /*uplink=*/false);
}

void DominoApMac::after_data_phase(const Row& row, TimeNs slot_t0,
                                   bool /*uplink*/) {
  const std::vector<std::size_t> codes = row.plan.my_codes;
  const std::uint64_t g = row.plan.global_index;
  const bool rop = row.plan.rop_after;
  const std::uint32_t symbols = row.plan.rop_symbols;
  sim_.post_at(std::max(slot_t0 + dur_.sig_phase_offset, sim_.now()),
               [this, codes, g, rop, symbols] {
                 send_burst(codes, g, rop, /*recovery=*/false, symbols);
               });
  const TimeNs burst_end =
      slot_t0 + dur_.sig_phase_offset + dur_.burst_air;
  sim_.post_at(std::max(burst_end, sim_.now()),
                   [this, g] { finish_slot(g); });
}

void DominoApMac::finish_slot(std::uint64_t g) {
  if (!powered_) return;
  Row* r = find_row(g);
  const TimeNs now = sim_.now();
  if (r != nullptr) {
    if (r->plan.polls_in_rop && r->plan.role != ApSlotPlan::Role::kNone) {
      execute_poll(g, now + timing_.wifi.slot_time);
    }
    // Self-continuation: the AP holds its schedule and an anchored slot
    // lattice ("last correctly received trigger as time reference"), so it
    // times its next pending transmission itself — whether that is the
    // adjacent slot or several slots ahead. Triggers arriving in between
    // refine the timing; the converter's RF triggers remain what starts
    // CLIENTS, which hold no schedule.
    Row* nxt = find_row(g + 1);
    if (nxt != nullptr && !nxt->executed &&
        nxt->plan.role == ApSlotPlan::Role::kTxData) {
      schedule_tx(g + 1,
                  now + timing_.wifi.slot_time +
                      (r->plan.rop_after
                           ? dur_.rop_duration(r->plan.rop_symbols)
                           : 0));
    }
  }
  prune_executed(g);
  arm_self_start();
}

TimeNs DominoApMac::anchored_start(std::uint64_t g) const {
  if (!has_anchor()) return kTimeNever;
  TimeNs at = expected_start(g);
  for (const auto& [b, symbols] : rop_boundaries_) {
    if (b >= anchor_tag() && b < g) at += dur_.rop_duration(symbols);
  }
  return at;
}

void DominoApMac::prune_executed(std::uint64_t upto) {
  while (!rop_boundaries_.empty() && upto > 8 &&
         rop_boundaries_.begin()->first + 8 < upto) {
    rop_boundaries_.erase(rop_boundaries_.begin());
  }
  for (auto it = rows_.begin(); it != rows_.end();) {
    if (it->first + 2 < upto) {
      if (!it->second.executed) ++missed_rows_;
      it = rows_.erase(it);
    } else {
      ++it;
    }
  }
}

void DominoApMac::prune_tx_attempts() {
  // Packet ids are monotonic, so map order is age order: evict oldest.
  while (tx_attempts_.size() > kTxAttemptsCap) {
    tx_attempts_.erase(tx_attempts_.begin());
  }
}

void DominoApMac::execute_poll(std::uint64_t g, TimeNs at) {
  sim_.post_at(std::max(at, sim_.now()), [this, g] {
    if (!powered_) return;
    if (radio_.transmitting()) {
      execute_poll(g, sim_.now() + kTxBusyRetry);
      return;
    }
    polling_ = true;
    poll_responses_.clear();
    if (trace_ != nullptr && trace_->on_poll) {
      trace_->on_poll(g, node(), sim_.now());
    }
    // kAdaptive rounds ship the roster in the poll broadcast; static-mode
    // rounds leave it empty (clients answer on their slots).
    std::uint32_t symbols = 1;
    std::vector<phy::PollAssignment> roster;
    if (const Row* r = find_row(g); r != nullptr) {
      symbols = std::max<std::uint32_t>(r->plan.rop_symbols, 1);
      roster = r->plan.poll_roster;
      const double age_us =
          static_cast<double>(sim_.now() - r->planned_at) / 1e3;
      plan_age_.sum_us += age_us;
      ++plan_age_.samples;
      plan_age_.max_us = std::max(plan_age_.max_us, age_us);
    }
    phy::Frame poll;
    poll.type = phy::FrameType::kPoll;
    poll.dst = topo::kNoNode;  // broadcast to associated clients
    poll.bytes = timing_.poll_bytes + timing_.wifi.mac_header_bytes;
    poll.duration = dur_.poll_air;
    poll.slot_tag = g;
    poll.poll_symbol = symbols;
    poll.poll_roster = std::move(roster);
    const TimeNs response_window =
        poll.duration + timing_.wifi.slot_time +
        static_cast<TimeNs>(symbols) * timing_.rop_symbol + usec(2);
    radio_.send(poll);
    sim_.post_in(response_window, [this, g] { evaluate_poll(g); });
  });
}

void DominoApMac::evaluate_poll(std::uint64_t g) {
  polling_ = false;
  if (!powered_) return;
  ApReport report;
  report.ap = node();
  report.poll_slot = g;

  // Adjacency tolerance check among the simultaneous responders, with the
  // MAC-level model fitted from the signal-level ROP study (Figure 6).
  // Only clients answering in the SAME poll symbol are on the air together,
  // so co-client interference is scoped per symbol; the subchannel comes
  // from the response itself (an adaptive roster may reassign it round to
  // round).
  for (const PollResponse& r : poll_responses_) {
    if (!r.decoded) continue;
    std::vector<rop::RopLinkModel::CoClient> others;
    double my_rss = topo::kRssFaint;
    for (const ClientInfo& ci : clients_) {
      if (ci.client == r.client) {
        my_rss = ci.rss_at_ap;
        continue;
      }
      for (const PollResponse& o : poll_responses_) {
        if (o.client == ci.client && o.decoded && o.symbol == r.symbol) {
          others.push_back({o.subchannel, ci.rss_at_ap});
          break;
        }
      }
    }
    const bool ok = rop_model_.report_decodes(
        r.subchannel, my_rss, others,
        radio_.medium().topology().thresholds().noise_floor_dbm,
        radio_.medium().external_interference_mw());
    if (ok) {
      report.clients.push_back(ClientQueueReport{r.client, r.report});
    }
  }
  // Piggyback the AP's own downlink backlog per client: the controller's
  // only view of downlink demand.
  for (const ClientInfo& ci : clients_) {
    report.downlink.push_back(ClientQueueReport{
        ci.client,
        static_cast<unsigned>(std::min<std::size_t>(
            queue_.count_for(ci.client), 1023))});
  }
  if (report_fn_) report_fn_(report);
}

void DominoApMac::handle_frame(const phy::Frame& frame,
                               const phy::RxInfo& info) {
  switch (frame.type) {
    case phy::FrameType::kData:
    case phy::FrameType::kFakeHeader: {
      if (frame.dst != node() || !info.decoded) break;
      // A frame from a client that roamed away or left while it was in the
      // air is treated like a loss: no delivery, no ACK. Its dedup filter
      // already moved with it, so delivering here would raise a duplicate
      // when the unacknowledged head is retransmitted at the new AP.
      bool registered = false;
      for (const ClientInfo& ci : clients_) {
        if (ci.client == frame.src) {
          registered = true;
          break;
        }
      }
      if (!registered) break;
      // Match the earliest pending (non-stale) uplink row expecting this
      // client.
      Row* match = nullptr;
      for (auto& [g, row] : rows_) {
        if (frontier_ != 0 && g <= frontier_) continue;
        if (!row.executed && row.plan.role == ApSlotPlan::Role::kRxData &&
            row.plan.peer == frame.src) {
          match = &row;
          break;
        }
      }
      const bool is_data = frame.type == phy::FrameType::kData;
      // ACK after SIFS, carrying the client's signature instruction
      // (Figure 8b). Fake headers are acknowledged too: the ACK phase is
      // part of the fixed slot structure and it is the only carrier for
      // the client's S1 samples / continuation bit on uplink slots.
      phy::SignatureBurst instr;
      std::uint64_t tag = frame.slot_tag;
      if (match != nullptr) {
        instr.codes = match->plan.client_codes;
        instr.start_signature = !match->plan.rop_after;
        instr.rop_signature = match->plan.rop_after;
        instr.continue_next = match->plan.client_continue;
        instr.rop_symbols =
            std::max<std::uint32_t>(match->plan.rop_symbols, 1);
        tag = match->plan.global_index;
      } else {
        instr.start_signature = true;
      }
      const auto ack_for = frame.packet_id;
      const auto back_to = frame.src;
      // The ACK always sits at the slot's fixed ACK phase — even for a
      // header-only fake packet — so concurrent links' ACK phases align
      // and only interfere with each other, never with data.
      const TimeNs ack_at =
          is_data ? timing_.wifi.sifs
                  : dur_.data_air - dur_.fake_air +
                        timing_.wifi.sifs;
      sim_.post_in(ack_at, [this, ack_for, back_to, instr, tag] {
        phy::Frame ack;
        ack.type = phy::FrameType::kAck;
        ack.dst = back_to;
        ack.bytes = timing_.wifi.ack_bytes;
        ack.duration = dur_.ack_air;
        ack.packet_id = ack_for;
        ack.slot_tag = tag;
        ack.client_instruction = instr;
        radio_.send(ack);
      });
      if (is_data && frame.packet.has_value()) {
        if (seen_[frame.src].insert(frame.packet_id)) {
          deliver_(*frame.packet, node(), sim_.now());
        }
      }
      if (match != nullptr) {
        match->executed = true;
        ++rows_executed_;
        advance_frontier(match->plan.global_index);
        note_chain_resume(sim_.now());
        const TimeNs t0 =
            sim_.now() - (is_data ? dur_.data_air : dur_.fake_air);
        TimeNs anchor_t0 = t0;
        const TimeNs lattice = anchored_start(match->plan.global_index);
        if (lattice != kTimeNever && t0 > lattice &&
            t0 - lattice < dur_.slot_duration / 4) {
          anchor_t0 = lattice;
        }
        update_anchor(match->plan.global_index, anchor_t0, /*force=*/true);
        after_data_phase(*match, t0, /*uplink=*/true);
      }
      break;
    }
    case phy::FrameType::kAck: {
      if (frame.dst != node() || !info.decoded) break;
      if (awaiting_ack_valid_ && frame.packet_id == awaiting_ack_) {
        sim_.cancel(ack_timer_);
        awaiting_ack_valid_ = false;
        tx_attempts_.erase(awaiting_ack_);
        (void)queue_.pop_for(awaiting_peer_);
      }
      break;
    }
    case phy::FrameType::kRopResponse: {
      if (frame.dst != node() || !polling_) break;
      poll_responses_.push_back(PollResponse{frame.src, frame.subchannel,
                                             frame.queue_report, info.decoded,
                                             frame.poll_symbol});
      break;
    }
    default:
      break;
  }
}

// --------------------------------------------------------------------------
// DominoClientMac
// --------------------------------------------------------------------------

DominoClientMac::DominoClientMac(sim::Simulator& sim, phy::Medium& medium,
                                 topo::NodeId node, topo::NodeId ap,
                                 const rop::PollSlot& slot,
                                 const DominoTiming& timing,
                                 const SignaturePlan& signatures,
                                 const phy::SignatureDetectionModel& model,
                                 Rng rng, mac::DeliveryFn deliver,
                                 DominoTrace* trace)
    : DominoNodeBase(sim, medium, node, timing, signatures, model,
                     std::move(rng), trace),
      ap_(ap),
      slot_(slot),
      deliver_(std::move(deliver)),
      queue_(timing.wifi.queue_capacity) {}

bool DominoClientMac::enqueue(traffic::Packet p) {
  p.enqueued = sim_.now();
  return queue_.push(std::move(p));
}

void DominoClientMac::reassociate(topo::NodeId new_ap,
                                  const rop::PollSlot& slot) {
  slot_ = slot;
  if (new_ap == ap_) return;
  // A transmission scheduled off the old AP's trigger must not fire toward
  // the new one: the new AP's schedule has no row for it, and the old AP no
  // longer carries this client. The head simply waits for the next trigger.
  if (tx_scheduled_) {
    sim_.cancel(tx_event_);
    tx_scheduled_ = false;
  }
  // The ACK timer (if armed) stays: its timeout only counts a miss and
  // leaves the head queued — exactly right when the old AP's ACK will never
  // arrive. seen_ is kept too: packet ids are globally unique, so retained
  // history still suppresses duplicates the old AP forwarded.
  queue_.retarget(ap_, new_ap);
  ap_ = new_ap;
}

void DominoClientMac::on_trigger_detected(std::uint64_t tag,
                                          std::uint32_t rop_symbols,
                                          TimeNs detect_time) {
  // Transmit in slot tag+1, one WiFi slot after the trigger (plus the ROP
  // exchange when the boundary carries an ROP slot).
  schedule_data_tx(tag + 1,
                   detect_time + timing_.wifi.slot_time +
                       (rop_symbols != 0 ? dur_.rop_duration(rop_symbols)
                                         : 0));
}

void DominoClientMac::on_anchor_moved() {
  if (!tx_scheduled_) return;
  const TimeNs snapped = expected_start(tx_slot_tag_);
  if (snapped > sim_.now() &&
      std::abs(snapped - tx_scheduled_at_) < dur_.slot_duration / 4) {
    sim_.cancel(tx_event_);
    tx_scheduled_at_ = snapped;
    tx_event_ =
        sim_.schedule_at(snapped, [this] { execute_tx(tx_slot_tag_); });
  }
}

void DominoClientMac::schedule_data_tx(std::uint64_t tag, TimeNs at) {
  if (tag <= last_tx_tag_ && last_tx_tag_ != 0) return;  // stale trigger
  // Later triggers re-anchor a still-pending transmission ("last correctly
  // received trigger as time reference").
  if (tx_scheduled_) sim_.cancel(tx_event_);
  tx_scheduled_ = true;
  tx_slot_tag_ = tag;
  tx_scheduled_at_ = std::max(at, sim_.now());
  tx_event_ = sim_.schedule_at(tx_scheduled_at_,
                               [this] { execute_tx(tx_slot_tag_); });
}

void DominoClientMac::handle_continuation(const phy::SignatureBurst& instr,
                                          std::uint64_t tag, TimeNs slot_t0) {
  if (!instr.continue_next) return;
  if (trace_ != nullptr && trace_->on_continuation) {
    trace_->on_continuation(tag + 1, node(), sim_.now());
  }
  const TimeNs next_t0 =
      slot_t0 + dur_.slot_duration +
      (instr.rop_signature ? dur_.rop_duration(instr.rop_symbols) : 0);
  schedule_data_tx(tag + 1, next_t0);
}

void DominoClientMac::execute_tx(std::uint64_t slot_tag) {
  tx_scheduled_ = false;
  if (radio_.transmitting()) {
    tx_scheduled_ = true;
    tx_event_ = sim_.schedule_in(kTxBusyRetry,
                                 [this, slot_tag] { execute_tx(slot_tag); });
    return;
  }
  last_tx_tag_ = std::max(last_tx_tag_, slot_tag);
  note_chain_resume(sim_.now());
  const traffic::Packet* head = queue_.front();
  if (trace_ != nullptr && trace_->on_data_tx) {
    trace_->on_data_tx(slot_tag, node(), ap_, sim_.now(), head == nullptr,
                       /*uplink=*/true);
  }
  phy::Frame f;
  f.dst = ap_;
  f.slot_tag = slot_tag;
  if (head != nullptr) {
    f.type = phy::FrameType::kData;
    f.bytes = head->bytes + timing_.wifi.mac_header_bytes;
    f.duration = dur_.data_air;
    f.packet = *head;
    f.packet_id = head->id;
    f.is_retry = awaiting_ack_valid_ && awaiting_ack_ == head->id;
    awaiting_ack_ = head->id;
    awaiting_ack_valid_ = true;
    sim_.cancel(ack_timer_);
    ack_timer_ = sim_.schedule_in(
        f.duration + timing_.wifi.sifs + dur_.ack_air +
            timing_.wifi.slot_time,
        [this] {
          // Missed ACK (§3.5): the packet stays at the head of the queue
          // and is retransmitted on the next trigger.
          ++ack_timeouts_;
        });
  } else {
    f.type = phy::FrameType::kFakeHeader;
    f.bytes = timing_.fake_header_bytes;
    f.duration = dur_.fake_air;
  }
  radio_.send(f);
}

void DominoClientMac::schedule_instructed_burst(
    const phy::SignatureBurst& instr, std::uint64_t tag, TimeNs at) {
  if (instr.codes.empty()) return;
  const std::vector<std::size_t> codes = instr.codes;
  const bool rop = instr.rop_signature;
  const std::uint32_t symbols = instr.rop_symbols;
  sim_.post_at(std::max(at, sim_.now()), [this, codes, tag, rop, symbols] {
    send_burst(codes, tag, rop, /*recovery=*/false, symbols);
  });
}

void DominoClientMac::handle_frame(const phy::Frame& frame,
                                   const phy::RxInfo& info) {
  if (!info.decoded) return;
  switch (frame.type) {
    case phy::FrameType::kData: {
      if (frame.dst != node() || frame.src != ap_ ||
          !frame.packet.has_value()) {
        break;
      }
      // ACK after SIFS.
      const auto ack_for = frame.packet_id;
      const auto tag = frame.slot_tag;
      sim_.post_in(timing_.wifi.sifs, [this, ack_for, tag] {
        phy::Frame ack;
        ack.type = phy::FrameType::kAck;
        ack.dst = ap_;
        ack.bytes = timing_.wifi.ack_bytes;
        ack.duration = dur_.ack_air;
        ack.packet_id = ack_for;
        ack.slot_tag = tag;
        radio_.send(ack);
      });
      if (seen_.insert(frame.packet_id)) {
        deliver_(*frame.packet, node(), sim_.now());
        // Auditor self-test defect (audit::Mutation::kMacDoubleDelivery).
        if (test_double_delivery_) deliver_(*frame.packet, node(), sim_.now());
      }
      // Rebroadcast the instructed signatures at the slot's signature
      // phase: our ACK ends at now + SIFS + ack_air; burst one slot later.
      if (frame.client_instruction.has_value()) {
        schedule_instructed_burst(*frame.client_instruction, frame.slot_tag,
                                  sim_.now() + timing_.wifi.sifs +
                                      dur_.ack_air +
                                      timing_.wifi.slot_time);
        handle_continuation(*frame.client_instruction, frame.slot_tag,
                            sim_.now() - dur_.data_air);
      }
      break;
    }
    case phy::FrameType::kFakeHeader: {
      if (frame.dst != node() || frame.src != ap_) break;
      if (frame.client_instruction.has_value()) {
        // Fixed slot structure: the signature phase sits at the same offset
        // from the slot start whether the data phase was real or fake.
        const TimeNs slot_t0 = sim_.now() - dur_.fake_air;
        schedule_instructed_burst(*frame.client_instruction, frame.slot_tag,
                                  slot_t0 + dur_.sig_phase_offset);
        handle_continuation(*frame.client_instruction, frame.slot_tag,
                            slot_t0);
      }
      break;
    }
    case phy::FrameType::kAck: {
      if (frame.dst != node() || frame.src != ap_) break;
      if (awaiting_ack_valid_ && frame.packet_id == awaiting_ack_) {
        sim_.cancel(ack_timer_);
        awaiting_ack_valid_ = false;
        queue_.pop();  // the acked packet was the head
      }
      // Uplink slots: the instruction rides the AP's ACK (Figure 8b); the
      // burst goes at the slot's fixed signature-phase offset. ACKs sit at
      // the same slot phase whether the data was real or a fake header.
      if (frame.client_instruction.has_value()) {
        const TimeNs t0 = sim_.now() - dur_.ack_air -
                          timing_.wifi.sifs - dur_.data_air;
        schedule_instructed_burst(*frame.client_instruction, frame.slot_tag,
                                  t0 + dur_.sig_phase_offset);
        handle_continuation(*frame.client_instruction, frame.slot_tag, t0);
      }
      break;
    }
    case phy::FrameType::kPoll: {
      if (frame.src != ap_) break;
      const auto tag = frame.slot_tag;
      // Static modes (no roster): answer on our slot, unless the poll was
      // planned before the slot's symbol was in use. kAdaptive: answer on
      // our roster entry; outside the roster stay silent (the planner
      // polls us again within its bounded interval).
      std::size_t subch = slot_.subchannel;
      auto symbol = static_cast<std::uint32_t>(slot_.symbol);
      if (!frame.poll_roster.empty()) {
        bool mine = false;
        for (const phy::PollAssignment& a : frame.poll_roster) {
          if (a.client == node()) {
            subch = a.subchannel;
            symbol = a.symbol;
            mine = true;
            break;
          }
        }
        if (!mine) break;
      }
      if (symbol >= frame.poll_symbol) break;
      // Auditor self-test defect (audit::Mutation::kRopCrossSymbolCollision):
      // transmit in symbol 0 regardless of the assigned symbol.
      if (test_poll_symbol_collapse_) symbol = 0;
      sim_.post_in(timing_.wifi.slot_time +
                       static_cast<TimeNs>(symbol) * timing_.rop_symbol,
                   [this, tag, subch, symbol] {
        phy::Frame resp;
        resp.type = phy::FrameType::kRopResponse;
        resp.dst = ap_;
        resp.duration = timing_.rop_symbol;
        resp.subchannel = subch;
        resp.poll_symbol = symbol;
        resp.queue_report = static_cast<unsigned>(
            std::min<std::size_t>(queue_.size(), 63));
        // Auditor self-test defect (audit::Mutation::kRopReportOffset).
        if (test_rop_report_offset_) ++resp.queue_report;
        resp.slot_tag = tag;
        radio_.send(resp);
      });
      break;
    }
    default:
      break;
  }
}

}  // namespace dmn::domino
