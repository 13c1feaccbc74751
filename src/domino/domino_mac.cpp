#include "domino/domino_mac.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

#include "fault/fault_injector.h"
#include "util/units.h"

namespace dmn::domino {
namespace {

/// Settling delay before evaluating buffered signature bursts: concurrent
/// bursts end within a couple of microseconds of each other.
constexpr TimeNs kSigEvalSettle = usec(2);

/// Retry delay when an action lands while our own radio is still keyed.
constexpr TimeNs kTxBusyRetry = usec(7);

/// The signature instruction an AP frame carries for its client in slot
/// `p`: the client's burst codes, S' or the ROP signature, and the
/// continuation bit.
phy::SignatureBurst instruction_for(const ApSlotPlan& p) {
  phy::SignatureBurst instr;
  instr.codes = p.client_codes;
  instr.start_signature = !p.rop_after;
  instr.rop_signature = p.rop_after;
  instr.continue_next = p.client_continue;
  instr.rop_symbols = std::max<std::uint32_t>(p.rop_symbols, 1);
  return instr;
}

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

void DominoNodeBase::send_burst(const phy::SignatureCodes& codes,
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
  if (moved_later && !force) snap_pending_tx();
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

TimeNs DominoNodeBase::anchored_start(std::uint64_t g) const {
  if (!has_anchor()) return kTimeNever;
  TimeNs at = expected_start(g);
  for (auto it = std::ranges::lower_bound(rop_boundaries_, anchor_tag(), {},
                                          &ApSchedule::RopBoundary::slot);
       it != rop_boundaries_.end() && it->slot < g; ++it) {
    at += dur_.rop_duration(it->symbols);
  }
  return at;
}

void DominoNodeBase::arm_tx(std::uint64_t slot, TimeNs at, TimeNs fire_at) {
  cancel_tx();
  pending_tx_ = PendingTx{
      slot, at, sim_.schedule_at(std::max({at, fire_at, sim_.now()}),
                                 [this, slot] { fire_tx(slot); })};
}

void DominoNodeBase::cancel_tx() {
  if (pending_tx_) sim_.cancel(pending_tx_->event);
  pending_tx_.reset();
}

void DominoNodeBase::fire_tx(std::uint64_t slot) {
  if (radio_.transmitting()) {
    // Keep the trigger-timed `at` a snap compares against; a self-start
    // has none and snaps against now.
    const TimeNs at = pending_tx_ && pending_tx_->slot == slot
                          ? pending_tx_->at
                          : sim_.now();
    arm_tx(slot, at, sim_.now() + kTxBusyRetry);
    return;
  }
  // A self-start may run a slot whose trigger-armed TX is still queued.
  if (pending_tx_ && pending_tx_->slot <= slot) cancel_tx();
  execute_tx(slot);
}

void DominoNodeBase::snap_pending_tx() {
  if (!pending_tx_) return;
  // Fine alignment only: snap a pending transmission onto the freshly
  // heard lattice when the correction is a fraction of a slot. Larger
  // disagreements mean the reference belongs to a differently-phased chain
  // and adopting it would pull us out of our own slot.
  const TimeNs snapped = anchored_start(pending_tx_->slot);
  if (snapped > sim_.now() &&
      std::abs(snapped - pending_tx_->at) < dur_.slot_duration / 4) {
    arm_tx(pending_tx_->slot, snapped);
  }
}

void DominoNodeBase::send_data_phase(std::uint64_t slot, topo::NodeId peer,
                                     const traffic::Packet* pkt,
                                     std::optional<phy::SignatureBurst> instr,
                                     bool uplink) {
  if (trace_ != nullptr && trace_->on_data_tx) {
    trace_->on_data_tx(slot, node(), peer, sim_.now(), pkt == nullptr,
                       uplink);
  }
  phy::Frame f;
  f.dst = peer;
  f.slot_tag = slot;
  f.client_instruction = std::move(instr);
  if (pkt != nullptr) {
    f.type = phy::FrameType::kData;
    f.bytes = pkt->bytes + timing_.wifi.mac_header_bytes;
    f.duration = dur_.data_air;
    f.packet = *pkt;
    f.packet_id = pkt->id;
    awaiting_ack_ = AwaitedAck{pkt->id, peer};
    sim_.cancel(ack_timer_);
    ack_timer_ = sim_.schedule_in(f.duration + timing_.wifi.sifs +
                                      dur_.ack_air + timing_.wifi.slot_time,
                                  [this] { on_ack_timeout(); });
  } else {
    f.type = phy::FrameType::kFakeHeader;
    f.bytes = timing_.fake_header_bytes;
    f.duration = dur_.fake_air;
  }
  radio_.send(f);
}

void DominoNodeBase::send_ack(topo::NodeId to, traffic::PacketId id,
                              std::uint64_t tag,
                              std::optional<phy::SignatureBurst> instr) {
  if (!powered_) return;  // an outage began inside the ACK delay
  phy::Frame ack;
  ack.type = phy::FrameType::kAck;
  ack.dst = to;
  ack.bytes = timing_.wifi.ack_bytes;
  ack.duration = dur_.ack_air;
  ack.packet_id = id;
  ack.slot_tag = tag;
  ack.client_instruction = std::move(instr);
  radio_.send(ack);
}

std::optional<DominoNodeBase::AwaitedAck> DominoNodeBase::take_ack(
    const phy::Frame& frame) {
  if (!awaiting_ack_ || frame.packet_id != awaiting_ack_->id) {
    return std::nullopt;
  }
  sim_.cancel(ack_timer_);
  tx_attempts_.erase(awaiting_ack_->id);
  return std::exchange(awaiting_ack_, std::nullopt);
}

void DominoNodeBase::on_ack_timeout() {
  ++ack_timeouts_;
  const AwaitedAck missed = *std::exchange(awaiting_ack_, std::nullopt);
  if (++tx_attempts_[missed.id] > timing_.wifi.retry_limit) {
    tx_attempts_.erase(missed.id);
    drop_unacked(missed.peer);
    ++retry_drops_;
  } else {
    // Packet ids rise with arrival time within a queue, so map order is age
    // order: evict oldest.
    while (tx_attempts_.size() > kTxAttemptsCap) {
      tx_attempts_.erase(tx_attempts_.begin());
    }
  }
}

void DominoNodeBase::post_burst(const phy::SignatureCodes& codes,
                                std::uint64_t tag, bool rop_flag,
                                std::uint32_t rop_symbols, TimeNs at) {
  sim_.post_at(std::max(at, sim_.now()),
               [this, codes, tag, rop_flag, rop_symbols] {
                 send_burst(codes, tag, rop_flag, /*recovery=*/false,
                            rop_symbols);
               });
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
    sig_buffer_.push_back(BufferedBurst{*frame.burst, info.min_sinr,
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
  sig_eval_.swap(sig_buffer_);
  sig_buffer_.clear();
  const std::vector<BufferedBurst>& bursts = sig_eval_;
  if (bursts.empty() || !powered_) return;

  // Total combined signatures on the air — the x-axis of Figure 9.
  int total = 0;
  for (const BufferedBurst& b : bursts) {
    total += static_cast<int>(b.burst.codes.size());
  }

  const std::size_t my_code = signatures_.code_of(node());
  for (const BufferedBurst& b : bursts) {
    bool has_mine = b.burst.codes.contains(my_code);
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
    if (mutation_ == audit::Mutation::kMacTriggerWithoutSignature &&
        triggering && !b.burst.recovery) {
      has_mine = true;
    }

    if (!has_mine) continue;
    if (!triggering) continue;
    // dB only for a burst that reaches the detection model.
    if (!model_.sample_detect(total, ratio_to_db(b.min_sinr), rng_)) continue;
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
                         std::function<void(ApReport)> report_fn,
                         DominoTrace* trace)
    : DominoNodeBase(sim, medium, node, timing, signatures, model,
                     std::move(rng), trace),
      MacEntity(sim, timing.wifi.queue_capacity),
      rop_params_(rop_params),
      rop_model_(rop_params),
      deliver_(std::move(deliver)),
      report_fn_(std::move(report_fn)) {}

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
  // The packet awaiting its ACK must stay: the ACK and timeout paths pop
  // it via queue_.pop_for(peer) and would otherwise pop a different packet
  // for the same (departed) peer.
  std::optional<traffic::PacketId> exclude;
  if (awaiting_ack_ && awaiting_ack_->peer == dst) exclude = awaiting_ack_->id;
  return queue_.extract_for(dst, exclude);
}

DominoApMac::RowIt DominoApMac::row_at_or_after(std::uint64_t g) {
  return std::ranges::lower_bound(rows_, g, {},
                                  [](const Row& r) { return r.slot(); });
}

DominoApMac::Row* DominoApMac::find_row(std::uint64_t g) {
  const RowIt it = row_at_or_after(g);
  return it == rows_.end() || it->slot() != g ? nullptr : &*it;
}

DominoApMac::RowIt DominoApMac::first_above_frontier() {
  return frontier_ == 0 ? rows_.begin() : row_at_or_after(frontier_ + 1);
}

DominoApMac::Row* DominoApMac::next_pending() {
  // Executing a row moves the frontier to it, so only a row 0 can be
  // executed and still lie past a frontier of 0 (which reads as none).
  for (auto it = first_above_frontier(); it != rows_.end(); ++it) {
    if (!it->executed) return &*it;
  }
  return nullptr;
}

void DominoApMac::mark_executed(Row& r) {
  const std::uint64_t g = r.slot();
  r.executed = true;
  ++rows_executed_;
  for (auto it = rows_.begin(); it != rows_.end() && it->slot() < g; ++it) {
    if (!it->executed) {
      it->executed = true;
      ++missed_rows_;
    }
  }
  frontier_ = std::max(frontier_, g);
}

void DominoApMac::set_powered(bool on) {
  if (on == powered_) return;
  powered_ = on;
  if (!on) {
    cancel_tx();
    sim_.cancel(ack_timer_);
    awaiting_ack_.reset();
    polling_ = false;
    poll_responses_.clear();
  }
  // Power-down cancels the self-start. A restart resumes from the retained
  // schedule on the (possibly stale) anchor; the first heard trigger
  // re-snaps the lattice.
  arm_self_start();
}

void DominoApMac::receive_plan(const ApSchedule& plan) {
  if (!powered_) return;  // a dark AP loses its dispatches
  for (const ApSlotPlan& p : plan.slots) {
    RowIt it = row_at_or_after(p.global_index);
    const bool fresh = it == rows_.end() || it->slot() != p.global_index;
    if (fresh) it = rows_.insert(it, Row{.plan = p});
    Row& row = *it;
    if (fresh || (p.polls_in_rop && !row.plan.polls_in_rop)) {
      row.planned_at = plan.planned_at;
    }
    if (!fresh) {
      // Overlap-slot merge: the next batch re-ships the retained slot with
      // the triggers pointing into the new batch.
      ApSlotPlan& cur = row.plan;
      for (std::size_t c : p.my_codes) {
        if (!cur.my_codes.contains(c)) cur.my_codes.push_back(c);
      }
      for (std::size_t c : p.client_codes) {
        if (!cur.client_codes.contains(c)) cur.client_codes.push_back(c);
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
    auto it = std::ranges::lower_bound(rop_boundaries_, b.slot, {},
                                       &ApSchedule::RopBoundary::slot);
    if (it == rop_boundaries_.end() || it->slot != b.slot) {
      it = rop_boundaries_.insert(it, {b.slot, 0});
    }
    it->symbols = std::max(it->symbols, std::max<std::uint32_t>(b.symbols, 1));
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
  // A kicked uplink row is written off one response window after the kick,
  // bootstrap or not. Otherwise, bootstrap (nothing executed yet): strict
  // start exactly at the expected slot time — that is the paper's "APs
  // individually start executing". Afterwards, the trigger chain leads and
  // the self-start acts as the anchored local slot clock with a small
  // guard; uplink rows additionally wait out a full data frame before the
  // AP kicks the silent client.
  if (r.kick_sent) return r.kick_deadline;
  TimeNs due = anchored_start(r.plan.global_index);
  if (rows_executed_ == 0) return due;
  due += 2 * timing_.wifi.slot_time;
  if (r.plan.role == ApSlotPlan::Role::kRxData) {
    due += dur_.data_air + timing_.wifi.sifs + dur_.ack_air;
  }
  return due;
}

void DominoApMac::arm_self_start(TimeNs not_before) {
  const Row* r = powered_ && has_anchor() ? next_pending() : nullptr;
  const TimeNs at = r == nullptr
                        ? kTimeNever
                        : std::max({row_due(*r), not_before, sim_.now()});
  if (self_start_timer_.pending() && at == self_start_at_) return;
  sim_.cancel(self_start_timer_);
  if (at == kTimeNever) return;
  self_start_at_ = at;
  self_start_timer_ =
      sim_.schedule_at(at, [this] { on_self_start_timer(); });
}

void DominoApMac::on_self_start_timer() {
  Row* r = next_pending();
  if (r == nullptr) return;
  const std::uint64_t g = r->plan.global_index;
  if (sim_.now() < row_due(*r)) {
    arm_self_start();
    return;
  }
  // Self-starts are recovery actions, not scheduled concurrency: unlike
  // trigger-driven transmissions they defer to carrier sense so a lagging
  // AP does not stomp on chains that are still running.
  if (rows_executed_ > 0 && radio_.carrier_busy()) {
    arm_self_start(sim_.now() + 6 * timing_.wifi.slot_time);
    return;
  }
  switch (r->plan.role) {
    case ApSlotPlan::Role::kTxData:
      ++self_starts_;
      fire_tx(g);
      break;
    case ApSlotPlan::Role::kRxData:
      if (!r->kick_sent) {
        // Bootstrap rule (§3.3): for an uplink at the head of a stalled
        // schedule the AP sends the client's signature to start it, and
        // gives the client one response window (row_due is now the kick
        // deadline) before writing the row off.
        r->kick_sent = true;
        r->kick_deadline = sim_.now() + 2 * dur_.slot_duration;
        ++self_starts_;
        note_chain_resume(sim_.now());
        send_burst({signatures_.code_of(r->plan.peer)}, g - 1,
                   /*rop_flag=*/false, /*recovery=*/true);
      } else {
        // The client never showed up; write the slot off and move on.
        mark_executed(*r);
      }
      arm_self_start();
      break;
    case ApSlotPlan::Role::kNone:
      mark_executed(*r);
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
    mark_executed(*r);
    execute_poll(tag, detect_time + timing_.wifi.slot_time);
  }
  // A data transmitter of slot tag+1 starts one slot (plus ROP) later.
  Row* nxt = find_row(tag + 1);
  if (nxt != nullptr && !nxt->executed &&
      nxt->plan.role == ApSlotPlan::Role::kTxData) {
    arm_tx(tag + 1, detect_time + timing_.wifi.slot_time +
                        (rop_symbols != 0 ? dur_.rop_duration(rop_symbols)
                                          : 0));
  }
  arm_self_start();
}

void DominoApMac::execute_tx(std::uint64_t g) {
  Row* r = find_row(g);
  if (r == nullptr || r->executed) return;
  if (frontier_ != 0 && g <= frontier_) return;  // stale slot
  const ApSlotPlan& p = r->plan;
  send_data_phase(g, p.peer, queue_.front_for(p.peer), instruction_for(p),
                  /*uplink=*/false);
  run_row(*r, sim_.now());
}

void DominoApMac::run_row(Row& r, TimeNs t0) {
  const std::uint64_t g = r.plan.global_index;
  mark_executed(r);
  note_chain_resume(sim_.now());
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
  post_burst(r.plan.my_codes, g, r.plan.rop_after, r.plan.rop_symbols,
             t0 + dur_.sig_phase_offset);
  const TimeNs burst_end = t0 + dur_.sig_phase_offset + dur_.burst_air;
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
      arm_tx(g + 1, now + timing_.wifi.slot_time +
                        (r->plan.rop_after
                             ? dur_.rop_duration(r->plan.rop_symbols)
                             : 0));
    }
  }
  prune_executed(g);
  arm_self_start();
}

void DominoApMac::prune_executed(std::uint64_t upto) {
  if (upto > 8) {
    rop_boundaries_.erase(
        rop_boundaries_.begin(),
        std::ranges::lower_bound(rop_boundaries_, upto - 8, {},
                                 &ApSchedule::RopBoundary::slot));
  }
  auto it = rows_.begin();
  for (; it != rows_.end() && it->slot() + 2 < upto; ++it) {
    if (!it->executed) ++missed_rows_;
  }
  rows_.erase(rows_.begin(), it);
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
  report.clients.reserve(poll_responses_.size());
  report.downlink.reserve(clients_.size());

  // Adjacency tolerance check among the simultaneous responders, with the
  // MAC-level model fitted from the signal-level ROP study (Figure 6).
  // Only clients answering in the SAME poll symbol are on the air together,
  // so co-client interference is scoped per symbol; the subchannel comes
  // from the response itself (an adaptive roster may reassign it round to
  // round).
  for (const PollResponse& r : poll_responses_) {
    if (!r.decoded) continue;
    co_clients_.clear();
    double my_rss = topo::kRssFaint;
    for (const ClientInfo& ci : clients_) {
      if (ci.client == r.client) {
        my_rss = ci.rss_at_ap;
        continue;
      }
      for (const PollResponse& o : poll_responses_) {
        if (o.client == ci.client && o.decoded && o.symbol == r.symbol) {
          co_clients_.push_back({o.subchannel, ci.rss_at_ap});
          break;
        }
      }
    }
    const bool ok = rop_model_.report_decodes(
        r.subchannel, my_rss, co_clients_,
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
  if (report_fn_) report_fn_(std::move(report));
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
      for (auto it = first_above_frontier(); it != rows_.end(); ++it) {
        Row& row = *it;
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
        instr = instruction_for(match->plan);
        tag = match->plan.global_index;
      } else {
        instr.start_signature = true;
      }
      // The ACK always sits at the slot's fixed ACK phase — even for a
      // header-only fake packet — so concurrent links' ACK phases align
      // and only interfere with each other, never with data.
      const TimeNs ack_at =
          is_data ? timing_.wifi.sifs
                  : dur_.data_air - dur_.fake_air +
                        timing_.wifi.sifs;
      auto ack = [this, instr, to = frame.src, id = frame.packet_id, tag] {
        send_ack(to, id, tag, instr);
      };
      static_assert(sizeof(ack) <= sim::EventFn::kInlineCapacity);
      sim_.post_in(ack_at, std::move(ack));
      if (is_data && frame.packet.has_value()) {
        if (seen_[frame.src].insert(frame.packet_id)) {
          deliver_(*frame.packet, node(), sim_.now());
        }
      }
      if (match != nullptr) {
        const TimeNs t0 =
            sim_.now() - (is_data ? dur_.data_air : dur_.fake_air);
        run_row(*match, t0);
      }
      break;
    }
    case phy::FrameType::kAck: {
      if (frame.dst != node() || !info.decoded) break;
      if (const auto acked = take_ack(frame)) {
        (void)queue_.pop_for(acked->peer);
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
                                 const rop::RopParams& rop_params, Rng rng,
                                 mac::DeliveryFn deliver, DominoTrace* trace)
    : DominoNodeBase(sim, medium, node, timing, signatures, model,
                     std::move(rng), trace),
      MacEntity(sim, timing.wifi.queue_capacity),
      ap_(ap),
      slot_(slot),
      max_report_(rop_params.max_queue_report()),
      deliver_(std::move(deliver)) {}

void DominoClientMac::reassociate(topo::NodeId new_ap,
                                  const rop::PollSlot& slot) {
  slot_ = slot;
  if (new_ap == ap_) return;
  // A transmission scheduled off the old AP's trigger must not fire toward
  // the new one: the new AP's schedule has no row for it, and the old AP no
  // longer carries this client. The head simply waits for the next trigger.
  cancel_tx();
  // The ACK timer (if armed) stays: its timeout counts a miss of the head
  // toward retry_limit — exactly right when the old AP's ACK will never
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
  arm_slot_tx(tag + 1, detect_time + timing_.wifi.slot_time +
                           (rop_symbols != 0 ? dur_.rop_duration(rop_symbols)
                                             : 0));
}

void DominoClientMac::arm_slot_tx(std::uint64_t tag, TimeNs at) {
  if (tag <= last_tx_tag_ && last_tx_tag_ != 0) return;  // stale trigger
  arm_tx(tag, at);
}

void DominoClientMac::follow_instruction(const phy::Frame& frame,
                                         TimeNs slot_t0) {
  if (!frame.client_instruction.has_value()) return;
  const phy::SignatureBurst& instr = *frame.client_instruction;
  const std::uint64_t tag = frame.slot_tag;
  if (!instr.codes.empty()) {
    post_burst(instr.codes, tag, instr.rop_signature, instr.rop_symbols,
               slot_t0 + dur_.sig_phase_offset);
  }
  if (!instr.continue_next) return;
  if (trace_ != nullptr && trace_->on_continuation) {
    trace_->on_continuation(tag + 1, node(), sim_.now());
  }
  arm_slot_tx(tag + 1, slot_t0 + dur_.slot_duration +
                           (instr.rop_signature
                                ? dur_.rop_duration(instr.rop_symbols)
                                : 0));
}

void DominoClientMac::execute_tx(std::uint64_t slot_tag) {
  last_tx_tag_ = std::max(last_tx_tag_, slot_tag);
  note_chain_resume(sim_.now());
  send_data_phase(slot_tag, ap_, queue_.front(), std::nullopt,
                  /*uplink=*/true);
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
      // ACK after SIFS, to the AP associated when it goes out.
      sim_.post_in(timing_.wifi.sifs,
                   [this, id = frame.packet_id, tag = frame.slot_tag] {
                     send_ack(ap_, id, tag, std::nullopt);
                   });
      if (seen_.insert(frame.packet_id)) {
        deliver_(*frame.packet, node(), sim_.now());
        // Auditor self-test defect (audit::Mutation::kMacDoubleDelivery).
        if (mutation_ == audit::Mutation::kMacDoubleDelivery) {
          deliver_(*frame.packet, node(), sim_.now());
        }
      }
      follow_instruction(frame, sim_.now() - dur_.data_air);
      break;
    }
    case phy::FrameType::kFakeHeader: {
      if (frame.dst != node() || frame.src != ap_) break;
      // Fixed slot structure: the signature phase sits at the same offset
      // from the slot start whether the data phase was real or fake.
      follow_instruction(frame, sim_.now() - dur_.fake_air);
      break;
    }
    case phy::FrameType::kAck: {
      if (frame.dst != node() || frame.src != ap_) break;
      if (take_ack(frame)) queue_.pop();  // the acked packet was the head
      // Uplink slots: the instruction rides the AP's ACK (Figure 8b); the
      // burst goes at the slot's fixed signature-phase offset. ACKs sit at
      // the same slot phase whether the data was real or a fake header.
      follow_instruction(frame, sim_.now() - dur_.ack_air -
                                    timing_.wifi.sifs - dur_.data_air);
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
      if (mutation_ == audit::Mutation::kRopCrossSymbolCollision) symbol = 0;
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
            std::min<std::size_t>(queue_.size(), max_report_));
        // Auditor self-test defect (audit::Mutation::kRopReportOffset).
        if (mutation_ == audit::Mutation::kRopReportOffset) {
          ++resp.queue_report;
        }
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
