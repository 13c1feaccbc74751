#include "mac/dcf.h"

#include <algorithm>
#include <cassert>

namespace dmn::mac {

DcfNode::DcfNode(sim::Simulator& sim, phy::Medium& medium, topo::NodeId node,
                 const WifiParams& params, Rng rng, DeliveryFn deliver)
    : MacEntity(sim, params.queue_capacity),
      sim_(sim),
      radio_(medium, node, this),
      params_(params),
      rng_(std::move(rng)),
      deliver_(std::move(deliver)),
      cw_(params.cw_min),
      backoff_slots_(-1) {}

bool DcfNode::enqueue(traffic::Packet p) {
  const bool ok = MacEntity::enqueue(std::move(p));
  if (ok && state_ == State::kIdle) start_access();
  return ok;
}

void DcfNode::on_arrivals_added() {
  if (state_ == State::kIdle) go_idle();
}

void DcfNode::go_idle() {
  state_ = State::kIdle;
  sim_.cancel(wake_);
  // A disabled node ignores arrivals; set_service_enabled(true) restarts
  // access itself.
  if (!service_enabled_) return;
  const TimeNs at = queue_.next_arrival();
  if (at == kTimeNever) return;
  wake_ = sim_.schedule_at(at, [this] {
    if (state_ == State::kIdle) start_access();
  });
}

void DcfNode::set_service_enabled(bool enabled) {
  service_enabled_ = enabled;
  if (enabled && state_ == State::kIdle) {
    start_access();
  }
}

void DcfNode::set_dest_filter(std::optional<topo::NodeId> dst) {
  dest_filter_ = dst;
  if (state_ == State::kIdle) start_access();
}

const traffic::Packet* DcfNode::head() {
  return dest_filter_.has_value() ? queue_.front_for(*dest_filter_)
                                  : queue_.front();
}

void DcfNode::start_access() {
  if (!service_enabled_ || head() == nullptr) {
    go_idle();
    return;
  }
  if (backoff_slots_ < 0) {
    // Fresh access attempt: draw the backoff now; it survives freezes.
    backoff_slots_ = fixed_backoff_.has_value()
                         ? *fixed_backoff_
                         : static_cast<int>(rng_.uniform_int(0, cw_));
  }
  begin_difs();
}

TimeNs DcfNode::current_ifs() const {
  const TimeNs difs_end = sim_.now() + params_.difs();
  return std::max(difs_end, eifs_until_) - sim_.now();
}

void DcfNode::begin_difs() {
  state_ = State::kWaitDifs;
  sim_.cancel(timer_);
  if (!medium_idle()) {
    return;  // resume on the idle edge (on_cs_change)
  }
  timer_ = sim_.schedule_in(current_ifs(), [this] { begin_backoff(); });
}

void DcfNode::begin_backoff() {
  if (!medium_idle()) {
    begin_difs();
    return;
  }
  state_ = State::kBackoff;
  backoff_resumed_at_ = sim_.now();
  sim_.cancel(timer_);
  timer_ = sim_.schedule_in(
      static_cast<TimeNs>(backoff_slots_) * params_.slot_time,
      [this] { transmit_head(); });
}

void DcfNode::pause_backoff() {
  // Credit fully elapsed slots.
  const auto elapsed = sim_.now() - backoff_resumed_at_;
  const int consumed = static_cast<int>(elapsed / params_.slot_time);
  backoff_slots_ = std::max(0, backoff_slots_ - consumed);
  sim_.cancel(timer_);
  state_ = State::kWaitDifs;
}

void DcfNode::on_cs_change(bool busy) {
  if (busy) {
    switch (state_) {
      case State::kWaitDifs:
        sim_.cancel(timer_);  // IFS interrupted; wait for the idle edge
        break;
      case State::kBackoff:
        pause_backoff();
        break;
      default:
        break;
    }
  } else {
    if (state_ == State::kWaitDifs) begin_difs();
  }
}

void DcfNode::transmit_head() {
  if (!medium_idle()) {
    begin_difs();
    return;
  }
  const traffic::Packet* hol = head();
  if (hol == nullptr) {
    go_idle();
    return;
  }
  backoff_slots_ = -1;  // consumed

  phy::Frame f;
  f.type = phy::FrameType::kData;
  f.dst = hol->dst;
  f.bytes = hol->bytes + params_.mac_header_bytes;
  f.duration = params_.data_airtime(hol->bytes);
  f.packet = *hol;
  f.packet_id = hol->id;

  // Set the state and ACK timer before keying the radio: the transmission
  // immediately flips our own carrier sense and on_cs_change must not
  // interpret that as a backoff freeze.
  state_ = State::kWaitAck;
  sim_.cancel(timer_);
  timer_ = sim_.schedule_in(f.duration + params_.ack_timeout(),
                            [this] { on_ack_timeout(); });
  radio_.send(f);
}

void DcfNode::on_ack_timeout() {
  ++ack_timeouts_;
  ++retry_count_;
  if (retry_count_ > params_.retry_limit) {
    ++retry_drops_;
    head_done(false);
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, params_.cw_max);
  backoff_slots_ = -1;  // redraw with the doubled window
  start_access();
}

void DcfNode::head_done(bool success) {
  auto popped = dest_filter_.has_value() ? queue_.pop_for(*dest_filter_)
                                         : queue_.pop();
  cw_ = params_.cw_min;
  retry_count_ = 0;
  backoff_slots_ = -1;
  if (popped && outcome_hook_) {
    // Invoke a copy: the hook may replace/clear itself (CENTAUR does when a
    // quota completes).
    auto hook = outcome_hook_;
    hook(*popped, success);
  }
  start_access();
}

std::vector<traffic::Packet> DcfNode::extract_queued_for(topo::NodeId dst) {
  // Exclude the in-flight head: head_done() pops by front/front_for, so
  // removing the packet the radio transmitted would make the completion
  // path pop a DIFFERENT packet and desynchronize the retry machinery.
  // During kWaitDifs/kBackoff the head is not yet committed — transmit_head
  // finds a null head and falls back to kIdle, which is safe.
  std::optional<traffic::PacketId> exclude;
  const bool in_flight =
      state_ == State::kWaitAck || state_ == State::kTxData;
  if (in_flight) {
    if (const traffic::Packet* h = head(); h != nullptr && h->dst == dst) {
      exclude = h->id;
    }
  }
  std::vector<traffic::Packet> out = queue_.extract_for(dst, exclude);
  // If a service grant (CENTAUR release) was waiting on this backlog and
  // the drain emptied it with nothing in flight, complete the grant now:
  // the outcome hook otherwise only fires on head completion, and the
  // releaser's epoch barrier would wait forever.
  if (!out.empty() && outcome_hook_ && !in_flight && head() == nullptr) {
    auto hook = outcome_hook_;
    hook(out.front(), false);
  }
  return out;
}

std::size_t DcfNode::retarget_queued(topo::NodeId from, topo::NodeId to) {
  // Deliberately rewrites the in-flight head too: the pending ACK matches
  // by packet id regardless of destination, and an ACK timeout then
  // retransmits toward the new AP (roam-then-retransmit).
  return queue_.retarget(from, to);
}

PacketIdSet& DcfNode::seen_from(topo::NodeId src) {
  auto it = std::lower_bound(
      seen_.begin(), seen_.end(), src,
      [](const auto& entry, topo::NodeId n) { return entry.first < n; });
  if (it == seen_.end() || it->first != src) {
    it = seen_.insert(it, {src, PacketIdSet{}});
  }
  return it->second;
}

void DcfNode::on_frame_rx(const phy::Frame& frame, const phy::RxInfo& info) {
  if (!info.decoded) {
    if (!info.half_duplex_loss) {
      // Erroneous frame: defer by EIFS from its end (i.e. from now).
      eifs_until_ = std::max(eifs_until_, sim_.now() + params_.eifs());
    }
    return;
  }
  eifs_until_ = 0;  // correctly received frame resets EIFS deferral

  switch (frame.type) {
    case phy::FrameType::kData: {
      if (frame.dst != radio_.node() || !frame.packet.has_value()) break;
      // SIFS-spaced ACK (sent regardless of CS, per the standard).
      const auto ack_for = frame.packet_id;
      const auto back_to = frame.src;
      sim_.post_in(params_.sifs, [this, ack_for, back_to] {
        phy::Frame ack;
        ack.type = phy::FrameType::kAck;
        ack.dst = back_to;
        ack.bytes = params_.ack_bytes;
        ack.duration = params_.ack_airtime();
        ack.packet_id = ack_for;
        radio_.send(ack);
      });
      // Duplicate filter: deliver each packet id from a sender only once.
      PacketIdSet& from = seen_from(frame.src);
      if (from.insert(frame.packet_id)) {
        if (from.size() > 4096) from.clear();  // bounded memory
        deliver_(*frame.packet, radio_.node(), sim_.now());
      }
      break;
    }
    case phy::FrameType::kAck: {
      if (frame.dst != radio_.node() || state_ != State::kWaitAck) break;
      const traffic::Packet* hol = head();
      if (hol != nullptr && frame.packet_id == hol->id) {
        sim_.cancel(timer_);
        head_done(true);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace dmn::mac
