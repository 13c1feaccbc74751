#include "phy/medium.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/units.h"

namespace dmn::phy {

Medium::Medium(sim::Simulator& sim, const topo::Topology& topo)
    : sim_(sim),
      topo_(topo),
      clients_(topo.num_nodes(), nullptr),
      inbound_mw_(topo.num_nodes(), 0.0),
      rop_inbound_mw_(topo.num_nodes(), 0.0),
      tx_count_(topo.num_nodes(), 0),
      cs_busy_(topo.num_nodes(), false),
      nav_until_(topo.num_nodes(), 0),
      cs_threshold_mw_(dbm_to_mw(topo.thresholds().cs_threshold_dbm)),
      noise_mw_(dbm_to_mw(topo.thresholds().noise_floor_dbm)) {}

void Medium::attach(topo::NodeId node, MediumClient* client) {
  if (!is_member(node)) {
    throw std::logic_error("medium: attach of node " + std::to_string(node) +
                           " outside this medium's partition");
  }
  clients_.at(static_cast<std::size_t>(node)) = client;
}

void Medium::restrict_to_nodes(std::vector<topo::NodeId> members) {
  std::sort(members.begin(), members.end());
  member_mask_.assign(topo_.num_nodes(), false);
  for (const topo::NodeId id : members) {
    member_mask_.at(static_cast<std::size_t>(id)) = true;
  }
  // No cross-partition airtime coupling: every audible neighbor of a member
  // must itself be a member, otherwise a transmission here would deposit
  // decodable power on a node simulated elsewhere.
  for (const topo::NodeId id : members) {
    for (const topo::NodeId nb : topo_.audible_from(id)) {
      if (!member_mask_[static_cast<std::size_t>(nb)]) {
        throw std::logic_error(
            "medium: partition not closed under audibility: node " +
            std::to_string(id) + " hears non-member " + std::to_string(nb));
      }
    }
  }
  members_ = std::move(members);
}

double Medium::decode_threshold_db(FrameType t) const {
  switch (t) {
    case FrameType::kData:
      return topo_.thresholds().sinr_data_db;
    case FrameType::kAck:
    case FrameType::kFakeHeader:
    case FrameType::kPoll:
    case FrameType::kRopResponse:
      return topo_.thresholds().sinr_control_db;
    case FrameType::kSignature:
      // Signatures are detected by correlation, not decoding; the SINR
      // handling for them lives in SignatureDetectionModel. The threshold
      // here only gates the "delivered at all" callback, so keep it at the
      // processing-gain-adjusted floor.
      return -21.0;  // 10*log10(127) below the control threshold (approx)
  }
  // All FrameType values are handled above; reaching here is memory
  // corruption, not a missing case.
  __builtin_unreachable();
}

std::uint32_t Medium::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Medium::apply_tx_power(const ActiveTx& tx, double sign) {
  // Auditor self-test defect: leave half the row behind on removal, the way
  // a missed bookkeeping path would (audit::Mutation::kMediumLeakPower).
  if (test_power_leak_ && sign < 0.0) sign = -0.5;
  // The diagonal of the linear-power matrix is exactly 0 mW (rss of a node
  // to itself is -inf dBm), so adding the whole row is a no-op for the
  // transmitter itself — matching the reference accounting that skipped
  // the own-source term.
  const auto row = topo_.rss_mw_row(tx.frame.src);
  double* inbound = inbound_mw_.data();
  if (members_.empty()) {
    const std::size_t n = inbound_mw_.size();
    for (std::size_t i = 0; i < n; ++i) inbound[i] += sign * row[i];
    if (tx.rop) {
      double* rop = rop_inbound_mw_.data();
      for (std::size_t i = 0; i < n; ++i) rop[i] += sign * row[i];
    }
  } else {
    // Partition-restricted medium: only member sums are maintained (power
    // on any non-member is sub-audible by the closure invariant). This is
    // the main algorithmic win of partitioning — O(partition) instead of
    // O(topology) per transmission edge.
    double* rop = rop_inbound_mw_.data();
    for (const topo::NodeId id : members_) {
      const auto i = static_cast<std::size_t>(id);
      inbound[i] += sign * row[i];
      if (tx.rop) rop[i] += sign * row[i];
    }
  }
  // Quiescence resets incremental sums to exactly zero, so add/remove
  // rounding residues cannot accumulate across the simulation.
  if (active_.empty()) {
    if (members_.empty()) {
      std::fill(inbound_mw_.begin(), inbound_mw_.end(), 0.0);
      std::fill(rop_inbound_mw_.begin(), rop_inbound_mw_.end(), 0.0);
    } else {
      for (const topo::NodeId id : members_) {
        inbound_mw_[static_cast<std::size_t>(id)] = 0.0;
        rop_inbound_mw_[static_cast<std::size_t>(id)] = 0.0;
      }
    }
  }
}

double Medium::interference_at(topo::NodeId node,
                               const ActiveTx& victim) const {
  const auto n = static_cast<std::size_t>(node);
  double acc = external_intf_mw_ + inbound_mw_[n];
  if (victim.rop) {
    // ROP responses are mutually orthogonal: exclude every concurrent ROP
    // contribution (the victim's own is part of that sum).
    acc -= rop_inbound_mw_[n];
  } else {
    acc -= topo_.rss_mw(victim.frame.src, node);
  }
  // Subtraction can leave a tiny negative residue when the victim is the
  // only contributor; interference is physically non-negative.
  return acc > 0.0 ? acc : 0.0;
}

void Medium::refresh_interference_and_cs() {
  // Update worst-case interference for every in-flight reception.
  for (const std::uint32_t slot : active_) {
    ActiveTx& tx = slab_[slot];
    for (RxAttempt& rx : tx.rx) {
      const double intf = interference_at(rx.node, tx);
      if (intf > rx.max_intf_mw) rx.max_intf_mw = intf;
      if (transmitting(rx.node)) rx.half_duplex_loss = true;
    }
  }
  // Edge-triggered CS notifications. The comparison happens in linear
  // power against the precomputed threshold (equivalent to the dBm
  // comparison by monotonicity of the conversion).
  auto check_cs = [this](std::size_t i) {
    const bool busy = tx_count_[i] > 0 ||
                      external_intf_mw_ + inbound_mw_[i] >= cs_threshold_mw_;
    if (busy != cs_busy_[i]) {
      cs_busy_[i] = busy;
      if (clients_[i] != nullptr) clients_[i]->on_cs_change(busy);
    }
  };
  if (members_.empty()) {
    const std::size_t n = clients_.size();
    for (std::size_t i = 0; i < n; ++i) check_cs(i);
  } else {
    for (const topo::NodeId id : members_) {
      check_cs(static_cast<std::size_t>(id));
    }
  }
  if (observer_ != nullptr) observer_->on_medium_accounting();
}

void Medium::transmit(const Frame& frame) {
  assert(frame.duration > 0 && "frame duration must be set");
  assert(frame.src != topo::kNoNode);
  if (!is_member(frame.src)) {
    throw std::logic_error("medium: transmit by node " +
                           std::to_string(frame.src) +
                           " outside this medium's partition");
  }
  const std::uint32_t slot = alloc_slot();
  ActiveTx& tx = slab_[slot];
  tx.frame = frame;
  tx.start = sim_.now();
  tx.end = sim_.now() + frame.duration;
  tx.rop = frame.type == FrameType::kRopResponse;
  tx.rx.clear();
  ++sent_[static_cast<std::size_t>(frame.type)];

  // Create reception attempts at every node that can hear the frame and is
  // not transmitting right now. The audible list is precomputed (ascending
  // id order) from the receiver-sensitivity threshold.
  for (const topo::NodeId id : topo_.audible_from(frame.src)) {
    if (clients_[static_cast<std::size_t>(id)] == nullptr) continue;
    RxAttempt rx;
    rx.node = id;
    rx.rss_mw = topo_.rss_mw(frame.src, id);
    rx.max_intf_mw = 0.0;
    rx.half_duplex_loss = transmitting(id);
    tx.rx.push_back(rx);
  }

  // NAV: nodes that hear the frame defer beyond its end. Applied at start
  // (header is early in the frame).
  if (frame.nav > 0) {
    for (const RxAttempt& rx : tx.rx) {
      nav_until_[static_cast<std::size_t>(rx.node)] =
          std::max(nav_until_[static_cast<std::size_t>(rx.node)],
                   tx.end + frame.nav);
    }
  }

  active_.push_back(slot);
  ++tx_count_[static_cast<std::size_t>(frame.src)];
  apply_tx_power(tx, +1.0);
  refresh_interference_and_cs();
  if (observer_ != nullptr) observer_->on_medium_tx(tx.frame, tx.start, tx.end);

  sim_.post_at(tx.end, [this, slot] { on_tx_end(slot); });
}

void Medium::on_tx_end(std::uint32_t slot) {
  ActiveTx& tx = slab_[slot];
  // One final interference refresh (captures transmissions that started and
  // are still running).
  for (RxAttempt& rx : tx.rx) {
    const double intf = interference_at(rx.node, tx);
    if (intf > rx.max_intf_mw) rx.max_intf_mw = intf;
    if (transmitting(rx.node)) rx.half_duplex_loss = true;
  }

  active_.erase(std::find(active_.begin(), active_.end(), slot));
  --tx_count_[static_cast<std::size_t>(tx.frame.src)];
  apply_tx_power(tx, -1.0);
  refresh_interference_and_cs();

  const double th = decode_threshold_db(tx.frame.type);
  for (const RxAttempt& rx : tx.rx) {
    MediumClient* client = clients_[static_cast<std::size_t>(rx.node)];
    if (client == nullptr) continue;
    RxInfo info;
    info.rss_dbm = mw_to_dbm(rx.rss_mw);
    info.min_sinr_db = ratio_to_db(rx.rss_mw / (noise_mw_ + rx.max_intf_mw));
    info.half_duplex_loss = rx.half_duplex_loss;
    info.decoded = !rx.half_duplex_loss && info.min_sinr_db >= th;
    // Clients may reentrantly transmit() from this callback; the slab is a
    // deque, so `tx` stays valid, and `slot` is not on the free list yet.
    client->on_frame_rx(tx.frame, info);
  }
  free_slots_.push_back(slot);
}

bool Medium::carrier_busy(topo::NodeId node) const {
  const auto n = static_cast<std::size_t>(node);
  if (tx_count_[n] > 0) return true;
  return external_intf_mw_ + inbound_mw_[n] >= cs_threshold_mw_;
}

bool Medium::virtual_busy(topo::NodeId node) const {
  if (carrier_busy(node)) return true;
  return nav_until_.at(static_cast<std::size_t>(node)) > sim_.now();
}

void Medium::set_external_interference_mw(double mw) {
  if (mw == external_intf_mw_) return;
  external_intf_mw_ = mw;
  // A burst edge mid-frame must count toward every in-flight reception's
  // worst-case interference and may flip carrier sense.
  refresh_interference_and_cs();
}

void Medium::on_topology_changed() {
  if (!members_.empty()) {
    throw std::logic_error(
        "Medium::on_topology_changed: partition-restricted medium cannot "
        "track a mutable topology (partitions derive from the static "
        "audibility graph; dynamic runs must use the classic kernel)");
  }
  // Rebuild the running power sums from the CURRENT linear-power rows of
  // every active transmission. TX-end removal subtracts the row as it is at
  // removal time, so the sums must always reflect the current matrix — a
  // zero-and-readd here keeps add/remove pairs consistent across the change.
  std::fill(inbound_mw_.begin(), inbound_mw_.end(), 0.0);
  std::fill(rop_inbound_mw_.begin(), rop_inbound_mw_.end(), 0.0);
  for (std::uint32_t slot : active_) {
    apply_tx_power(slab_[slot], +1.0);
  }
  // In-flight receptions keep their frozen desired power (RxAttempt.rss_mw,
  // sampled at TX start); only their interference picture follows the move.
  // refresh also re-notifies the audit observer.
  refresh_interference_and_cs();
}

}  // namespace dmn::phy
