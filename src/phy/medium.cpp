#include "phy/medium.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "util/units.h"

namespace dmn::phy {

namespace {

/// One scan of edge-triggered carrier sense over the members. A node is
/// busy when it transmits or when its received power reaches the threshold
/// (compared in linear power, equivalent to the dBm comparison by
/// monotonicity of the conversion). step() is branch-free and writes a flip
/// mark instead of calling back, so the loops around it vectorize.
struct CsScan {
  const std::uint32_t* tx_count;
  std::uint8_t* busy;
  std::uint8_t* flip;
  double ext_mw;
  double threshold_mw;

  std::uint8_t step(std::size_t i, double inbound_mw) const {
    const auto now = static_cast<std::uint8_t>(
        (tx_count[i] != 0) | (ext_mw + inbound_mw >= threshold_mw));
    const auto flipped = static_cast<std::uint8_t>(now ^ busy[i]);
    busy[i] = now;
    flip[i] = flipped;
    return flipped;
  }
};

/// Ascending node ids (repeats allowed) as disjoint, non-adjacent runs.
std::vector<NodeRun> to_runs(std::span<const topo::NodeId> ids) {
  std::vector<NodeRun> runs;
  for (const topo::NodeId id : ids) {
    const auto i = static_cast<std::size_t>(id);
    if (!runs.empty() && runs.back().end >= i) {
      runs.back().end = i + 1;  // extends the run (or repeats its last id)
    } else {
      runs.push_back(NodeRun{i, i + 1});
    }
  }
  return runs;
}

}  // namespace

Medium::Medium(sim::Simulator& sim, const topo::Topology& topo)
    : sim_(sim),
      topo_(topo),
      runs_{NodeRun{0, topo.num_nodes()}},
      clients_(topo.num_nodes(), nullptr),
      inbound_mw_(topo.num_nodes(), 0.0),
      rop_inbound_mw_(topo.num_nodes(), 0.0),
      tx_count_(topo.num_nodes(), 0),
      cs_busy_(topo.num_nodes(), 0),
      cs_flip_(topo.num_nodes() + 8, 0),
      nav_until_(topo.num_nodes(), 0),
      cs_threshold_mw_(dbm_to_mw(topo.thresholds().cs_threshold_dbm)),
      noise_mw_(dbm_to_mw(topo.thresholds().noise_floor_dbm)) {
  for (std::size_t t = 0; t < kFrameTypeCount; ++t) {
    decode_th_db_[t] = decode_threshold_db(static_cast<FrameType>(t));
    decode_th_lin_[t] = db_to_ratio(decode_th_db_[t]);
  }
  adopt_components();
}

void Medium::attach(topo::NodeId node, MediumClient* client) {
  if (!is_member(node)) {
    throw std::logic_error("medium: attach of node " + std::to_string(node) +
                           " outside this medium's partition");
  }
  clients_.at(static_cast<std::size_t>(node)) = client;
}

void Medium::restrict_to_nodes(std::vector<topo::NodeId> members) {
  std::sort(members.begin(), members.end());
  // Marks the members (any value but kNotMember) for check_closed;
  // adopt_components numbers them.
  comp_of_.assign(topo_.num_nodes(), kNotMember);
  for (const topo::NodeId id : members) {
    comp_of_.at(static_cast<std::size_t>(id)) = 0;
  }
  runs_ = to_runs(members);
  check_closed();
  adopt_components();
}

void Medium::check_closed() const {
  // No cross-partition airtime coupling: every component a member belongs
  // to must be whole, otherwise a transmission here would deposit power on
  // a node simulated elsewhere. Each component is checked once, at its
  // smallest member; every other member only checks that one.
  for (const NodeRun& run : runs_) {
    for (std::size_t i = run.begin; i < run.end; ++i) {
      const auto id = static_cast<topo::NodeId>(i);
      const auto comp = topo_.component_members(topo_.component_of(id));
      const auto check = comp.front() == id ? comp : comp.first(1);
      for (const topo::NodeId other : check) {
        if (!is_member(other)) {
          throw std::logic_error(
              "medium: member set not closed under coupling: node " +
              std::to_string(id) + " couples with non-member " +
              std::to_string(other));
        }
      }
    }
  }
}

void Medium::adopt_components() {
  comps_.clear();
  comp_of_.assign(topo_.num_nodes(), kNotMember);
  for (const NodeRun& run : runs_) {
    for (std::size_t i = run.begin; i < run.end; ++i) {
      if (comp_of_[i] != kNotMember) continue;
      const auto members = topo_.component_members(
          topo_.component_of(static_cast<topo::NodeId>(i)));
      const auto c = static_cast<std::uint32_t>(comps_.size());
      for (const topo::NodeId m : members) {
        comp_of_[static_cast<std::size_t>(m)] = c;
      }
      comps_.push_back(Component{to_runs(members), 0});
    }
  }
  for (const std::uint32_t slot : active_) {
    ActiveTx& tx = slab_[slot];
    tx.comp = comp_of_[static_cast<std::size_t>(tx.frame.src)];
    ++comps_[tx.comp].active;
  }
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
      return -21.0;  // 127-chip processing gain (21 dB) below control
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

bool Medium::apply_tx_power(const ActiveTx& tx, double sign) {
  // Auditor self-test defect: leave half the row behind on removal, the way
  // a missed bookkeeping path would (audit::Mutation::kMediumLeakPower).
  if (mutation_ == audit::Mutation::kMediumLeakPower && sign < 0.0) {
    sign = -0.5;
  }
  const Component& comp = comps_[tx.comp];
  // Quiescence resets the component's sums to exactly zero (before carrier
  // sense reads them), so add/remove rounding residues cannot accumulate
  // across the simulation.
  if (comp.active == 0) {
    zero_sums(comp.runs);
    return mark_cs_flips(comp.runs);
  }
  // The diagonal of the linear-power matrix is exactly 0 mW (rss of a node
  // to itself is -inf dBm), so adding the whole row is a no-op for the
  // transmitter itself — matching the reference accounting that skipped
  // the own-source term. The row is exactly 0 mW outside the component,
  // so the pass is O(component) instead of O(topology) per edge.
  const auto row = topo_.rss_mw_row(tx.frame.src);
  double* inbound = inbound_mw_.data();
  double* rop = rop_inbound_mw_.data();
  const CsScan cs{tx_count_.data(), cs_busy_.data(), cs_flip_.data(),
                  external_intf_mw_, cs_threshold_mw_};
  std::uint8_t any = 0;
  for (const NodeRun& run : comp.runs) {
    if (tx.rop) {
      for (std::size_t i = run.begin; i < run.end; ++i) {
        rop[i] += sign * row[i];
      }
    }
    // Carrier sense rides the same pass: it reads only the updated sum.
    for (std::size_t i = run.begin, end = run.end; i < end; ++i) {
      const double sum = inbound[i] + sign * row[i];
      inbound[i] = sum;
      any |= cs.step(i, sum);
    }
  }
  return any != 0;
}

void Medium::add_tx_power(const ActiveTx& tx) {
  const auto row = topo_.rss_mw_row(tx.frame.src);
  for (const NodeRun& run : comps_[tx.comp].runs) {
    for (std::size_t i = run.begin; i < run.end; ++i) {
      inbound_mw_[i] += row[i];
      if (tx.rop) rop_inbound_mw_[i] += row[i];
    }
  }
}

void Medium::zero_sums(const std::vector<NodeRun>& runs) {
  for (const NodeRun& run : runs) {
    std::fill(inbound_mw_.begin() + run.begin, inbound_mw_.begin() + run.end,
              0.0);
    std::fill(rop_inbound_mw_.begin() + run.begin,
              rop_inbound_mw_.begin() + run.end, 0.0);
  }
}

void Medium::sweep_interference(std::uint32_t comp, bool rop_only) {
  const double ext = external_intf_mw_;
  const double* inbound = inbound_mw_.data();
  const double* rop_inbound = rop_inbound_mw_.data();
  const std::uint32_t* tx_count = tx_count_.data();
  for (const std::uint32_t slot : active_) {
    ActiveTx& tx = slab_[slot];
    if ((comp != kEveryComponent && tx.comp != comp) ||
        (rop_only && !tx.rop)) {
      continue;
    }
    // ROP responses are mutually orthogonal: a ROP victim excludes every
    // concurrent ROP contribution (its own is part of that sum).
    const bool rop = tx.rop;
    for (RxAttempt& rx : tx.rx) {
      const auto n = static_cast<std::size_t>(rx.node);
      double acc = ext + inbound[n];
      acc -= rop ? rop_inbound[n] : rx.own_mw;
      // Subtraction can leave a tiny negative residue when the victim is
      // the only contributor; interference is physically non-negative.
      acc = acc > 0.0 ? acc : 0.0;
      rx.max_intf_mw = acc > rx.max_intf_mw ? acc : rx.max_intf_mw;
      rx.half_duplex_loss |= tx_count[n] != 0;
    }
  }
}

bool Medium::mark_cs_flips(const std::vector<NodeRun>& runs) {
  const CsScan cs{tx_count_.data(), cs_busy_.data(), cs_flip_.data(),
                  external_intf_mw_, cs_threshold_mw_};
  const double* inbound = inbound_mw_.data();
  std::uint8_t any = 0;
  for (const NodeRun& run : runs) {
    for (std::size_t i = run.begin, end = run.end; i < end; ++i) {
      any |= cs.step(i, inbound[i]);
    }
  }
  return any != 0;
}

void Medium::notify_cs_flips(const std::vector<NodeRun>& runs, bool any) {
  if (any) {
    notifying_cs_ = true;
    for (const NodeRun& run : runs) {
      for (std::size_t i = run.begin; i < run.end; i += 8) {
        // Flips cluster around the transmitter, so test eight marks at once
        // (cs_flip_ is padded for the read past the run's end).
        std::uint64_t marks;
        std::memcpy(&marks, &cs_flip_[i], sizeof marks);
        if (marks == 0) continue;
        for (std::size_t j = i; j < std::min(i + 8, run.end); ++j) {
          if (cs_flip_[j] != 0 && clients_[j] != nullptr) {
            clients_[j]->on_cs_change(cs_busy_[j] != 0);
          }
        }
      }
    }
    notifying_cs_ = false;
  }
  if (observer_ != nullptr) observer_->on_medium_accounting();
}

void Medium::transmit(const Frame& frame) {
  assert(frame.duration > 0 && "frame duration must be set");
  assert(frame.src != topo::kNoNode);
  if (notifying_cs_) {
    throw std::logic_error("medium: transmit by node " +
                           std::to_string(frame.src) +
                           " from a carrier-sense callback");
  }
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
  tx.comp = comp_of_[static_cast<std::size_t>(frame.src)];
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
    rx.own_mw = rx.rss_mw;
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
  ++comps_[tx.comp].active;
  ++tx_count_[static_cast<std::size_t>(frame.src)];
  const bool flips = apply_tx_power(tx, +1.0);
  // The new row raises interference across the component, and the new
  // transmitter may be receiving: every reception there is re-swept.
  sweep_interference(tx.comp, /*rop_only=*/false);
  notify_cs_flips(comps_[tx.comp].runs, flips);
  if (observer_ != nullptr) observer_->on_medium_tx(tx.frame, tx.start, tx.end);

  sim_.post_at(tx.end, [this, slot] { on_tx_end(slot); });
}

void Medium::on_tx_end(std::uint32_t slot) {
  ActiveTx& tx = slab_[slot];
  // No sweep before the removal: every edge since the last sweep could only
  // lower this frame's interference (docs/PERFORMANCE.md, invariant 5).
  active_.erase(std::find(active_.begin(), active_.end(), slot));
  --comps_[tx.comp].active;
  --tx_count_[static_cast<std::size_t>(tx.frame.src)];
  const bool flips = apply_tx_power(tx, -1.0);
  // Subtracting a non-negative row lowers every sum it touches, so only a
  // ROP victim's difference (sum minus ROP sum) can round upward, and only
  // when a ROP row left both sums.
  if (tx.rop) sweep_interference(tx.comp, /*rop_only=*/true);
  notify_cs_flips(comps_[tx.comp].runs, flips);

  const auto type = static_cast<std::size_t>(tx.frame.type);
  const double th_db = decode_th_db_[type];
  const double th_lin = decode_th_lin_[type];
  for (const RxAttempt& rx : tx.rx) {
    MediumClient* client = clients_[static_cast<std::size_t>(rx.node)];
    if (client == nullptr) continue;
    RxInfo info;
    info.rss_mw = rx.rss_mw;
    info.min_sinr = rx.rss_mw / (noise_mw_ + rx.max_intf_mw);
    info.half_duplex_loss = rx.half_duplex_loss;
    info.decoded = !rx.half_duplex_loss &&
                   clears_db_threshold(info.min_sinr, th_db, th_lin);
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
  const bool rise = mw > external_intf_mw_;
  external_intf_mw_ = mw;
  // A rising burst edge mid-frame must count toward every in-flight
  // reception's worst-case interference; a falling one can only lower it.
  // Either may flip carrier sense.
  if (rise) sweep_interference(kEveryComponent, /*rop_only=*/false);
  notify_cs_flips(runs_, mark_cs_flips(runs_));
}

void Medium::on_topology_changed() {
  check_closed();
  // The change may have merged components.
  adopt_components();
  // Rebuild the running power sums from the CURRENT linear-power rows of
  // every active transmission. TX-end removal subtracts the row as it is at
  // removal time, so the sums must always reflect the current matrix — a
  // zero-and-readd here keeps add/remove pairs consistent across the change.
  // The own term each reception's sweep subtracts follows the row now in
  // the sums.
  zero_sums(runs_);
  for (std::uint32_t slot : active_) {
    ActiveTx& tx = slab_[slot];
    add_tx_power(tx);
    for (RxAttempt& rx : tx.rx) {
      rx.own_mw = topo_.rss_mw(tx.frame.src, rx.node);
    }
  }
  // In-flight receptions keep their frozen desired power (RxAttempt.rss_mw,
  // sampled at TX start); only their interference picture follows the move,
  // in either direction, so every reception is re-swept.
  sweep_interference(kEveryComponent, /*rop_only=*/false);
  notify_cs_flips(runs_, mark_cs_flips(runs_));
}

}  // namespace dmn::phy
