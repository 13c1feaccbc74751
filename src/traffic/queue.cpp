#include "traffic/queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dmn::traffic {

namespace {

/// Advances `f` past every arrival at or before `now`; returns how many
/// it passed.
std::uint64_t skip_through(CbrArrivals& f, TimeNs now) {
  if (f.next > now) return 0;
  const auto n = static_cast<std::uint64_t>((now - f.next) / f.interval) + 1;
  f.next += static_cast<TimeNs>(n) * f.interval;
  return n;
}

}  // namespace

TimeNs cbr_interval(double rate_bps, std::size_t packet_bytes) {
  const auto interval = static_cast<TimeNs>(std::llround(
      8.0 * static_cast<double>(packet_bytes) / rate_bps * 1e9));
  return std::max<TimeNs>(interval, 1);
}

void PacketQueue::count_add(topo::NodeId dst, std::size_t n) {
  for (DstCount& c : counts_) {
    if (c.dst == dst) {
      c.packets += n;
      return;
    }
  }
  counts_.push_back({dst, n});
}

void PacketQueue::count_sub(topo::NodeId dst, std::size_t n) {
  for (DstCount& c : counts_) {
    if (c.dst != dst) continue;
    c.packets -= n;
    if (c.packets == 0) {
      c = counts_.back();
      counts_.pop_back();
    }
    return;
  }
}

bool PacketQueue::push(Packet p) {
  settle();
  if (q_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  count_add(p.dst, 1);
  q_.push_back(std::move(p));
  return true;
}

std::optional<Packet> PacketQueue::pop() {
  settle();
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  count_sub(p.dst, 1);
  return p;
}

const Packet* PacketQueue::front() {
  settle();
  return q_.empty() ? nullptr : &q_.front();
}

std::optional<Packet> PacketQueue::pop_for(topo::NodeId dst) {
  settle();
  const auto it = std::find_if(q_.begin(), q_.end(), [dst](const Packet& p) {
    return p.dst == dst;
  });
  if (it == q_.end()) return std::nullopt;
  Packet p = std::move(*it);
  q_.erase(it);
  count_sub(dst, 1);
  return p;
}

const Packet* PacketQueue::front_for(topo::NodeId dst) {
  settle();
  const auto it = std::find_if(q_.begin(), q_.end(), [dst](const Packet& p) {
    return p.dst == dst;
  });
  return it == q_.end() ? nullptr : &*it;
}

std::vector<Packet> PacketQueue::extract_for(topo::NodeId dst,
                                             std::optional<PacketId> exclude) {
  settle();
  std::vector<Packet> out;
  for (auto it = q_.begin(); it != q_.end();) {
    if (it->dst == dst && (!exclude || it->id != *exclude)) {
      out.push_back(std::move(*it));
      it = q_.erase(it);
    } else {
      ++it;
    }
  }
  count_sub(dst, out.size());
  return out;
}

std::size_t PacketQueue::retarget(topo::NodeId from, topo::NodeId to) {
  settle();
  std::size_t n = 0;
  for (Packet& p : q_) {
    if (p.dst == from) {
      p.dst = to;
      ++n;
    }
  }
  if (n != 0 && from != to) {
    count_sub(from, n);
    count_add(to, n);
  }
  return n;
}

std::size_t PacketQueue::count_for(topo::NodeId dst) {
  settle();
  for (const DstCount& c : counts_) {
    if (c.dst == dst) return c.packets;
  }
  return 0;
}

// ---- CBR arrivals -----------------------------------------------------------

void PacketQueue::add_arrivals(const CbrArrivals& a) {
  if (sim_ == nullptr) {
    throw std::logic_error(
        "PacketQueue: arrival processes need a queue with an owner clock");
  }
  settle();
  const auto at = std::lower_bound(
      flows_.begin(), flows_.end(), a.flow.id,
      [](const CbrArrivals& f, FlowId id) { return f.flow.id < id; });
  flows_.insert(at, a);
  if (a.active) next_due_ = std::min(next_due_, a.next);
}

std::optional<CbrArrivals> PacketQueue::take_arrivals(FlowId flow) {
  settle();
  const auto it =
      std::find_if(flows_.begin(), flows_.end(),
                   [flow](const CbrArrivals& f) { return f.flow.id == flow; });
  if (it == flows_.end()) return std::nullopt;
  CbrArrivals a = *it;
  flows_.erase(it);
  if (!a.active) skip_through(a, now());
  const CbrArrivals* e = earliest();
  next_due_ = e == nullptr ? kNoArrival : e->next;
  return a;
}

CbrArrivals* PacketQueue::earliest() {
  CbrArrivals* best = nullptr;
  for (CbrArrivals& f : flows_) {
    if (f.active && (best == nullptr || f.next < best->next)) best = &f;
  }
  return best;
}

void PacketQueue::offer(CbrArrivals& f) {
  const TimeNs t = f.next;
  f.next += f.interval;
  const bool fits = q_.size() < capacity_;
  if (!fits && f.observer == nullptr) {
    ++dropped_;  // nobody sees the packet, so none is built
    return;
  }
  Packet p;
  p.id = f.ids->next();
  p.flow = f.flow.id;
  p.src = f.flow.src;
  p.dst = f.flow.dst;
  p.bytes = f.bytes;
  p.created = t;
  p.enqueued = t;
  if (f.observer != nullptr) f.observer->on_offered(p);
  if (fits) {
    count_add(p.dst, 1);
    q_.push_back(std::move(p));
    return;
  }
  ++dropped_;
  f.observer->on_offer_rejected(p.id, p.flow);
}

void PacketQueue::materialise(TimeNs now) {
  bool full_skipped = false;
  for (CbrArrivals* f = earliest(); f != nullptr && f->next <= now;
       f = earliest()) {
    if (!full_skipped && q_.size() >= capacity_) {
      // Full: nothing dequeues during catch-up, so every remaining arrival
      // up to `now` is dropped. Unobserved flows skip theirs in closed
      // form; observed ones still go one by one, in order, below.
      for (CbrArrivals& g : flows_) {
        if (g.active && g.observer == nullptr) dropped_ += skip_through(g, now);
      }
      full_skipped = true;
      continue;
    }
    offer(*f);
  }
  const CbrArrivals* e = earliest();
  next_due_ = e == nullptr ? kNoArrival : e->next;
}

}  // namespace dmn::traffic
