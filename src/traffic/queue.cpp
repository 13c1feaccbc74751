#include "traffic/queue.h"

#include <algorithm>

namespace dmn::traffic {

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
  if (q_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  count_add(p.dst, 1);
  q_.push_back(std::move(p));
  return true;
}

std::optional<Packet> PacketQueue::pop() {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  count_sub(p.dst, 1);
  return p;
}

const Packet* PacketQueue::front() const {
  return q_.empty() ? nullptr : &q_.front();
}

std::optional<Packet> PacketQueue::pop_for(topo::NodeId dst) {
  const auto it = std::find_if(q_.begin(), q_.end(), [dst](const Packet& p) {
    return p.dst == dst;
  });
  if (it == q_.end()) return std::nullopt;
  Packet p = std::move(*it);
  q_.erase(it);
  count_sub(dst, 1);
  return p;
}

const Packet* PacketQueue::front_for(topo::NodeId dst) const {
  const auto it = std::find_if(q_.begin(), q_.end(), [dst](const Packet& p) {
    return p.dst == dst;
  });
  return it == q_.end() ? nullptr : &*it;
}

std::vector<Packet> PacketQueue::extract_for(topo::NodeId dst,
                                             std::optional<PacketId> exclude) {
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

std::size_t PacketQueue::count_for(topo::NodeId dst) const {
  for (const DstCount& c : counts_) {
    if (c.dst == dst) return c.packets;
  }
  return 0;
}

}  // namespace dmn::traffic
