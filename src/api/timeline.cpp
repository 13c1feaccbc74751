#include "api/timeline.h"

#include <algorithm>
#include <iomanip>

namespace dmn::api {

void TimelineRecorder::record_tx(std::uint64_t slot, topo::NodeId sender,
                                 topo::NodeId receiver, TimeNs start,
                                 bool fake, bool uplink) {
  tx_.push_back(TxRecord{slot, sender, receiver, start, fake, uplink});
  auto [it, fresh] = window_.try_emplace(slot, start, start);
  if (!fresh) {
    it->second.first = std::min(it->second.first, start);
    it->second.second = std::max(it->second.second, start);
  }
}

void TimelineRecorder::record_poll(std::uint64_t slot, topo::NodeId ap,
                                   TimeNs at) {
  polls_.push_back(PollRecord{slot, ap, at});
}

TimelineRecorder TimelineRecorder::merge(
    const std::vector<TimelineRecorder>& parts) {
  std::vector<TxRecord> tx;
  TimelineRecorder out;
  for (const TimelineRecorder& p : parts) {
    tx.insert(tx.end(), p.tx_.begin(), p.tx_.end());
    out.polls_.insert(out.polls_.end(), p.polls_.begin(), p.polls_.end());
  }
  std::stable_sort(tx.begin(), tx.end(),
                   [](const TxRecord& a, const TxRecord& b) {
                     return a.start < b.start;
                   });
  std::stable_sort(out.polls_.begin(), out.polls_.end(),
                   [](const PollRecord& a, const PollRecord& b) {
                     return a.at < b.at;
                   });
  for (const TxRecord& r : tx) {
    out.record_tx(r.slot, r.sender, r.receiver, r.start, r.fake, r.uplink);
  }
  return out;
}

double TimelineRecorder::misalignment_us(std::uint64_t slot) const {
  const auto it = window_.find(slot);
  if (it == window_.end()) return 0.0;
  return to_usec(it->second.second - it->second.first);
}

std::vector<double> TimelineRecorder::misalignment_series(
    std::uint64_t first, std::size_t count) const {
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(misalignment_us(first + i));
  }
  return out;
}

std::uint64_t TimelineRecorder::first_slot() const {
  return window_.empty() ? 0 : window_.begin()->first;
}

std::uint64_t TimelineRecorder::last_slot() const {
  return window_.empty() ? 0 : window_.rbegin()->first;
}

void TimelineRecorder::print(std::ostream& os, std::uint64_t from,
                             std::uint64_t to) const {
  for (std::uint64_t s = from; s <= to; ++s) {
    bool header = false;
    for (const TxRecord& r : tx_) {
      if (r.slot != s) continue;
      if (!header) {
        os << "slot " << s << " (misalign "
           << std::fixed << std::setprecision(1) << misalignment_us(s)
           << " us)\n";
        header = true;
      }
      os << "  " << (r.uplink ? "C" : "AP") << r.sender << " -> "
         << (r.uplink ? "AP" : "C") << r.receiver
         << (r.fake ? " [fake]" : "") << "  @ " << std::fixed
         << std::setprecision(1) << to_usec(r.start) << " us\n";
    }
    for (const PollRecord& p : polls_) {
      if (p.slot != s) continue;
      os << "  ROP poll by AP" << p.ap << "  @ " << std::fixed
         << std::setprecision(1) << to_usec(p.at) << " us\n";
    }
  }
}

}  // namespace dmn::api
