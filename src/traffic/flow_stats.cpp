#include "traffic/flow_stats.h"

namespace dmn::traffic {

void FlowStats::record_delivery(const Packet& p, TimeNs now) {
  // find-then-insert rather than operator[]: on the partitioned kernel's
  // hot path every sourced flow is pre-registered (ensure_flow), so this is
  // a pure read of the map structure — safe under concurrent record_* calls
  // for different flows.
  auto it = flows_.find(p.flow);
  if (it == flows_.end()) it = flows_.try_emplace(p.flow).first;
  PerFlow& f = it->second;
  ++f.count;
  f.bytes += p.bytes;
  f.delay_sum_ns += static_cast<double>(now - p.enqueued);
}

void FlowStats::record_offered(FlowId flow) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) it = flows_.try_emplace(flow).first;
  ++it->second.offered;
}

std::uint64_t FlowStats::delivered(FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.count;
}

std::uint64_t FlowStats::delivered_bytes(FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.bytes;
}

std::uint64_t FlowStats::offered(FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.offered;
}

double FlowStats::throughput_bps(FlowId flow, TimeNs duration) const {
  if (duration <= 0) return 0.0;
  return 8.0 * static_cast<double>(delivered_bytes(flow)) /
         to_sec(duration);
}

double FlowStats::aggregate_throughput_bps(TimeNs duration) const {
  double acc = 0.0;
  for (const auto& [id, f] : flows_) {
    (void)f;
    acc += throughput_bps(id, duration);
  }
  return acc;
}

double FlowStats::mean_delay_us(FlowId flow) const {
  const auto it = flows_.find(flow);
  if (it == flows_.end() || it->second.count == 0) return 0.0;
  return it->second.delay_sum_ns / static_cast<double>(it->second.count) /
         1000.0;
}

double FlowStats::mean_delay_us_all() const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& [id, f] : flows_) {
    (void)id;
    sum += f.delay_sum_ns;
    n += f.count;
  }
  if (n == 0) return 0.0;
  return sum / static_cast<double>(n) / 1000.0;
}

std::vector<FlowId> FlowStats::flows() const {
  std::vector<FlowId> out;
  out.reserve(flows_.size());
  for (const auto& [id, f] : flows_) {
    (void)f;
    out.push_back(id);
  }
  return out;
}

double FlowStats::jain_index(std::span<const double> xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sq = 0.0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

}  // namespace dmn::traffic
