#include "traffic/flow_stats.h"

namespace dmn::traffic {

FlowStats::PerFlow& FlowStats::slot(FlowId flow) {
  const auto i = static_cast<std::size_t>(flow);
  if (i >= flows_.size()) flows_.resize(i + 1);
  flows_[i].registered = true;
  return flows_[i];
}

const FlowStats::PerFlow* FlowStats::find(FlowId flow) const {
  const auto i = static_cast<std::size_t>(flow);
  return i < flows_.size() && flows_[i].registered ? &flows_[i] : nullptr;
}

void FlowStats::record_delivery(const Packet& p, TimeNs now) {
  // On the partitioned kernel's hot path every sourced flow is
  // pre-registered (ensure_flow), so this only writes the flow's own slot —
  // safe under concurrent record_* calls for different flows.
  PerFlow& f = slot(p.flow);
  ++f.count;
  f.bytes += p.bytes;
  f.delay_sum_ns += static_cast<double>(now - p.enqueued);
}

std::uint64_t FlowStats::delivered(FlowId flow) const {
  const PerFlow* f = find(flow);
  return f == nullptr ? 0 : f->count;
}

std::uint64_t FlowStats::delivered_bytes(FlowId flow) const {
  const PerFlow* f = find(flow);
  return f == nullptr ? 0 : f->bytes;
}

double FlowStats::throughput_bps(FlowId flow, TimeNs duration) const {
  if (duration <= 0) return 0.0;
  return 8.0 * static_cast<double>(delivered_bytes(flow)) /
         to_sec(duration);
}

double FlowStats::aggregate_throughput_bps(TimeNs duration) const {
  double acc = 0.0;
  for (const FlowId id : flows()) acc += throughput_bps(id, duration);
  return acc;
}

double FlowStats::mean_delay_us(FlowId flow) const {
  const PerFlow* f = find(flow);
  if (f == nullptr || f->count == 0) return 0.0;
  return f->delay_sum_ns / static_cast<double>(f->count) / 1000.0;
}

double FlowStats::mean_delay_us_all() const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const PerFlow& f : flows_) {
    sum += f.delay_sum_ns;
    n += f.count;
  }
  if (n == 0) return 0.0;
  return sum / static_cast<double>(n) / 1000.0;
}

std::vector<FlowId> FlowStats::flows() const {
  std::vector<FlowId> out;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].registered) out.push_back(static_cast<FlowId>(i));
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
