#include "api/metrics.h"

#include <cmath>

namespace dmn::api {

double coupled_misalignment_us(const TimelineRecorder& timeline,
                               const topo::Topology& topo,
                               std::uint64_t slot) {
  const auto& txs = timeline.transmissions();
  double worst = 0.0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (txs[i].slot != slot) continue;
    for (std::size_t j = i + 1; j < txs.size(); ++j) {
      if (txs[j].slot != slot) continue;
      const auto& a = txs[i];
      const auto& b = txs[j];
      const bool coupled = topo.can_sense(a.sender, b.sender) ||
                           topo.can_sense(a.sender, b.receiver) ||
                           topo.can_sense(a.receiver, b.sender) ||
                           topo.can_sense(a.receiver, b.receiver);
      if (!coupled) continue;
      worst = std::max(worst, std::abs(to_usec(a.start - b.start)));
    }
  }
  return worst;
}

}  // namespace dmn::api
