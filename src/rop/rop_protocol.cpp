#include "rop/rop_protocol.h"

#include <algorithm>
#include <cmath>

#include "util/units.h"

namespace dmn::rop {

std::vector<SubchannelAllocator::Assignment> SubchannelAllocator::assign(
    const std::vector<topo::NodeId>& clients,
    const std::vector<double>& rss_at_ap) const {
  const std::size_t per_round = params_.num_subchannels;
  std::vector<Assignment> out;

  // Order clients by RSS (descending, ties to the lower id) so adjacent
  // subchannels see similar powers; split into rounds of at most
  // num_subchannels.
  std::vector<std::size_t> order(clients.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rss_at_ap[a] != rss_at_ap[b]) return rss_at_ap[a] > rss_at_ap[b];
    return clients[a] < clients[b];
  });

  std::size_t round = 0;
  std::size_t pos = 0;  // index into `order`
  while (pos < order.size()) {
    const std::size_t in_round = std::min(per_round, order.size() - pos);
    // Extreme-mismatch handling: if a sorted neighbour pair differs by more
    // than the tolerance, skip one subchannel between them when spare
    // capacity allows (paper: "assign them non-adjacent subchannels").
    std::size_t spare = per_round - in_round;
    std::size_t sc = 0;
    double prev_rss = 0.0;
    bool first = true;
    for (std::size_t k = 0; k < in_round; ++k) {
      const std::size_t ci = order[pos + k];
      if (!first && spare > 0 &&
          std::abs(prev_rss - rss_at_ap[ci]) > kRopRssToleranceDb) {
        ++sc;  // leave a gap
        --spare;
      }
      out.push_back(Assignment{clients[ci], sc, round});
      prev_rss = rss_at_ap[ci];
      first = false;
      ++sc;
    }
    pos += in_round;
    ++round;
  }
  return out;
}

double RopLinkModel::tolerance_db(std::size_t bin_distance) const {
  // Fitted from the signal-level sweep (Figure 6 reproduction): each bin of
  // separation buys ~6 dB of tolerance starting from ~14 dB at distance 1,
  // capped at ~42 dB by the transmitter implementation floor. Distance with
  // the default 3 guard bins is 4 -> 38 dB, the paper's design point.
  if (bin_distance == 0) return 0.0;
  const double slope = 8.0;
  const double base = 6.0;
  return std::min(base + slope * static_cast<double>(bin_distance), 42.0);
}

bool RopLinkModel::report_decodes(std::size_t subchannel, double rss_dbm,
                                  const std::vector<CoClient>& co_clients,
                                  double noise_floor_dbm,
                                  double external_intf_mw) const {
  // SNR gate (paper: >= 4 dB for reliable symbol decode), with external
  // interference folded into the noise.
  const double noise_mw = dbm_to_mw(noise_floor_dbm) + external_intf_mw;
  const double snr_db = rss_dbm - mw_to_dbm(noise_mw);
  if (snr_db < kRopMinSnrDb) return false;

  // Subchannel leakage gate: every co-polled stronger client must stay
  // within the tolerance for its bin distance.
  for (const CoClient& other : co_clients) {
    if (other.subchannel == subchannel) return false;  // assignment bug
    const double diff = other.rss_dbm - rss_dbm;
    if (diff <= 0.0) continue;  // weaker clients cannot mask this one
    const std::size_t dist = map_.bin_distance(subchannel, other.subchannel);
    if (diff > tolerance_db(dist)) return false;
  }
  return true;
}

}  // namespace dmn::rop
