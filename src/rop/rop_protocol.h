#pragma once
// Protocol-level ROP: subchannel assignment and the MAC-level success model
// distilled from the signal-level study. (The 6-bit queue report saturates
// inline where DominoClientMac answers a poll; the exchange's airtime is
// DominoTiming::rop_duration.)
//
// The MAC simulation does not run the FFT per poll; it applies the rules the
// signal-level experiments (Figures 5/6, bench_fig05/06) establish:
//   * a report decodes only if its SNR at the AP is >= 4 dB;
//   * adjacent subchannels tolerate an RSS mismatch up to ~38 dB with the
//     default 3 guard subcarriers (scaled for other guard counts);
//   * above the tolerance the AP should have assigned non-adjacent
//     subchannels (the allocator here does), otherwise the weaker client's
//     report is corrupted;
//   * external (non-ROP) interference overlapping the symbol must leave
//     SINR >= 4 dB.

#include <cstddef>
#include <optional>
#include <vector>

#include "rop/params.h"
#include "rop/subchannel_map.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace dmn::rop {

/// Assigns each client of an AP a subchannel. Clients are sorted by RSS
/// (ties to the lower id, so input order never matters) so
/// frequency-adjacent subchannels carry similar powers; when even sorted
/// neighbours exceed the tolerance, a spare subchannel is skipped between
/// them (possible while #clients < #subchannels).
class SubchannelAllocator {
 public:
  explicit SubchannelAllocator(const RopParams& params) : params_(params) {}

  struct Assignment {
    topo::NodeId client;
    std::size_t subchannel;
    std::size_t round;  // poll round (>= 1 round when clients > subchannels)
  };

  /// rss_at_ap[i] is the AP-side RSS of clients[i].
  std::vector<Assignment> assign(const std::vector<topo::NodeId>& clients,
                                 const std::vector<double>& rss_at_ap) const;

 private:
  RopParams params_;
};

/// The MAC-level decode predicate.
class RopLinkModel {
 public:
  explicit RopLinkModel(const RopParams& params)
      : params_(params), map_(params) {}

  struct CoClient {
    std::size_t subchannel;
    double rss_dbm;
  };

  /// Does the report of the client on `subchannel` at `rss_dbm` decode,
  /// given the co-polled clients, receiver noise, and external interference
  /// power (mW) overlapping the symbol?
  bool report_decodes(std::size_t subchannel, double rss_dbm,
                      const std::vector<CoClient>& co_clients,
                      double noise_floor_dbm, double external_intf_mw) const;

  /// RSS mismatch tolerance (dB) for a given bin distance between two
  /// clients' nearest data subcarriers — the fitted Figure 6 law:
  /// each extra guard bin buys ~6 dB until the transmitter hardware floor
  /// (~42 dB usable) caps it.
  double tolerance_db(std::size_t bin_distance) const;

  const SubchannelMap& map() const { return map_; }

 private:
  RopParams params_;
  SubchannelMap map_;
};

}  // namespace dmn::rop
