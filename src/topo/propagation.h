#pragma once
// Propagation models and the RSS map.
//
// Everything downstream (carrier sensing, SINR, conflict graphs, ROP
// mismatch checks) consumes a symmetric node-pair RSS matrix in dBm — the
// same shape as the measurement trace the paper collected from its 40-node
// testbed. The matrix can be produced by a path-loss model over node
// positions (the ns-3-style random-network experiments, Figure 14) or by
// the synthetic two-building trace generator (everything else).

#include <vector>

#include "topo/node.h"
#include "util/page_allocator.h"
#include "util/rng.h"

namespace dmn::topo {

/// Log-distance path loss, ns-3's default model family:
/// PL(d) = ref_loss + 10 * exponent * log10(d / 1m), d clamped to >= 1m.
struct LogDistanceModel {
  double tx_power_dbm = 20.0;
  double ref_loss_db = 46.7;  // 2.4 GHz free space @ 1 m
  double exponent = 3.0;

  double rss_dbm(const Position& a, const Position& b) const;
};

/// Symmetric RSS matrix between all node pairs, in dBm.
class RssMap {
 public:
  /// Every pair starts at -inf dBm: no path.
  explicit RssMap(std::size_t n_nodes);

  std::size_t size() const { return n_; }

  double rss(NodeId a, NodeId b) const;
  void set_rss(NodeId a, NodeId b, double dbm);  // sets both directions

  /// Builds the map from positions with a path-loss model plus optional
  /// per-pair lognormal shadowing (frozen, symmetric).
  static RssMap from_positions(const std::vector<Position>& pos,
                               const LogDistanceModel& model,
                               double shadowing_sigma_db, Rng& rng);

 private:
  std::size_t n_;
  util::DenseTable rss_;  // row-major, symmetric
};

}  // namespace dmn::topo
