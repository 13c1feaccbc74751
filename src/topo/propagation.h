#pragma once
// Propagation models and the RSS map.
//
// Everything downstream (carrier sensing, SINR, conflict graphs, ROP
// mismatch checks) consumes a symmetric node-pair RSS matrix in dBm — the
// same shape as the measurement trace the paper collected from its 40-node
// testbed. The matrix can be produced by a path-loss model over node
// positions (the ns-3-style random-network experiments, Figure 14) or by
// the synthetic two-building trace generator (everything else).

#include <span>
#include <utility>
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
///
/// Layout: only the pairs a < b are stored, the upper triangle row by row
/// (row a holds rss(a, a+1) .. rss(a, n-1)), n(n-1)/2 doubles in all. The
/// other direction reads the same entry and the diagonal is -inf.
class RssMap {
 public:
  /// Every pair starts at -inf dBm: no path.
  explicit RssMap(std::size_t n_nodes);

  std::size_t size() const { return n_; }

  /// Either order; -inf on the diagonal. Throws std::out_of_range for an
  /// id outside [0, size()).
  double rss(NodeId a, NodeId b) const;
  /// Sets both directions. Throws std::out_of_range for an id outside
  /// [0, size()) and std::invalid_argument on the diagonal.
  void set_rss(NodeId a, NodeId b, double dbm);

  /// rss(a, b) for b = a+1 .. size()-1, contiguous. `a` must be in range.
  std::span<const double> upper_row(std::size_t a) const {
    return {rss_.data() + row_start(a), n_ - 1 - a};
  }

  /// Builds the map from positions with a path-loss model plus optional
  /// per-pair lognormal shadowing (frozen, symmetric).
  static RssMap from_positions(const std::vector<Position>& pos,
                               const LogDistanceModel& model,
                               double shadowing_sigma_db, Rng& rng);

 private:
  std::size_t n_;
  util::DenseTable rss_;  // upper triangle, row-major

  /// Offset of rss(a, a+1): rows 0 .. a-1 hold n-1, n-2, .. n-a pairs.
  std::size_t row_start(std::size_t a) const {
    return a * (2 * n_ - a - 1) / 2;
  }
  /// Entry of the pair {a, b}, a != b, in either order.
  std::size_t index(std::size_t a, std::size_t b) const {
    if (a > b) std::swap(a, b);
    return row_start(a) + (b - a - 1);
  }
};

}  // namespace dmn::topo
