#include "topo/propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace dmn::topo {

double LogDistanceModel::rss_dbm(const Position& a, const Position& b) const {
  const double d = std::max(distance(a, b), 1.0);
  return tx_power_dbm - ref_loss_db - 10.0 * exponent * std::log10(d);
}

RssMap::RssMap(std::size_t n_nodes)
    : n_(n_nodes),
      rss_(n_nodes < 2 ? 0 : n_nodes * (n_nodes - 1) / 2,
           -std::numeric_limits<double>::infinity()) {}

double RssMap::rss(NodeId a, NodeId b) const {
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= n_ ||
      static_cast<std::size_t>(b) >= n_) {
    throw std::out_of_range("RssMap::rss");
  }
  if (a == b) return -std::numeric_limits<double>::infinity();
  return rss_[index(static_cast<std::size_t>(a), static_cast<std::size_t>(b))];
}

void RssMap::set_rss(NodeId a, NodeId b, double dbm) {
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= n_ ||
      static_cast<std::size_t>(b) >= n_) {
    throw std::out_of_range("RssMap::set_rss");
  }
  if (a == b) {
    throw std::invalid_argument("RssMap::set_rss: node " + std::to_string(a) +
                                " paired with itself");
  }
  rss_[index(static_cast<std::size_t>(a), static_cast<std::size_t>(b))] = dbm;
}

RssMap RssMap::from_positions(const std::vector<Position>& pos,
                              const LogDistanceModel& model,
                              double shadowing_sigma_db, Rng& rng) {
  RssMap map(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      double rss = model.rss_dbm(pos[i], pos[j]);
      if (shadowing_sigma_db > 0.0) {
        rss += rng.normal(0.0, shadowing_sigma_db);
      }
      map.set_rss(static_cast<NodeId>(i), static_cast<NodeId>(j), rss);
    }
  }
  return map;
}

}  // namespace dmn::topo
