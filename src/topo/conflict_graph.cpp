#include "topo/conflict_graph.h"

#include <algorithm>

namespace dmn::topo {
namespace {

/// Pairwise scheduling margin (dB): conflict graphs are pairwise but slots
/// hold many concurrent links whose interference adds up; requiring each
/// pair to clear the threshold with margin keeps the summed case feasible.
constexpr double kGraphMarginDb = 3.0;

/// The one pairwise SINR test behind the graph and the census: SINR (dB) at
/// `receiver` for a signal from `sender` under one concurrent interferer.
/// Powers come from the topology's cached linear-power table (exactly
/// dbm_to_mw of the dBm map), and the noise term is converted once.
class PairSinr {
 public:
  explicit PairSinr(const Topology& topo)
      : topo_(topo),
        noise_mw_(dbm_to_mw(topo.thresholds().noise_floor_dbm)) {}

  double operator()(NodeId sender, NodeId receiver, NodeId interferer) const {
    return ratio_to_db(topo_.rss_mw(sender, receiver) /
                       (noise_mw_ + topo_.rss_mw(interferer, receiver)));
  }

 private:
  const Topology& topo_;
  double noise_mw_;
};

bool share_node(const Link& a, const Link& b) {
  return a.sender == b.sender || a.sender == b.receiver ||
         a.receiver == b.sender || a.receiver == b.receiver;
}

}  // namespace

ConflictGraph ConflictGraph::build(const Topology& topo,
                                   std::span<const Link> links) {
  ConflictGraph g;
  g.links_.assign(links.begin(), links.end());
  const std::size_t n = g.links_.size();
  g.conflict_.assign(n, std::vector<bool>(n, false));
  g.data_conflict_.assign(n, std::vector<bool>(n, false));
  const PairSinr sinr(topo);
  const double data_th = topo.thresholds().sinr_data_db + kGraphMarginDb;
  const double ctrl_th = topo.thresholds().sinr_control_db + kGraphMarginDb;
  for (std::size_t i = 0; i < n; ++i) {
    const Link& a = g.links_[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      const Link& b = g.links_[j];
      bool data = true;
      bool full = true;
      if (!share_node(a, b)) {
        // Data rule: either receiver's data SINR breaks under interference
        // from any endpoint of the other link (both endpoints of a link
        // transmit during a slot: data/fake one way, ACK back).
        data = sinr(a.sender, a.receiver, b.sender) < data_th ||
               sinr(a.sender, a.receiver, b.receiver) < data_th ||
               sinr(b.sender, b.receiver, a.sender) < data_th ||
               sinr(b.sender, b.receiver, a.receiver) < data_th;
        // Full rule = data rule plus ACK protection, so it is a superset of
        // the data rule by construction. Scheduled transmissions share a
        // fixed slot structure (data phases align with data phases, ACK
        // phases with ACK phases), so what must also hold is each ACK
        // decoding under the OTHER link's concurrent ACK.
        full = data || sinr(a.receiver, a.sender, b.receiver) < ctrl_th ||
               sinr(b.receiver, b.sender, a.receiver) < ctrl_th;
      }
      if (full) g.conflict_[i][j] = g.conflict_[j][i] = true;
      if (data) g.data_conflict_[i][j] = g.data_conflict_[j][i] = true;
    }
  }
  return g;
}

bool ConflictGraph::conflicts(LinkId a, LinkId b) const {
  if (a == b) return true;
  return conflict_.at(static_cast<std::size_t>(a))
      .at(static_cast<std::size_t>(b));
}

bool ConflictGraph::data_conflicts(LinkId a, LinkId b) const {
  if (a == b) return true;
  return data_conflict_.at(static_cast<std::size_t>(a))
      .at(static_cast<std::size_t>(b));
}

bool ConflictGraph::is_independent(std::span<const LinkId> set) const {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (conflicts(set[i], set[j])) return false;
    }
  }
  return true;
}

void ConflictGraph::extend_to_maximal(std::vector<LinkId>& set,
                                      std::span<const LinkId> candidates)
    const {
  for (LinkId c : candidates) {
    if (std::find(set.begin(), set.end(), c) != set.end()) continue;
    bool ok = true;
    for (LinkId s : set) {
      if (data_conflicts(c, s)) {
        ok = false;
        break;
      }
    }
    if (ok) set.push_back(c);
  }
}

LinkId ConflictGraph::find(const Link& l) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i] == l) return static_cast<LinkId>(i);
  }
  return kNoLink;
}

PairCensus classify_pairs(const Topology& topo, std::span<const Link> links) {
  PairCensus census;
  const PairSinr sinr(topo);
  const double th = topo.thresholds().sinr_data_db;
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      const Link& a = links[i];
      const Link& b = links[j];
      if (share_node(a, b)) continue;  // neither hidden nor exposed
      ++census.total;
      const bool sense = topo.can_sense(a.sender, b.sender);
      const bool both_ok = sinr(a.sender, a.receiver, b.sender) >= th &&
                           sinr(b.sender, b.receiver, a.sender) >= th;
      if (!sense && !both_ok) ++census.hidden;
      if (sense && both_ok) ++census.exposed;
    }
  }
  return census;
}

}  // namespace dmn::topo
