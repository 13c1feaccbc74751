#include "topo/conflict_graph.h"

#include <algorithm>
#include <atomic>

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
        noise_mw_(dbm_to_mw(topo.thresholds().noise_floor_dbm)),
        floor_mw_(dbm_to_mw(topo.thresholds().min_rss_dbm)) {}

  double operator()(NodeId sender, NodeId receiver, NodeId interferer) const {
    return ratio_to_db(topo_.rss_mw(sender, receiver) /
                       (noise_mw_ + topo_.rss_mw(interferer, receiver)));
  }

  /// The same SINR with the interferer at the receiver sensitivity: a lower
  /// bound for every interferer `receiver` cannot hear.
  double at_floor(NodeId sender, NodeId receiver) const {
    return ratio_to_db(topo_.rss_mw(sender, receiver) /
                       (noise_mw_ + floor_mw_));
  }

 private:
  const Topology& topo_;
  double noise_mw_;
  double floor_mw_;
};

/// Source of ConflictGraph::generation(); shared by concurrent sweeps.
std::atomic<std::uint64_t> g_last_generation{0};

bool share_node(const Link& a, const Link& b) {
  return a.sender == b.sender || a.sender == b.receiver ||
         a.receiver == b.sender || a.receiver == b.receiver;
}

}  // namespace

ConflictGraph ConflictGraph::build(const Topology& topo,
                                   std::span<const Link> links) {
  ConflictGraph g;
  g.generation_ = g_last_generation.fetch_add(1, std::memory_order_relaxed) + 1;
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
  // Only candidate pairs are scored. A node received below the sensitivity
  // (outside audible_from; RSS is symmetric, so audibility is too)
  // interferes less than one at the sensitivity floor, so a receiver that
  // clears the threshold under a floor interferer cannot be broken by it;
  // and senders out of hearing range cannot carrier-sense each other when
  // the CS threshold is at or above the sensitivity. A pair can therefore
  // be hidden or exposed only if b's sender is heard at a's receiver, a's
  // sender at b's receiver, or the senders hear each other — unless a link
  // fails even under a floor interferer, which is paired with every link.
  const PhyThresholds& ths = topo.thresholds();
  const PairSinr sinr(topo);
  const double th = ths.sinr_data_db;
  const bool scan_all = ths.cs_threshold_dbm < ths.min_rss_dbm;
  // Slack (dB) absorbing rounding between the floor bound and the exact
  // per-pair SINR: a link this close to the threshold is never pruned.
  constexpr double kFloorSlackDb = 1e-6;

  const std::size_t n = links.size();
  std::vector<std::vector<std::size_t>> by_sender(topo.num_nodes());
  std::vector<std::vector<std::size_t>> by_receiver(topo.num_nodes());
  std::vector<char> is_fallback(n, 0);  // paired with every other link
  std::vector<std::size_t> fallback;
  for (std::size_t i = 0; i < n; ++i) {
    const Link& l = links[i];
    by_sender[static_cast<std::size_t>(l.sender)].push_back(i);
    by_receiver[static_cast<std::size_t>(l.receiver)].push_back(i);
    if (scan_all || sinr.at_floor(l.sender, l.receiver) < th + kFloorSlackDb) {
      is_fallback[i] = 1;
      fallback.push_back(i);
    }
  }

  PairCensus census;
  census.total = n < 2 ? 0 : n * (n - 1) / 2;
  // mark[j] == i: pair (i, j) already handled while visiting link i.
  std::vector<std::size_t> mark(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const Link& a = links[i];
    // Node-sharing pairs are neither hidden nor exposed: drop them from
    // the total and mark them so no candidate source scores them.
    for (NodeId x : {a.sender, a.receiver}) {
      for (const auto* index : {&by_sender, &by_receiver}) {
        for (std::size_t j : (*index)[static_cast<std::size_t>(x)]) {
          if (mark[j] == i) continue;
          mark[j] = i;
          if (j > i) --census.total;
        }
      }
    }
    const auto score = [&](std::size_t j) {
      if (j <= i || mark[j] == i) return;
      mark[j] = i;
      const Link& b = links[j];
      const bool sense = topo.can_sense(a.sender, b.sender);
      const bool both_ok = sinr(a.sender, a.receiver, b.sender) >= th &&
                           sinr(b.sender, b.receiver, a.sender) >= th;
      if (!sense && !both_ok) ++census.hidden;
      if (sense && both_ok) ++census.exposed;
    };
    if (is_fallback[i]) {
      for (std::size_t j = i + 1; j < n; ++j) score(j);
      continue;
    }
    // b's sender heard at a's receiver.
    for (NodeId x : topo.audible_from(a.receiver)) {
      for (std::size_t j : by_sender[static_cast<std::size_t>(x)]) score(j);
    }
    // a's sender heard at b's receiver, or the senders hear each other.
    for (NodeId x : topo.audible_from(a.sender)) {
      for (std::size_t j : by_receiver[static_cast<std::size_t>(x)]) score(j);
      for (std::size_t j : by_sender[static_cast<std::size_t>(x)]) score(j);
    }
    for (std::size_t j : fallback) score(j);
  }
  return census;
}

}  // namespace dmn::topo
