#include "topo/conflict_graph.h"

#include <array>
#include <atomic>
#include <stdexcept>

namespace dmn::topo {
namespace {

/// Pairwise scheduling margin (dB): conflict graphs are pairwise but slots
/// hold many concurrent links whose interference adds up; requiring each
/// pair to clear the threshold with margin keeps the summed case feasible.
constexpr double kGraphMarginDb = 3.0;

/// The one pairwise SINR test behind the graph and the census: whether the
/// SINR at `receiver` for a signal from `sender` under one concurrent
/// interferer falls below a threshold of `th_db` dB (`th_lin` is
/// db_to_ratio(th_db)). The verdict is clears_db_threshold's: a linear
/// compare, with the dB compare only inside its narrow band, so it equals
/// the dB-domain test bit for bit while a test costs a division. Powers come
/// from the topology's cached linear-power table (exactly dbm_to_mw of the
/// dBm map), and the noise term is converted once.
class PairSinr {
 public:
  explicit PairSinr(const Topology& topo)
      : topo_(topo),
        noise_mw_(dbm_to_mw(topo.thresholds().noise_floor_dbm)),
        floor_mw_(dbm_to_mw(topo.thresholds().min_rss_dbm)) {}

  bool below(NodeId sender, NodeId receiver, NodeId interferer, double th_db,
             double th_lin) const {
    return !clears_db_threshold(
        topo_.rss_mw(sender, receiver) /
            (noise_mw_ + topo_.rss_mw(interferer, receiver)),
        th_db, th_lin);
  }

  /// The same test with the interferer at the receiver sensitivity: the SINR
  /// is a lower bound for every interferer `receiver` cannot hear.
  bool below_at_floor(NodeId sender, NodeId receiver, double th_db,
                      double th_lin) const {
    return !clears_db_threshold(
        topo_.rss_mw(sender, receiver) / (noise_mw_ + floor_mw_), th_db,
        th_lin);
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
  const std::size_t words = (n + 63) / 64;
  g.words_ = words;
  g.conflict_.assign(n * words, 0);
  g.data_conflict_.assign(n * words, 0);
  const auto set_pair = [words](std::vector<std::uint64_t>& m, std::size_t i,
                                std::size_t j) {
    m[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
    m[j * words + i / 64] |= std::uint64_t{1} << (i % 64);
  };
  const PairSinr sinr(topo);
  const double data_th = topo.thresholds().sinr_data_db + kGraphMarginDb;
  const double ctrl_th = topo.thresholds().sinr_control_db + kGraphMarginDb;
  const double data_lin = db_to_ratio(data_th);
  const double ctrl_lin = db_to_ratio(ctrl_th);
  for (std::size_t i = 0; i < n; ++i) {
    const Link& a = g.links_[i];
    set_pair(g.conflict_, i, i);  // a link conflicts with itself
    set_pair(g.data_conflict_, i, i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const Link& b = g.links_[j];
      bool data = true;
      bool full = true;
      if (!share_node(a, b)) {
        // Data rule: either receiver's data SINR breaks under interference
        // from any endpoint of the other link (both endpoints of a link
        // transmit during a slot: data/fake one way, ACK back).
        data =
            sinr.below(a.sender, a.receiver, b.sender, data_th, data_lin) ||
            sinr.below(a.sender, a.receiver, b.receiver, data_th, data_lin) ||
            sinr.below(b.sender, b.receiver, a.sender, data_th, data_lin) ||
            sinr.below(b.sender, b.receiver, a.receiver, data_th, data_lin);
        // Full rule = data rule plus ACK protection, so it is a superset of
        // the data rule by construction. Scheduled transmissions share a
        // fixed slot structure (data phases align with data phases, ACK
        // phases with ACK phases), so what must also hold is each ACK
        // decoding under the OTHER link's concurrent ACK.
        full = data ||
               sinr.below(a.receiver, a.sender, b.receiver, ctrl_th,
                          ctrl_lin) ||
               sinr.below(b.receiver, b.sender, a.receiver, ctrl_th,
                          ctrl_lin);
      }
      if (full) set_pair(g.conflict_, i, j);
      if (data) set_pair(g.data_conflict_, i, j);
    }
  }
  return g;
}

std::size_t ConflictGraph::row_offset(LinkId a) const {
  const auto i = static_cast<std::size_t>(a);
  if (i >= links_.size()) {
    throw std::out_of_range("ConflictGraph: link id out of range");
  }
  return i * words_;
}

std::span<const std::uint64_t> ConflictGraph::conflict_row(LinkId a) const {
  return {conflict_.data() + row_offset(a), words_};
}

std::span<const std::uint64_t> ConflictGraph::data_conflict_row(
    LinkId a) const {
  return {data_conflict_.data() + row_offset(a), words_};
}

bool ConflictGraph::conflicts(LinkId a, LinkId b) const {
  row_offset(b);  // range check
  return row_bit(conflict_row(a), static_cast<std::size_t>(b));
}

bool ConflictGraph::data_conflicts(LinkId a, LinkId b) const {
  row_offset(b);  // range check
  return row_bit(data_conflict_row(a), static_cast<std::size_t>(b));
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
  // blocked = OR of the data rows of the set's links. Each row has its own
  // bit set, so a candidate already in the set is blocked too. Graphs up to
  // 1,024 links keep the mask on the stack.
  std::array<std::uint64_t, 16> inline_words{};
  std::vector<std::uint64_t> heap_words;
  std::span<std::uint64_t> blocked(inline_words.data(), words_);
  if (words_ > inline_words.size()) {
    heap_words.assign(words_, 0);
    blocked = heap_words;
  }
  for (LinkId s : set) or_row(blocked, data_conflict_row(s));
  for (LinkId c : candidates) {
    const std::span<const std::uint64_t> row = data_conflict_row(c);
    if (row_bit(blocked, static_cast<std::size_t>(c))) continue;
    set.push_back(c);
    or_row(blocked, row);
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
  const double th_lin = db_to_ratio(th);
  const bool scan_all = ths.cs_threshold_dbm < ths.min_rss_dbm;
  // Slack (dB) absorbing rounding between the floor bound and the exact
  // per-pair SINR: a link this close to the threshold is never pruned.
  constexpr double kFloorSlackDb = 1e-6;
  const double floor_th = th + kFloorSlackDb;
  const double floor_th_lin = db_to_ratio(floor_th);

  const std::size_t n = links.size();
  std::vector<std::vector<std::size_t>> by_sender(topo.num_nodes());
  std::vector<std::vector<std::size_t>> by_receiver(topo.num_nodes());
  std::vector<char> is_fallback(n, 0);  // paired with every other link
  std::vector<std::size_t> fallback;
  for (std::size_t i = 0; i < n; ++i) {
    const Link& l = links[i];
    by_sender[static_cast<std::size_t>(l.sender)].push_back(i);
    by_receiver[static_cast<std::size_t>(l.receiver)].push_back(i);
    if (scan_all ||
        sinr.below_at_floor(l.sender, l.receiver, floor_th, floor_th_lin)) {
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
      const bool both_ok =
          !sinr.below(a.sender, a.receiver, b.sender, th, th_lin) &&
          !sinr.below(b.sender, b.receiver, a.sender, th, th_lin);
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
