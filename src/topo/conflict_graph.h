#pragma once
// Conflict graph G(V, E) over links (§3, "Identifying hidden and exposed
// links"): each vertex is a directed AP-client link; an edge means the two
// links cannot transmit concurrently. Built from the central interference
// (RSS) map exactly as the paper's server does. Also provides the
// hidden/exposed pair classification the evaluation reports.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topo/topology.h"

namespace dmn::topo {

class ConflictGraph {
 public:
  /// Builds the graph for `links` over `topo`. Two links conflict when
  ///  * they share a node (half-duplex / single radio), or
  ///  * either receiver's data SINR — desired power over (noise + one
  ///    endpoint of the other link) — falls below the data decode
  ///    threshold plus a 3 dB pairwise margin, or
  ///  * (full rule only) either sender's ACK SINR under the other link's
  ///    concurrent ACK falls below the control threshold plus the margin.
  static ConflictGraph build(const Topology& topo,
                             std::span<const Link> links);

  std::size_t num_links() const { return links_.size(); }
  const std::vector<Link>& links() const { return links_; }
  const Link& link(LinkId id) const {
    return links_.at(static_cast<std::size_t>(id));
  }

  /// Whether `a` and `b` conflict (a link conflicts with itself). Throws
  /// std::out_of_range on an id outside the graph.
  bool conflicts(LinkId a, LinkId b) const;
  /// Relaxed rule protecting only the data direction: used for fake-link
  /// insertion, where losing the occasional instruction-carrying ACK is
  /// acceptable but corrupting a real link's data is not.
  bool data_conflicts(LinkId a, LinkId b) const;

  /// Row `a` of the adjacency matrix as words_per_row() packed words: bit
  /// j % 64 of word j / 64 is conflicts(a, j), the diagonal included (see
  /// row_bit). Throws std::out_of_range on an id outside the graph.
  std::span<const std::uint64_t> conflict_row(LinkId a) const;
  /// The same row under the data-only rule (data_conflicts).
  std::span<const std::uint64_t> data_conflict_row(LinkId a) const;
  std::size_t words_per_row() const { return words_; }

  /// True if `set` is an independent set (pairwise conflict-free).
  bool is_independent(std::span<const LinkId> set) const;

  /// Greedy maximal extension: adds links from `candidates` (in order) to
  /// `set` until no more fit. Used for fake-link insertion, hence the
  /// relaxed data-only conflict rule.
  void extend_to_maximal(std::vector<LinkId>& set,
                         std::span<const LinkId> candidates) const;

  /// Finds the LinkId of `l`, or kNoLink.
  LinkId find(const Link& l) const;

  /// Stamp of the build() that produced this graph, unique per process
  /// (never 0). Tables derived from a graph (the converter's) remember it,
  /// so an in-place rebuild (`*graph = ConflictGraph::build(...)`) tells
  /// them to refresh.
  std::uint64_t generation() const { return generation_; }

 private:
  std::uint64_t generation_ = 0;
  std::vector<Link> links_;
  /// Checked start of row `a` in either matrix (words_ words per row).
  std::size_t row_offset(LinkId a) const;

  std::size_t words_ = 0;
  std::vector<std::uint64_t> conflict_;       // full (data + ACK), row-major
  std::vector<std::uint64_t> data_conflict_;  // data direction only
};

/// Bit `j` of a packed row: word j / 64, bit j % 64.
inline bool row_bit(std::span<const std::uint64_t> row, std::size_t j) {
  return ((row[j / 64] >> (j % 64)) & 1u) != 0;
}

/// mask |= row, word by word: after OR-ing in the rows of the links chosen
/// so far, a candidate's bit is clear iff it conflicts with none of them.
inline void or_row(std::span<std::uint64_t> mask,
                   std::span<const std::uint64_t> row) {
  for (std::size_t w = 0; w < mask.size(); ++w) mask[w] |= row[w];
}

/// Hidden/exposed census over all unordered pairs of node-disjoint links:
///  * hidden: senders cannot carrier-sense each other, yet concurrent
///    transmission fails at a receiver;
///  * exposed: senders sense each other (so DCF serializes them), yet both
///    receptions would succeed concurrently.
/// classify_pairs scores only the pairs that can be either (endpoints within
/// hearing range; see conflict_graph.cpp), so its counts equal a scan of
/// every pair.
struct PairCensus {
  std::size_t hidden = 0;
  std::size_t exposed = 0;
  std::size_t total = 0;  // node-disjoint pairs considered
};
PairCensus classify_pairs(const Topology& topo, std::span<const Link> links);

}  // namespace dmn::topo
