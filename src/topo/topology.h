#pragma once
// The Topology bundles nodes, associations, the RSS map and the PHY
// thresholds every scheme consumes, plus the builders the paper's
// evaluation uses: T(m,n) drawn from a trace (§4.2.1), ns-3-style random
// placement (§4.2.5), and hand-built figure topologies (Figs 1, 7, 13).

#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "topo/node.h"
#include "topo/propagation.h"
#include "util/page_allocator.h"
#include "util/rng.h"
#include "util/units.h"

namespace dmn::topo {

/// Radio decision thresholds shared by every MAC scheme.
struct PhyThresholds {
  double noise_floor_dbm = kNoiseFloorDbm;   // -94 dBm
  double cs_threshold_dbm = -82.0;           // carrier-sense energy detect
  double sinr_data_db = 7.0;                 // 12 Mbps decode threshold
  double sinr_control_db = 4.0;              // 6 Mbps (paper's cited floor)
  double min_rss_dbm = -87.0;                // receiver sensitivity
  double assoc_rss_dbm = -80.0;              // "can communicate" for T(m,n)
};

/// RSS tiers used by hand-built figure topologies.
///  * kRssStrong    — AP-client communication links.
///  * kRssInterfere — destructive co-channel interference (hidden-terminal
///    collision edges); decisively inside the SINR threshold.
///  * kRssSense     — "can hear each other": above the carrier-sense
///    threshold but below the association/communication threshold, and far
///    enough below the communication tier that concurrent (exposed)
///    transmissions and their ACKs still decode.
///  * kRssFaint     — out of range entirely: no path (-inf dBm, 0 mW), so
///    the pair neither interferes nor couples (see component_of).
inline constexpr double kRssStrong = -55.0;
inline constexpr double kRssInterfere = -58.0;
inline constexpr double kRssSense = -81.0;
inline constexpr double kRssFaint = -std::numeric_limits<double>::infinity();

class Topology {
 public:
  Topology(std::vector<Node> nodes, RssMap rss, PhyThresholds thresholds);

  // ---- builders -------------------------------------------------------

  /// The paper's T(m,n): sort trace nodes by communication-range degree
  /// (descending), repeatedly take the best remaining node as an AP and
  /// give it n random in-range clients. Throws if the trace cannot supply
  /// m APs with n clients each.
  static Topology build_tmn(const RssMap& trace, std::size_t m, std::size_t n,
                            const PhyThresholds& thresholds, Rng& rng);

  /// Random placement of m APs x n clients in a side x side square with a
  /// log-distance model (the Figure 14 setting). Clients are placed within
  /// communication range of their AP.
  static Topology random_network(std::size_t m, std::size_t n, double side,
                                 const LogDistanceModel& model,
                                 const PhyThresholds& thresholds, Rng& rng);

  // ---- mutation (dynamic networks) ------------------------------------
  // Incremental updates driven by the lifecycle layer (topo/dynamics.h,
  // api/lifecycle.h). Each call keeps the PHY fast-path tables — the
  // linear-power matrix, the sorted audible lists and the coupling
  // components — exactly consistent with the dBm map, so
  // phy::Medium::on_topology_changed() can re-derive its running sums from
  // current rows at any time.

  /// Updates the RSS of one pair, both directions. Rejects NaN / positive
  /// dBm like the constructor (-inf = "no path" is fine). Nonzero power
  /// merges the pair's components.
  void update_rss(NodeId a, NodeId b, double dbm);

  /// Re-associates `client` to `ap` (roaming) and merges their components.
  /// `ap` must be an AP.
  void set_association(NodeId client, NodeId ap);

  /// Moves a node (mobility bookkeeping only — callers update RSS
  /// separately via update_rss from their propagation model).
  void set_position(NodeId id, const Position& pos);

  /// Marks a node present/absent (join/leave churn). Inactive clients are
  /// skipped by make_links; traffic and scheme layers consult this flag
  /// through the lifecycle driver. All nodes start active.
  void set_node_active(NodeId id, bool active);
  bool node_active(NodeId id) const {
    return active_.empty() || active_[static_cast<std::size_t>(id)] != 0;
  }

  // ---- accessors ------------------------------------------------------

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_.at(
      static_cast<std::size_t>(id)); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const PhyThresholds& thresholds() const { return thresholds_; }

  double rss(NodeId a, NodeId b) const { return rss_.rss(a, b); }

  // ---- PHY fast path ---------------------------------------------------
  // Derived tables precomputed at construction so the per-transmission
  // loops in phy::Medium never convert dBm (a pow() per term) and never
  // visit nodes that cannot hear the transmitter. The dBm map keeps one
  // entry per unordered pair (see RssMap); the linear-power matrix keeps
  // both directions, full n x n rows, so a transmitter's contributions
  // are one contiguous row.

  /// Linear received power in mW for the (a, b) pair; exactly
  /// dbm_to_mw(rss(a, b)). 0 mW on the diagonal (rss is -inf there).
  double rss_mw(NodeId a, NodeId b) const {
    return rss_mw_[static_cast<std::size_t>(a) * nodes_.size() +
                   static_cast<std::size_t>(b)];
  }

  /// Row of the linear-power matrix: contribution of a transmission from
  /// `src` to every node, indexable by NodeId.
  std::span<const double> rss_mw_row(NodeId src) const {
    return {rss_mw_.data() + static_cast<std::size_t>(src) * nodes_.size(),
            nodes_.size()};
  }

  /// Nodes that receive `src` at or above the receiver sensitivity
  /// (thresholds().min_rss_dbm), ascending id order, excluding `src`.
  /// These are the only nodes a frame from `src` can be delivered to.
  std::span<const NodeId> audible_from(NodeId src) const {
    return audible_[static_cast<std::size_t>(src)];
  }

  // ---- coupling components ---------------------------------------------
  // Two nodes couple when one receives nonzero linear power from the other
  // (rss_mw > 0) or when one is the other's associated AP. Nodes in
  // different coupling components never interact over the air — no
  // delivery, carrier-sense or interference term crosses — so a component
  // is the unit of phy::Medium accounting and of the partitioned kernel
  // (topo/partition.h). Ids are dense [0, component_count()) and ordered by
  // each component's smallest node id: a pure function of the coupling.
  // update_rss and set_association merge the components a new coupling
  // joins; removing a coupling never splits one, so after such a change a
  // component is still closed under coupling, only larger than needed.

  std::uint32_t component_of(NodeId n) const {
    return component_[static_cast<std::size_t>(n)];
  }
  std::uint32_t component_count() const {
    return static_cast<std::uint32_t>(comp_begin_.size() - 1);
  }
  /// The members of component `c`, ascending.
  std::span<const NodeId> component_members(std::uint32_t c) const {
    return {comp_nodes_.data() + comp_begin_[c],
            comp_begin_[c + 1] - comp_begin_[c]};
  }

  /// a hears b's transmissions for carrier sensing.
  bool can_sense(NodeId a, NodeId b) const;

  /// a can decode packets from b in a quiet channel.
  bool can_communicate(NodeId a, NodeId b) const;

  std::vector<NodeId> aps() const;
  std::vector<NodeId> clients_of(NodeId ap) const;
  std::vector<NodeId> all_clients() const;

  /// All AP->client (downlink) and/or client->AP (uplink) links.
  std::vector<Link> make_links(bool downlink, bool uplink) const;

 private:
  std::vector<Node> nodes_;
  RssMap rss_;
  PhyThresholds thresholds_;
  util::DenseTable rss_mw_;  // n x n, row-major; 0 mW where no path
  std::vector<std::vector<NodeId>> audible_;  // per-src audible neighbors
  /// Lazy presence flags (join/leave churn): empty = every node active.
  std::vector<char> active_;
  std::vector<std::uint32_t> component_;  // component id per node
  std::vector<NodeId> comp_nodes_;  // members, grouped by component id
  std::vector<std::size_t> comp_begin_;  // component c's slice of comp_nodes_

  /// Keeps audible_[src] consistent with a changed rss(src, dst).
  void update_audible(NodeId src, NodeId dst, double dbm);
  /// Adopts the components that `label` (any per-node component labels)
  /// describes: canonical ids and member lists.
  void set_components(const std::vector<std::size_t>& label);
  /// Merges the components of a and b.
  void couple(NodeId a, NodeId b);
};

/// Incremental builder for hand-crafted figure topologies. RSS defaults to
/// kRssFaint everywhere; the caller paints communication and interference
/// edges on top.
class ManualTopologyBuilder {
 public:
  /// Adds an AP; returns its id.
  NodeId add_ap(Position pos = {});
  /// Adds a client associated to `ap`; automatically sets strong RSS
  /// between the pair. Returns its id.
  NodeId add_client(NodeId ap, Position pos = {});

  /// Paints RSS for a node pair (both directions).
  ManualTopologyBuilder& set_rss(NodeId a, NodeId b, double dbm);
  /// Marks the pair as destructively interfering (kRssInterfere).
  ManualTopologyBuilder& interfere(NodeId a, NodeId b);
  /// Marks the pair as within carrier-sense range only (kRssSense).
  ManualTopologyBuilder& sense(NodeId a, NodeId b);

  Topology build(const PhyThresholds& thresholds = {}) const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::tuple<NodeId, NodeId, double>> edges_;
};

}  // namespace dmn::topo
