#include "topo/topology.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

namespace dmn::topo {

namespace {

/// Dense-matrix memory guard: the RSS fast path bakes an n x n double
/// matrix, so an absurd node count from a bad trace would silently try to
/// allocate unbounded memory. 32768 nodes ~= 8 GB per matrix — enough for
/// the 1000-AP / 24k-client campus the partitioned-kernel scale bench
/// simulates (bench/bench_scale.cpp), while still rejecting garbage counts.
constexpr std::size_t kMaxNodes = 32768;

std::size_t find_root(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

void unite(std::vector<std::size_t>& parent, std::size_t a, std::size_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a != b) parent[std::max(a, b)] = std::min(a, b);
}

}  // namespace

Topology::Topology(std::vector<Node> nodes, RssMap rss,
                   PhyThresholds thresholds)
    : nodes_(std::move(nodes)), rss_(std::move(rss)), thresholds_(thresholds) {
  // Ingestion validation: every topology — trace-derived, random or
  // hand-built — passes through here, so this is the chokepoint where bad
  // RSS traces and malformed node tables are rejected by name instead of
  // silently propagating garbage into the linear-power matrix.
  if (nodes_.empty()) {
    throw std::invalid_argument("Topology: node list is empty");
  }
  if (nodes_.size() > kMaxNodes) {
    throw std::invalid_argument(
        "Topology: node count " + std::to_string(nodes_.size()) +
        " exceeds the supported maximum of " + std::to_string(kMaxNodes));
  }
  if (rss_.size() != nodes_.size()) {
    throw std::invalid_argument("Topology: RSS map size != node count");
  }
  const std::size_t n = nodes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    if (node.id != static_cast<NodeId>(i)) {
      throw std::invalid_argument(
          "Topology: node at index " + std::to_string(i) + " has id " +
          std::to_string(node.id) +
          " (ids must be unique and equal to their index)");
    }
    if (!node.is_ap && node.ap != kNoNode) {
      if (node.ap < 0 || static_cast<std::size_t>(node.ap) >= n) {
        throw std::invalid_argument(
            "Topology: client " + std::to_string(node.id) +
            " is associated to nonexistent AP " + std::to_string(node.ap));
      }
      if (!nodes_[static_cast<std::size_t>(node.ap)].is_ap) {
        throw std::invalid_argument(
            "Topology: client " + std::to_string(node.id) +
            " is associated to node " + std::to_string(node.ap) +
            ", which is not an AP");
      }
    }
  }

  // Bake the PHY fast-path tables: the linear-power matrix (one pow() per
  // pair here instead of one per interference term at runtime), the
  // per-source audible-neighbor lists that bound frame delivery fan-out,
  // and, by union-find in the same pass, the coupling components.
  rss_mw_.resize(n * n);
  audible_.resize(n);
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double dbm = rss_.rss(static_cast<NodeId>(a),
                                  static_cast<NodeId>(b));
      // Off-diagonal entries must be real attenuations: NaN poisons every
      // downstream SINR sum, and a positive-dBm "received" power is
      // stronger than any transmitter in this model — both are trace
      // corruption, not physics. (-inf marks "no path" and is fine; the
      // diagonal is -inf by construction.)
      if (a != b && (std::isnan(dbm) || dbm > 0.0)) {
        throw std::invalid_argument(
            "Topology: RSS(" + std::to_string(a) + ", " + std::to_string(b) +
            ") = " + std::to_string(dbm) +
            " dBm is invalid (expected a finite value <= 0 dBm, or -inf "
            "for no path)");
      }
      const double mw = dbm_to_mw(dbm);
      rss_mw_[a * n + b] = mw;
      if (mw > 0.0 && parent[b] != parent[a]) unite(parent, a, b);
      if (a != b && dbm >= thresholds_.min_rss_dbm) {
        audible_[a].push_back(static_cast<NodeId>(b));
      }
    }
  }
  for (const Node& node : nodes_) {
    if (!node.is_ap && node.ap != kNoNode) {
      unite(parent, static_cast<std::size_t>(node.id),
            static_cast<std::size_t>(node.ap));
    }
  }
  for (std::size_t i = 0; i < n; ++i) parent[i] = find_root(parent, i);
  set_components(parent);
}

void Topology::set_components(const std::vector<std::size_t>& label) {
  const std::size_t n = nodes_.size();
  constexpr std::uint32_t kUnset = 0xffffffffu;
  // Numbering labels in node-id order of first appearance orders the ids
  // by each component's smallest member.
  std::vector<std::uint32_t> id(n, kUnset);
  std::uint32_t count = 0;
  component_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t& c = id[label[i]];
    if (c == kUnset) c = count++;
    component_[i] = c;
  }
  comp_begin_.assign(count + 1, 0);
  for (const std::uint32_t c : component_) ++comp_begin_[c + 1];
  for (std::uint32_t c = 0; c < count; ++c) {
    comp_begin_[c + 1] += comp_begin_[c];
  }
  std::vector<std::size_t> next(comp_begin_.begin(), comp_begin_.end() - 1);
  comp_nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    comp_nodes_[next[component_[i]]++] = static_cast<NodeId>(i);
  }
}

void Topology::couple(NodeId a, NodeId b) {
  const std::uint32_t ca = component_of(a);
  const std::uint32_t cb = component_of(b);
  if (ca == cb) return;
  std::vector<std::size_t> label(component_.begin(), component_.end());
  for (std::size_t& l : label) {
    if (l == cb) l = ca;
  }
  set_components(label);
}

void Topology::update_audible(NodeId src, NodeId dst, double dbm) {
  auto& list = audible_[static_cast<std::size_t>(src)];
  const auto it = std::lower_bound(list.begin(), list.end(), dst);
  const bool present = it != list.end() && *it == dst;
  const bool should = dbm >= thresholds_.min_rss_dbm;
  if (should && !present) {
    list.insert(it, dst);
  } else if (!should && present) {
    list.erase(it);
  }
}

void Topology::update_rss(NodeId a, NodeId b, double dbm) {
  const std::size_t n = nodes_.size();
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= n ||
      static_cast<std::size_t>(b) >= n || a == b) {
    throw std::invalid_argument(
        "Topology::update_rss: invalid pair (" + std::to_string(a) + ", " +
        std::to_string(b) + ")");
  }
  // Same corruption gate as the constructor: NaN poisons SINR sums and
  // positive dBm is stronger than any transmitter in this model.
  if (std::isnan(dbm) || dbm > 0.0) {
    throw std::invalid_argument(
        "Topology::update_rss(" + std::to_string(a) + ", " +
        std::to_string(b) + ") = " + std::to_string(dbm) +
        " dBm is invalid (expected a finite value <= 0 dBm, or -inf for "
        "no path)");
  }
  rss_.set_rss(a, b, dbm);
  const double mw = dbm_to_mw(dbm);
  rss_mw_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)] = mw;
  rss_mw_[static_cast<std::size_t>(b) * n + static_cast<std::size_t>(a)] = mw;
  update_audible(a, b, dbm);
  update_audible(b, a, dbm);
  if (mw > 0.0) couple(a, b);
}

void Topology::set_association(NodeId client, NodeId ap) {
  const std::size_t n = nodes_.size();
  if (client < 0 || static_cast<std::size_t>(client) >= n ||
      nodes_[static_cast<std::size_t>(client)].is_ap) {
    throw std::invalid_argument("Topology::set_association: node " +
                                std::to_string(client) + " is not a client");
  }
  if (ap != kNoNode &&
      (ap < 0 || static_cast<std::size_t>(ap) >= n ||
       !nodes_[static_cast<std::size_t>(ap)].is_ap)) {
    throw std::invalid_argument("Topology::set_association: node " +
                                std::to_string(ap) + " is not an AP");
  }
  nodes_[static_cast<std::size_t>(client)].ap = ap;
  if (ap != kNoNode) couple(client, ap);
}

void Topology::set_position(NodeId id, const Position& pos) {
  nodes_.at(static_cast<std::size_t>(id)).pos = pos;
}

void Topology::set_node_active(NodeId id, bool active) {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) {
    throw std::invalid_argument("Topology::set_node_active: invalid node " +
                                std::to_string(id));
  }
  if (active_.empty()) {
    if (active) return;  // all nodes already active
    active_.assign(nodes_.size(), 1);
  }
  active_[static_cast<std::size_t>(id)] = active ? 1 : 0;
}

bool Topology::can_sense(NodeId a, NodeId b) const {
  if (a == b) return true;
  return rss(a, b) >= thresholds_.cs_threshold_dbm;
}

bool Topology::can_communicate(NodeId a, NodeId b) const {
  if (a == b) return false;
  return rss(a, b) >= thresholds_.assoc_rss_dbm;
}

std::vector<NodeId> Topology::aps() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.is_ap) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Topology::clients_of(NodeId ap) const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (!n.is_ap && n.ap == ap) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Topology::all_clients() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (!n.is_ap) out.push_back(n.id);
  }
  return out;
}

std::vector<Link> Topology::make_links(bool downlink, bool uplink) const {
  std::vector<Link> links;
  for (const Node& n : nodes_) {
    // Departed clients (join/leave churn) carry no schedulable links until
    // they rejoin.
    if (n.is_ap || n.ap == kNoNode || !node_active(n.id)) continue;
    if (downlink) links.push_back(Link{n.ap, n.id});
    if (uplink) links.push_back(Link{n.id, n.ap});
  }
  return links;
}

Topology Topology::build_tmn(const RssMap& trace, std::size_t m,
                             std::size_t n, const PhyThresholds& thresholds,
                             Rng& rng) {
  if (m == 0 || n == 0) {
    throw std::invalid_argument(
        "build_tmn: T(m, n) requires m >= 1 APs and n >= 1 clients (got m=" +
        std::to_string(m) + ", n=" + std::to_string(n) + ")");
  }
  const std::size_t total = trace.size();

  // Degree in the communication graph (paper: "number of nodes in their
  // communication range").
  auto degree = [&](std::size_t i) {
    std::size_t d = 0;
    for (std::size_t j = 0; j < total; ++j) {
      if (j != i && trace.rss(static_cast<NodeId>(i),
                              static_cast<NodeId>(j)) >=
                        thresholds.assoc_rss_dbm) {
        ++d;
      }
    }
    return d;
  };

  std::vector<std::size_t> order(total);
  for (std::size_t i = 0; i < total; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return degree(a) > degree(b);
  });

  std::vector<bool> used(total, false);
  std::vector<Node> nodes(total);
  for (std::size_t i = 0; i < total; ++i) {
    nodes[i] = Node{static_cast<NodeId>(i), Position{}, false, kNoNode};
  }

  std::size_t aps_made = 0;
  for (std::size_t oi = 0; oi < total && aps_made < m; ++oi) {
    const std::size_t cand = order[oi];
    if (used[cand]) continue;

    // Collect unused nodes in the candidate AP's communication range.
    std::vector<std::size_t> avail;
    for (std::size_t j = 0; j < total; ++j) {
      if (!used[j] && j != cand &&
          trace.rss(static_cast<NodeId>(cand), static_cast<NodeId>(j)) >=
              thresholds.assoc_rss_dbm) {
        avail.push_back(j);
      }
    }
    if (avail.size() < n) continue;  // cannot host n clients, try next

    used[cand] = true;
    nodes[cand].is_ap = true;
    rng.shuffle(avail);
    for (std::size_t k = 0; k < n; ++k) {
      used[avail[k]] = true;
      nodes[avail[k]].ap = static_cast<NodeId>(cand);
    }
    ++aps_made;
  }
  if (aps_made < m) {
    throw std::runtime_error("build_tmn: trace cannot supply requested T(m,n)");
  }

  // Keep only the selected nodes, renumbering compactly.
  std::vector<NodeId> remap(total, kNoNode);
  std::vector<Node> kept;
  for (std::size_t i = 0; i < total; ++i) {
    if (used[i]) {
      remap[i] = static_cast<NodeId>(kept.size());
      Node nn = nodes[i];
      nn.id = remap[i];
      kept.push_back(nn);
    }
  }
  for (Node& nn : kept) {
    if (nn.ap != kNoNode) nn.ap = remap[static_cast<std::size_t>(nn.ap)];
  }
  RssMap sub(kept.size());
  for (std::size_t i = 0; i < total; ++i) {
    if (remap[i] == kNoNode) continue;
    for (std::size_t j = i + 1; j < total; ++j) {
      if (remap[j] == kNoNode) continue;
      sub.set_rss(remap[i], remap[j],
                  trace.rss(static_cast<NodeId>(i), static_cast<NodeId>(j)));
    }
  }
  return Topology(std::move(kept), std::move(sub), thresholds);
}

Topology Topology::random_network(std::size_t m, std::size_t n, double side,
                                  const LogDistanceModel& model,
                                  const PhyThresholds& thresholds, Rng& rng) {
  if (m == 0) {
    throw std::invalid_argument("random_network: need at least one AP");
  }
  if (!(side > 0.0) || !std::isfinite(side)) {
    throw std::invalid_argument(
        "random_network: area side must be a positive finite length (got " +
        std::to_string(side) + ")");
  }
  // Maximum AP-client distance that still satisfies the association RSS.
  // rss = tx - ref - 10*e*log10(d) >= assoc  =>  d <= 10^((tx-ref-assoc)/(10e))
  const double max_d = std::pow(
      10.0, (model.tx_power_dbm - model.ref_loss_db -
             thresholds.assoc_rss_dbm) /
                (10.0 * model.exponent));

  std::vector<Node> nodes;
  std::vector<Position> pos;
  for (std::size_t a = 0; a < m; ++a) {
    const NodeId ap_id = static_cast<NodeId>(nodes.size());
    const Position ap_pos{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    nodes.push_back(Node{ap_id, ap_pos, true, kNoNode});
    pos.push_back(ap_pos);
    for (std::size_t c = 0; c < n; ++c) {
      // Rejection-sample a client inside both the AP disc and the area.
      Position p{};
      for (int tries = 0; tries < 1000; ++tries) {
        const double r = max_d * std::sqrt(rng.uniform(0.0, 1.0));
        const double th = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
        p = Position{ap_pos.x + r * std::cos(th), ap_pos.y + r * std::sin(th)};
        if (p.x >= 0.0 && p.x <= side && p.y >= 0.0 && p.y <= side) break;
      }
      const NodeId cid = static_cast<NodeId>(nodes.size());
      nodes.push_back(Node{cid, p, false, ap_id});
      pos.push_back(p);
    }
  }
  RssMap rss = RssMap::from_positions(pos, model, /*shadowing=*/0.0, rng);
  return Topology(std::move(nodes), std::move(rss), thresholds);
}

NodeId ManualTopologyBuilder::add_ap(Position pos) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, pos, true, kNoNode});
  return id;
}

NodeId ManualTopologyBuilder::add_client(NodeId ap, Position pos) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, pos, false, ap});
  edges_.emplace_back(ap, id, kRssStrong);
  return id;
}

ManualTopologyBuilder& ManualTopologyBuilder::set_rss(NodeId a, NodeId b,
                                                      double dbm) {
  edges_.emplace_back(a, b, dbm);
  return *this;
}

ManualTopologyBuilder& ManualTopologyBuilder::interfere(NodeId a, NodeId b) {
  edges_.emplace_back(a, b, kRssInterfere);
  return *this;
}

ManualTopologyBuilder& ManualTopologyBuilder::sense(NodeId a, NodeId b) {
  edges_.emplace_back(a, b, kRssSense);
  return *this;
}

Topology ManualTopologyBuilder::build(const PhyThresholds& thresholds) const {
  RssMap rss(nodes_.size());  // kRssFaint (no path) everywhere
  for (const auto& [a, b, dbm] : edges_) {
    // set_rss on an out-of-range id would index past the dense matrix, so
    // reject the edge here with both endpoints named.
    if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= nodes_.size() ||
        static_cast<std::size_t>(b) >= nodes_.size() || a == b) {
      throw std::invalid_argument(
          "ManualTopologyBuilder: edge (" + std::to_string(a) + ", " +
          std::to_string(b) + ") references an invalid node id (topology has " +
          std::to_string(nodes_.size()) + " nodes)");
    }
    rss.set_rss(a, b, dbm);
  }
  return Topology(nodes_, std::move(rss), thresholds);
}

}  // namespace dmn::topo
