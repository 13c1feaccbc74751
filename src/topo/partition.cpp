#include "topo/partition.h"

namespace dmn::topo {

std::vector<NodeId> Partitioning::members_of(std::uint32_t p) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] == p) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

Partitioning compute_partitions(const Topology& topo) {
  Partitioning out;
  out.count = topo.component_count();
  out.assignment.resize(topo.num_nodes());
  for (std::size_t i = 0; i < out.assignment.size(); ++i) {
    out.assignment[i] = topo.component_of(static_cast<NodeId>(i));
  }
  return out;
}

}  // namespace dmn::topo
