#pragma once
// Interference partitions: the topology's coupling components
// (Topology::component_of). Two nodes in different components share no
// nonzero power and no association, so neither carrier sense, interference
// summation nor frame delivery can couple them over the air — the wired
// backbone, when a scheme builds one, is the only cross-component channel,
// and its min_latency floor becomes the conservative lookahead of the
// partitioned kernel (src/sim/simulator.h).

#include <cstdint>
#include <vector>

#include "topo/topology.h"

namespace dmn::topo {

struct Partitioning {
  /// Partition id per node, indexed by NodeId. Ids are dense [0, count) and
  /// ordered by each component's smallest node id, so the assignment is a
  /// pure function of the topology — never of thread count or build order.
  std::vector<std::uint32_t> assignment;
  std::uint32_t count = 0;

  std::vector<NodeId> members_of(std::uint32_t p) const;
};

/// The topology's coupling components as a partitioning.
Partitioning compute_partitions(const Topology& topo);

}  // namespace dmn::topo
