#pragma once
// Greedy maximal-independent-set scheduler modelled on RAND (Ramanathan,
// "A unified framework and algorithm for channel assignment in wireless
// networks"), as adapted by the paper (§4.2.1):
//
//   * take the first link in the queue Q with demand; seed the slot set C;
//   * scan Q, adding every link with demand that conflicts with nothing in
//     C (maximal extension);
//   * move the members of C to the tail of Q (round-robin fairness);
//   * repeat for each slot of the batch, decrementing a demand copy.
//
// The same object is reused across batches so the fairness rotation
// persists, exactly like the paper's long-running scheduler.

#include <cstdint>
#include <vector>

#include "topo/conflict_graph.h"

namespace dmn::domino {

class RandScheduler {
 public:
  explicit RandScheduler(const topo::ConflictGraph& graph);

  /// One slot: a maximal set of conflict-free links among those with
  /// demand[link] > 0, in queue order. Rotates the fairness queue. The
  /// result is a member buffer, valid until the next call.
  const std::vector<topo::LinkId>& schedule_slot(
      const std::vector<std::size_t>& demand);

  /// A batch of up to `slots` slots; consumes a copy of `demand` (one unit
  /// per scheduled slot). Stops early when demand is exhausted — but always
  /// returns at least one (possibly empty) slot so the relative chain keeps
  /// ticking.
  std::vector<std::vector<topo::LinkId>> schedule_batch(
      std::vector<std::size_t> demand, std::size_t slots);

  const topo::ConflictGraph& graph() const { return graph_; }

  /// The referenced graph was rebuilt in place (dynamic topology). Re-seeds
  /// the fairness queue over the new link set — retained LinkIds would
  /// index a demand vector of the wrong size.
  void on_graph_changed();

 private:
  const topo::ConflictGraph& graph_;
  std::vector<topo::LinkId> queue_;  // fairness rotation order
  // ---- schedule_slot scratch, reused across slots ------------------------
  std::vector<topo::LinkId> chosen_;
  std::vector<std::uint64_t> blocked_;  // OR of the chosen links' rows
};

}  // namespace dmn::domino
