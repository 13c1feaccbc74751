#pragma once
// Controller-side assignment of Gold-code signatures to nodes (§3.2): every
// node gets a unique code, its own id. The paper's §5 trade-off picks the
// shortest Gold set that fits the population (127 -> 511 -> 1023; degree 8
// / length 255 has no preferred pairs, see bench_signature_length), so
// dense deployments would pay longer per-trigger signatures. The MAC does
// not model that: DominoTiming::sig_air is one length-127 signature
// (6.35 us) for any population, and the detection model is fit for the
// length-127 set. bench_dense (200+ clients per AP) is therefore a
// deviation — its slots are shorter than a longer code set would make
// them. Past 1023 nodes no Gold set remains, and the plan refuses.

#include <cstddef>
#include <stdexcept>

#include "topo/node.h"

namespace dmn::domino {

class SignaturePlan {
 public:
  explicit SignaturePlan(std::size_t num_nodes) : num_nodes_(num_nodes) {
    if (num_nodes > 1023) {
      throw std::invalid_argument(
          "SignaturePlan: more than 1023 nodes in one collision domain "
          "(no longer Gold code set available, see "
          "bench_signature_length)");
    }
  }

  std::size_t code_of(topo::NodeId node) const {
    if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
      throw std::out_of_range("SignaturePlan::code_of");
    }
    return static_cast<std::size_t>(node);
  }

 private:
  std::size_t num_nodes_;
};

}  // namespace dmn::domino
