#pragma once
// Controller-side assignment of Gold-code signatures to nodes (§3.2): every
// node gets a unique code when it joins; two codes are reserved for the
// START signature S' and the ROP signature. One collision domain supports
// `length` nodes with a length-`length` set; the plan picks the shortest
// supported set that fits the population (the paper's §5 trade-off:
// 127 -> 511 -> 1023; degree 8 / length 255 has no Gold preferred pairs,
// see bench_signature_length). Dense deployments (>127 nodes, e.g. the
// multi-symbol polling benches at 200 clients/AP) therefore pay longer
// per-trigger signatures; the MAC-level detection model is fit for the
// length-127 set and is conservative for the longer, more separable sets.

#include <cstddef>
#include <stdexcept>

#include "gold/gold_code.h"
#include "topo/node.h"

namespace dmn::domino {

class SignaturePlan {
 public:
  explicit SignaturePlan(std::size_t num_nodes) : num_nodes_(num_nodes) {
    // Smallest supported code set with num_nodes node codes + 2 reserved.
    if (num_nodes <= gold::kMaxNodesPerDomain) {
      domain_size_ = gold::kMaxNodesPerDomain;  // length-127 set (degree 7)
    } else if (num_nodes <= 511) {
      domain_size_ = 511;  // degree 9
    } else if (num_nodes <= 1023) {
      domain_size_ = 1023;  // degree 10
    } else {
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

  topo::NodeId node_of(std::size_t code) const {
    if (code >= num_nodes_) return topo::kNoNode;
    return static_cast<topo::NodeId>(code);
  }

  /// Reserved indices follow the node codes: the START signature S' is the
  /// first code past the domain, the ROP signature the one after (127/128
  /// in the paper's length-127 set).
  std::size_t start_code() const { return domain_size_; }
  std::size_t rop_code() const { return domain_size_ + 1; }

  std::size_t num_nodes() const { return num_nodes_; }

 private:
  std::size_t num_nodes_;
  std::size_t domain_size_;
};

}  // namespace dmn::domino
