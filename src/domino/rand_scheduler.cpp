#include "domino/rand_scheduler.h"

#include <algorithm>

namespace dmn::domino {

RandScheduler::RandScheduler(const topo::ConflictGraph& graph)
    : graph_(graph) {
  queue_.reserve(graph.num_links());
  for (std::size_t i = 0; i < graph.num_links(); ++i) {
    queue_.push_back(static_cast<topo::LinkId>(i));
  }
}

void RandScheduler::on_graph_changed() {
  queue_.clear();
  queue_.reserve(graph_.num_links());
  for (std::size_t i = 0; i < graph_.num_links(); ++i) {
    queue_.push_back(static_cast<topo::LinkId>(i));
  }
}

const std::vector<topo::LinkId>& RandScheduler::schedule_slot(
    const std::vector<std::size_t>& demand) {
  chosen_.clear();
  blocked_.assign(graph_.words_per_row(), 0);
  for (topo::LinkId cand : queue_) {
    if (demand[static_cast<std::size_t>(cand)] == 0) continue;
    if (topo::row_bit(blocked_, static_cast<std::size_t>(cand))) continue;
    chosen_.push_back(cand);
    topo::or_row(blocked_, graph_.conflict_row(cand));
  }
  if (!chosen_.empty()) {
    // Move the served links to the tail (fairness, §4.2.1), in place: the
    // chosen links are a subsequence of the queue, so one pass closes the
    // gaps they leave and they follow in the same order.
    std::size_t kept = 0;
    std::size_t next_chosen = 0;
    for (const topo::LinkId l : queue_) {
      if (next_chosen < chosen_.size() && l == chosen_[next_chosen]) {
        ++next_chosen;
      } else {
        queue_[kept++] = l;
      }
    }
    std::copy(chosen_.begin(), chosen_.end(), queue_.begin() + kept);
  }
  return chosen_;
}

std::vector<std::vector<topo::LinkId>> RandScheduler::schedule_batch(
    std::vector<std::size_t> demand, std::size_t slots) {
  std::vector<std::vector<topo::LinkId>> batch;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::vector<topo::LinkId>& slot = schedule_slot(demand);
    for (topo::LinkId l : slot) {
      auto& d = demand[static_cast<std::size_t>(l)];
      if (d > 0) --d;
    }
    const bool empty = slot.empty();
    batch.push_back(slot);
    if (empty && s > 0) break;  // demand exhausted
  }
  if (batch.empty()) batch.emplace_back();
  return batch;
}

}  // namespace dmn::domino
