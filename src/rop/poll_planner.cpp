#include "rop/poll_planner.h"

#include <algorithm>

#include "rop/rop_protocol.h"

namespace dmn::rop {

const char* to_string(PollMode m) {
  switch (m) {
    case PollMode::kLegacy: return "legacy";
    case PollMode::kMultiSymbol: return "multi_symbol";
    case PollMode::kAdaptive: return "adaptive";
  }
  return "?";
}

std::uint64_t poll_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t PollPlanner::symbol_budget(std::size_t num_clients) const {
  const std::size_t per = params_.num_subchannels;
  const std::size_t need = num_clients == 0 ? 1 : (num_clients + per - 1) / per;
  return std::min(std::max<std::size_t>(need, 1), params_.symbol_cap());
}

PollRound PollPlanner::plan(const std::vector<PollClient>& clients,
                            std::uint64_t round_index) const {
  if (params_.poll_mode == PollMode::kAdaptive) {
    return plan_adaptive(clients, round_index);
  }
  return plan_static(clients);
}

PollRound PollPlanner::partition(std::vector<PollClient> roster,
                                 std::size_t symbols) const {
  PollRound round;
  round.symbols = std::max<std::size_t>(symbols, 1);
  if (roster.empty()) return round;

  // Seeded permutation: stable across runs and across planning order, only
  // a function of (assign_seed, client id).
  std::sort(roster.begin(), roster.end(),
            [this](const PollClient& a, const PollClient& b) {
              const std::uint64_t ka = poll_mix(params_.assign_seed ^
                                                static_cast<std::uint64_t>(a.client));
              const std::uint64_t kb = poll_mix(params_.assign_seed ^
                                                static_cast<std::uint64_t>(b.client));
              if (ka != kb) return ka < kb;
              return a.client < b.client;
            });

  // Round-robin across symbols keeps the groups balanced, then each group
  // reuses the single-symbol allocator for RSS-sorted subchannel packing.
  std::vector<std::vector<topo::NodeId>> ids(round.symbols);
  std::vector<std::vector<double>> rss(round.symbols);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const std::size_t s = i % round.symbols;
    ids[s].push_back(roster[i].client);
    rss[s].push_back(roster[i].rss_at_ap);
  }

  SubchannelAllocator alloc(params_);
  for (std::size_t s = 0; s < round.symbols; ++s) {
    if (ids[s].empty()) continue;
    for (const auto& a : alloc.assign(ids[s], rss[s])) {
      // Groups never exceed num_subchannels, so a.round is always 0.
      round.slots.push_back({a.client, a.subchannel, s});
    }
  }
  return round;
}

PollRound PollPlanner::plan_static(const std::vector<PollClient>& clients) const {
  return partition(clients, symbol_budget(clients.size()));
}

PollRound PollPlanner::plan_adaptive(const std::vector<PollClient>& clients,
                                     std::uint64_t round_index) const {
  (void)round_index;  // rotation is age-driven, not phase-driven
  const std::size_t per = params_.num_subchannels;
  const std::size_t interval = std::max<std::size_t>(
      params_.adaptive_max_interval, 1);

  // Must-poll: backlogged clients every round; idle clients whose age would
  // exceed the starvation bound if skipped once more.
  std::vector<PollClient> roster;
  std::vector<PollClient> idle;
  for (const PollClient& c : clients) {
    if (c.backlog > 0 || c.rounds_since_polled + 1 >= interval) {
      roster.push_back(c);
    } else {
      idle.push_back(c);
    }
  }

  // The roster fixes how many symbols this round pays for; fill the spare
  // subchannels of those symbols with the longest-unpolled idle clients so
  // the airtime already spent is never wasted.
  std::size_t symbols = std::max<std::size_t>(1, (roster.size() + per - 1) / per);
  symbols = std::min(symbols, symbol_budget(clients.size()));
  const std::size_t capacity = symbols * per;
  if (roster.size() < capacity && !idle.empty()) {
    std::sort(idle.begin(), idle.end(),
              [](const PollClient& a, const PollClient& b) {
                if (a.rounds_since_polled != b.rounds_since_polled) {
                  return a.rounds_since_polled > b.rounds_since_polled;
                }
                return a.client < b.client;
              });
    const std::size_t spare = capacity - roster.size();
    for (std::size_t i = 0; i < spare && i < idle.size(); ++i) {
      roster.push_back(idle[i]);
    }
  }
  return partition(std::move(roster), symbols);
}

SlotTable::SlotTable(const RopParams& params)
    : subchannels_(params.num_subchannels),
      owner_(params.client_capacity(), topo::kNoNode) {}

std::optional<PollSlot> SlotTable::take(topo::NodeId client,
                                        std::optional<PollSlot> want) {
  std::size_t i =
      want ? want->symbol * subchannels_ + want->subchannel : owner_.size();
  if (i >= owner_.size() || owner_[i] != topo::kNoNode) {
    i = static_cast<std::size_t>(
        std::find(owner_.begin(), owner_.end(), topo::kNoNode) -
        owner_.begin());
    if (i == owner_.size()) return std::nullopt;
  }
  owner_[i] = client;
  return PollSlot{client, i % subchannels_, i / subchannels_};
}

void SlotTable::release(topo::NodeId client) {
  std::replace(owner_.begin(), owner_.end(), client, topo::kNoNode);
}

std::size_t SlotTable::symbols() const {
  std::size_t last = 0;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] != topo::kNoNode) last = i / subchannels_;
  }
  return last + 1;
}

}  // namespace dmn::rop
