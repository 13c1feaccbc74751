#pragma once
// Multi-symbol poll-round planning (A2P-style, PAPERS.md).
//
// The paper's ROP polls every client of an AP in one OFDM symbol, which caps
// a BSS at num_subchannels clients. The planner here lifts that ceiling by
// partitioning larger populations across ceil(N / num_subchannels) poll
// symbols transmitted back-to-back in the same polling slot:
//
//   * kLegacy / kMultiSymbol (static): a deterministic, seeded permutation
//     spreads clients round-robin over the symbols once, at setup; the
//     result seeds each AP's SlotTable, and every client answers every
//     poll on its slot. kLegacy is the one-symbol case.
//   * kAdaptive: clients with a non-zero reported backlog are polled every
//     round; idle clients rotate through the leftover capacity, and a
//     bounded max poll interval (adaptive_max_interval rounds) guarantees no
//     client starves. Rounds shrink to the symbols the roster actually
//     needs, so a mostly-idle population pays less poll airtime.
//
// Within each symbol the subchannel packing reuses SubchannelAllocator (RSS
// sort + tolerance-gap skip), so the per-symbol interference behaviour is
// identical to the single-symbol ROP. The planner is pure (no clocks, no
// RNG beyond the seeded permutation) and deterministic: the same inputs
// always produce the same round, which is what makes multi-threaded runs
// byte-stable and the property tests in tests/property_test.cpp possible.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "rop/params.h"
#include "topo/node.h"

namespace dmn::rop {

/// Planner-side view of one client of the polled AP.
struct PollClient {
  topo::NodeId client = topo::kNoNode;
  double rss_at_ap = 0.0;  // dBm; drives within-symbol subchannel packing
  /// Last reported uplink queue length (planner history; adaptive only).
  std::size_t backlog = 0;
  /// Rounds since this client last appeared in a roster (adaptive only).
  std::size_t rounds_since_polled = 0;
};

/// One polled client in a planned round.
struct PollSlot {
  topo::NodeId client = topo::kNoNode;
  std::size_t subchannel = 0;
  std::size_t symbol = 0;  // 0-based OFDM symbol index within the round
};

/// A planned poll round: `symbols` back-to-back ROP symbols, each polling a
/// disjoint set of subchannels.
struct PollRound {
  std::size_t symbols = 1;
  std::vector<PollSlot> slots;
};

class PollPlanner {
 public:
  explicit PollPlanner(const RopParams& params) : params_(params) {}

  /// Symbols a static plan needs for `num_clients`: ceil(N / subchannels),
  /// at least 1, capped at params.symbol_cap().
  std::size_t symbol_budget(std::size_t num_clients) const;

  /// Dispatch on params.poll_mode: plan_adaptive for kAdaptive, else
  /// plan_static.
  PollRound plan(const std::vector<PollClient>& clients,
                 std::uint64_t round_index) const;

  /// Every client, seeded round-robin partition across symbol_budget(N)
  /// symbols. Independent of round_index: assignments are static.
  PollRound plan_static(const std::vector<PollClient>& clients) const;

  /// Backlogged + aged-out clients, plus oldest-first idle rotation into the
  /// spare capacity of the symbols the roster already pays for.
  PollRound plan_adaptive(const std::vector<PollClient>& clients,
                          std::uint64_t round_index) const;

 private:
  /// Partition `roster` across `symbols` symbols (seeded order, round-robin)
  /// and pack subchannels per symbol via SubchannelAllocator.
  PollRound partition(std::vector<PollClient> roster,
                      std::size_t symbols) const;

  RopParams params_;
};

/// One AP's static poll slots: each (symbol, subchannel) pair holds at most
/// one client. Seeded from plan_static; a join or roam-in takes the first
/// free slot (symbol-major), a leave or roam-out frees it.
class SlotTable {
 public:
  explicit SlotTable(const RopParams& params);

  /// Gives `client` the slot `want` when that slot is free, else the first
  /// free slot. nullopt when every slot is taken.
  std::optional<PollSlot> take(topo::NodeId client,
                               std::optional<PollSlot> want = std::nullopt);
  /// Frees the client's slot; no-op if it holds none.
  void release(topo::NodeId client);
  /// Symbols a poll must announce: 1 + the highest occupied symbol, at
  /// least 1.
  std::size_t symbols() const;

 private:
  std::size_t subchannels_;
  std::vector<topo::NodeId> owner_;  // [symbol * subchannels_ + subchannel]
};

/// SplitMix64 — the seeded permutation key. Exposed for tests.
std::uint64_t poll_mix(std::uint64_t x);

}  // namespace dmn::rop
