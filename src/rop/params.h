#pragma once
// ROP (Rapid OFDM Polling) symbol parameters — Table 1 of the paper.
//
// One special control OFDM symbol carries the queue length of every client
// of an AP at once: the 20 MHz channel is split into 256 subcarriers and 24
// subchannels of 6 data + 3 guard subcarriers; clients signal with 2-ASK so
// that (unestimable) phase offset does not matter.

#include <cstddef>
#include <cstdint>

#include "util/time.h"

namespace dmn::rop {

/// How an AP turns its client population into poll rounds.
enum class PollMode {
  /// Paper-faithful single-symbol ROP: at most num_subchannels clients per
  /// AP, each with a static subchannel, all polled in every round. This is
  /// the default and byte-matches the pre-multi-symbol behaviour.
  kLegacy = 0,
  /// Static multi-symbol: clients partitioned across ceil(N/num_subchannels)
  /// poll symbols with a deterministic, seeded assignment; every client is
  /// polled in every round.
  kMultiSymbol,
  /// Traffic-adaptive multi-symbol (A2P-style): backlogged clients are
  /// polled every round, idle clients rotate through the spare capacity, and
  /// a bounded max poll interval prevents starvation. Uses fewer symbols
  /// than the static plan when the population is mostly idle.
  kAdaptive,
};

const char* to_string(PollMode m);

struct RopParams {
  std::size_t fft_size = 256;           // subcarriers (vs 64 in plain WiFi)
  std::size_t data_per_subchannel = 6;  // -> queue sizes 0..63
  std::size_t guard_per_subchannel = 3; // tolerates ~38 dB RSS mismatch
  std::size_t num_subchannels = 24;     // clients pollable per symbol
  double bandwidth_hz = 20e6;

  /// Cyclic prefix: 3.2 us at 20 MHz = 64 samples; sized for a 300 m
  /// turnaround propagation delay (2 us) plus sync slack.
  std::size_t cp_samples = 64;

  /// Poll planning mode. kLegacy keeps the single-symbol code path (and its
  /// hard num_subchannels clients/AP cap) bit-for-bit.
  PollMode poll_mode = PollMode::kLegacy;

  /// Airtime budget: hard cap on poll symbols per round. Bounds both the
  /// admissible population (max_poll_symbols * num_subchannels clients/AP in
  /// the non-legacy modes) and the lattice stretch a single ROP boundary may
  /// cause. 11 symbols -> 264 clients/AP at the default 24 subchannels.
  std::size_t max_poll_symbols = 11;

  /// kAdaptive: an idle client is re-polled at least every this many rounds
  /// (the starvation bound). Backlogged clients are polled every round.
  std::size_t adaptive_max_interval = 4;

  /// Seed for the deterministic symbol-partition permutation (non-legacy).
  std::uint64_t assign_seed = 1;

  std::size_t max_queue_report() const {
    return (std::size_t{1} << data_per_subchannel) - 1;  // 63
  }
  std::size_t block_size() const {
    return data_per_subchannel + guard_per_subchannel;
  }
  std::size_t symbol_samples() const { return fft_size + cp_samples; }

  /// Clients one AP can serve under the active poll mode.
  std::size_t client_capacity() const {
    return poll_mode == PollMode::kLegacy
               ? num_subchannels
               : num_subchannels * max_poll_symbols;
  }

  /// 16 us symbol + 3.2 us CP is included in symbol_samples already;
  /// total symbol duration = (256 + 64) / 20 MHz = 16 us.
  TimeNs symbol_duration() const {
    return static_cast<TimeNs>(static_cast<double>(symbol_samples()) /
                               bandwidth_hz * 1e9);
  }
};

/// SNR (dB) below which an ROP symbol cannot be decoded — matches the
/// paper's USRP measurement ("as long as the SNR is higher than 4 dB") and
/// the 6 Mbps WiFi decode threshold it cites.
inline constexpr double kRopMinSnrDb = 4.0;

/// RSS mismatch (dB) tolerated between adjacent subchannels with the default
/// 3 guard subcarriers (paper §3.1; our Fig-6 reproduction re-derives it).
inline constexpr double kRopRssToleranceDb = 38.0;

}  // namespace dmn::rop
