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

/// How an AP turns its client population into poll rounds. The two static
/// modes give every client a fixed (symbol, subchannel) slot and poll all of
/// them in every round; they differ only in their symbol cap.
enum class PollMode {
  /// Paper-faithful single-symbol ROP: the static mode capped at one poll
  /// symbol, so at most num_subchannels clients per AP. The default.
  kLegacy = 0,
  /// Static multi-symbol: clients partitioned across ceil(N/num_subchannels)
  /// poll symbols (up to max_poll_symbols) with a deterministic, seeded
  /// assignment.
  kMultiSymbol,
  /// Traffic-adaptive multi-symbol (A2P-style): backlogged clients are
  /// polled every round, idle clients rotate through the spare capacity, and
  /// a bounded max poll interval prevents starvation. Uses fewer symbols
  /// than the static plan when the population is mostly idle.
  kAdaptive,
};

const char* to_string(PollMode m);

struct RopParams {
  static constexpr std::size_t fft_size = 256;  // subcarriers (vs 64 in WiFi)
  std::size_t data_per_subchannel = 6;  // -> queue sizes 0..63
  std::size_t guard_per_subchannel = 3; // tolerates ~38 dB RSS mismatch
  static constexpr std::size_t num_subchannels = 24;  // clients per symbol
  static constexpr double bandwidth_hz = 20e6;

  /// Cyclic prefix: 3.2 us at 20 MHz = 64 samples; sized for a 300 m
  /// turnaround propagation delay (2 us) plus sync slack.
  static constexpr std::size_t cp_samples = 64;

  /// Poll planning mode.
  PollMode poll_mode = PollMode::kLegacy;

  /// Airtime budget: hard cap on poll symbols per round outside kLegacy.
  /// Bounds both the admissible population (symbol_cap() * num_subchannels
  /// clients/AP) and the lattice stretch a single ROP boundary may cause.
  /// 11 symbols -> 264 clients/AP at the default 24 subchannels.
  std::size_t max_poll_symbols = 11;

  /// kAdaptive: an idle client is re-polled at least every this many rounds
  /// (the starvation bound). Backlogged clients are polled every round.
  static constexpr std::size_t adaptive_max_interval = 4;

  /// Seed for the deterministic symbol-partition permutation.
  std::uint64_t assign_seed = 1;

  std::size_t max_queue_report() const {
    return (std::size_t{1} << data_per_subchannel) - 1;  // 63
  }
  std::size_t block_size() const {
    return data_per_subchannel + guard_per_subchannel;
  }
  std::size_t symbol_samples() const { return fft_size + cp_samples; }

  /// Poll symbols one round may span under the active poll mode: kLegacy
  /// is the one-symbol case of the static slot table.
  std::size_t symbol_cap() const {
    return poll_mode == PollMode::kLegacy ? 1 : max_poll_symbols;
  }

  /// Clients one AP can serve: one per (symbol, subchannel) slot.
  std::size_t client_capacity() const {
    return num_subchannels * symbol_cap();
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
