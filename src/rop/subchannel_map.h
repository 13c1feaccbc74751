#pragma once
// Subcarrier layout of the ROP control symbol — Figure 3 of the paper.
//
// 256 FFT bins: DC unused; 24 subchannels of (6 data + 3 guard) bins packed
// outward from DC, 12 on the positive side (subchannels 0..11) and 12
// mirrored on the negative side (subchannels 12..23); the remaining 39 edge
// bins form the inter-channel guard band, as in 802.11 (11/64 there).

#include <cstddef>
#include <vector>

#include "rop/params.h"

namespace dmn::rop {

class SubchannelMap {
 public:
  /// `symbol_index` identifies which poll symbol of a multi-symbol round
  /// this map lays out (every symbol uses the same layout; the index only
  /// appears in diagnostics). The single-symbol ROP is symbol 0.
  explicit SubchannelMap(const RopParams& params, std::size_t symbol_index = 0);

  /// FFT bin indices (0..fft_size-1, i.e. negative frequencies wrapped to
  /// the upper half) carrying data bit b (b = 0 is the LSB of the queue
  /// length) for subchannel `sc`.
  std::size_t data_bin(std::size_t sc, std::size_t bit) const;

  /// All data bins of a subchannel, LSB first.
  const std::vector<std::size_t>& data_bins(std::size_t sc) const;

  /// Guard bins of a subchannel (between it and its outward neighbour).
  const std::vector<std::size_t>& guard_bins(std::size_t sc) const;

  std::size_t num_subchannels() const { return data_.size(); }

  /// Minimum bin distance between the data bins of two subchannels.
  std::size_t bin_distance(std::size_t a, std::size_t b) const;

 private:
  RopParams params_;
  std::vector<std::vector<std::size_t>> data_;
  std::vector<std::vector<std::size_t>> guard_;
};

}  // namespace dmn::rop
