#include "rop/subchannel_map.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace dmn::rop {

SubchannelMap::SubchannelMap(const RopParams& params, std::size_t symbol_index)
    : params_(params) {
  const std::size_t n = params.num_subchannels;
  const std::size_t block = params.block_size();
  const std::size_t half = (n + 1) / 2;

  // Sanity: everything must fit one side of the spectrum, leaving at least
  // one edge guard bin. Every symbol of a multi-symbol round uses this same
  // layout, so the per-symbol capacity is num_subchannels regardless of how
  // many symbols the round spans.
  if (half * block + 1 > params.fft_size / 2) {
    throw std::invalid_argument(
        "SubchannelMap: poll symbol " + std::to_string(symbol_index) +
        " layout exceeds half spectrum: " + std::to_string(half) +
        " subchannels per side x " + std::to_string(block) +
        " bins + 1 edge guard > " + std::to_string(params.fft_size / 2) +
        " bins; a poll symbol carries at most " + std::to_string(n) +
        " subchannels");
  }

  data_.resize(n);
  guard_.resize(n);
  for (std::size_t sc = 0; sc < n; ++sc) {
    const bool positive = sc < half;
    const std::size_t slot = positive ? sc : sc - half;
    // Block of `block` bins starting at distance 1 + slot*block from DC.
    const std::size_t start = 1 + slot * block;
    for (std::size_t k = 0; k < block; ++k) {
      const std::size_t dist = start + k;
      // Negative frequencies wrap: bin -d == fft_size - d.
      const std::size_t bin = positive ? dist : params.fft_size - dist;
      if (k < params.data_per_subchannel) {
        data_[sc].push_back(bin);
      } else {
        guard_[sc].push_back(bin);
      }
    }
  }
}

std::size_t SubchannelMap::data_bin(std::size_t sc, std::size_t bit) const {
  return data_.at(sc).at(bit);
}

const std::vector<std::size_t>& SubchannelMap::data_bins(
    std::size_t sc) const {
  return data_.at(sc);
}

const std::vector<std::size_t>& SubchannelMap::guard_bins(
    std::size_t sc) const {
  return guard_.at(sc);
}

std::size_t SubchannelMap::bin_distance(std::size_t a, std::size_t b) const {
  // Distance on the circular FFT index ring.
  const std::size_t n = params_.fft_size;
  std::size_t best = n;
  for (std::size_t x : data_.at(a)) {
    for (std::size_t y : data_.at(b)) {
      const std::size_t d = x > y ? x - y : y - x;
      best = std::min(best, std::min(d, n - d));
    }
  }
  return best;
}

}  // namespace dmn::rop
