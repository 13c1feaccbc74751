#pragma once
// Gold code sets.
//
// A degree-m preferred pair (u, v) yields 2^m + 1 Gold sequences:
// {u, v, u ^ T^k v : k = 0..2^m-2}. For m = 7 that is the paper's set of
// 129 length-127 codes: two are reserved (START signature S' and the ROP
// signature), leaving 127 node signatures per collision domain.
//
// Cross-correlation between any two distinct codes is three-valued
// {-1, -t(m), t(m)-2} with t(m) = 2^((m+1)/2) + 1 for odd m (t(7) = 17),
// giving the detection margin relative to the autocorrelation peak 2^m - 1.

#include <cstdint>
#include <span>
#include <vector>

namespace dmn::gold {

using Chips = std::vector<std::int8_t>;  // +1 / -1 chips

class GoldCodeSet {
 public:
  /// Builds the full set for `degree` (must have a preferred pair).
  explicit GoldCodeSet(int degree);

  int degree() const { return degree_; }
  std::size_t length() const { return length_; }    // chips per code
  std::size_t size() const { return codes_.size(); }  // number of codes

  /// Code index `i` in [0, size()).
  std::span<const std::int8_t> code(std::size_t i) const;

  /// Theoretical bound t(m) on |cross-correlation| for odd degree.
  int t_bound() const;

  /// Airtime of one signature at `bandwidth_hz` chips/sec with BPSK
  /// (1 chip per sample): length / bandwidth, in nanoseconds.
  /// For degree 7 at 20 MHz this is 6.35 us, matching §3.2.
  std::int64_t duration_ns(double bandwidth_hz) const;

  /// Periodic cross-correlation of codes i and j at `shift` (raw sum).
  int xcorr(std::size_t i, std::size_t j, std::size_t shift) const;

  /// Maximum |periodic cross-correlation| of codes i and j over all shifts.
  int max_abs_xcorr(std::size_t i, std::size_t j) const;

 private:
  int degree_;
  std::size_t length_;
  std::vector<Chips> codes_;
};

}  // namespace dmn::gold
