#include "gold/burst.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/channel.h"

namespace dmn::gold {

std::vector<dsp::Cplx> synthesize_burst(const GoldCodeSet& set,
                                        std::span<const BurstSender> senders,
                                        double noise_power, Rng& rng) {
  std::vector<dsp::Cplx> rx(set.length() + kMaxLag, dsp::Cplx(0.0, 0.0));
  for (const BurstSender& snd : senders) {
    const dsp::Cplx rot = snd.amplitude * dsp::Cplx(std::cos(snd.phase_rad),
                                                    std::sin(snd.phase_rad));
    for (std::size_t n = 0; n < set.length(); ++n) {
      const std::size_t at = n + snd.chip_offset;
      if (at >= rx.size()) break;
      int chip_sum = 0;
      for (const std::size_t code : snd.codes) chip_sum += set.code(code)[n];
      rx[at] += static_cast<double>(chip_sum) * rot;
    }
  }
  dsp::add_awgn(rx, noise_power, rng);
  return rx;
}

DetectionResult detect(const GoldCodeSet& set, std::span<const dsp::Cplx> rx,
                       std::size_t code) {
  const std::size_t len = set.length();
  if (rx.size() != len + kMaxLag) {
    throw std::invalid_argument(
        "gold::detect: burst must hold code length + kMaxLag samples");
  }
  const auto chips = set.code(code);

  // Sliding correlation, each lag summed in chip order.
  std::array<double, kMaxLag + 1> mags;
  for (std::size_t lag = 0; lag <= kMaxLag; ++lag) {
    double re = 0.0;
    double im = 0.0;
    for (std::size_t n = 0; n < len; ++n) {
      const double c = chips[n];
      re += c * rx[lag + n].real();
      im += c * rx[lag + n].imag();
    }
    // sqrt(re^2 + im^2) rather than std::abs: the libm hypot behind it
    // guards against overflow that O(len) sums of O(1) samples cannot reach.
    mags[lag] = std::sqrt(re * re + im * im) / static_cast<double>(len);
  }
  DetectionResult result;
  const auto peak_it = std::max_element(mags.begin(), mags.end());
  result.peak_metric = *peak_it;
  result.lag = static_cast<std::size_t>(peak_it - mags.begin());

  // CFAR floor: median of the off-peak magnitudes.
  std::array<double, kMaxLag> rest;
  std::copy(mags.begin(), peak_it, rest.begin());
  std::copy(peak_it + 1, mags.end(), rest.begin() + result.lag);
  std::nth_element(rest.begin(), rest.begin() + rest.size() / 2, rest.end());
  result.floor_metric = rest[rest.size() / 2];

  // Two-part decision, mirroring a hardware correlator front-end:
  //  * CFAR: the peak must stand clear of the off-peak correlation floor;
  //  * energy reference: a genuine signature contributes ~unit correlation
  //    per transmitted code, while Gold cross-correlation peaks stay below
  //    t(m)/N ~ 0.13 of an amplitude unit. Referencing the threshold to the
  //    per-chip RMS of rx rejects those — and makes detection degrade
  //    gracefully as more signatures share the burst (the Figure 9
  //    rolloff).
  const double rms = std::sqrt(dsp::mean_power(rx.subspan(0, len)));
  result.detected =
      result.peak_metric >
          kCfarFactor * std::max(result.floor_metric, 1e-12) &&
      result.peak_metric > 0.25 * rms;
  return result;
}

}  // namespace dmn::gold
