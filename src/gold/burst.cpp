#include "gold/burst.h"

#include <cmath>

#include "dsp/channel.h"

namespace dmn::gold {

std::vector<dsp::Cplx> synthesize_burst(const CorrelatorBank& bank,
                                        std::span<const BurstSender> senders,
                                        double noise_power, std::size_t pad,
                                        Rng& rng) {
  std::vector<dsp::Cplx> rx(bank.set().length() + pad, dsp::Cplx(0.0, 0.0));
  for (const BurstSender& snd : senders) {
    const auto burst = bank.combined_template(snd.codes);
    const dsp::Cplx rot = snd.amplitude * dsp::Cplx(std::cos(snd.phase_rad),
                                                    std::sin(snd.phase_rad));
    for (std::size_t n = 0; n < burst.size(); ++n) {
      const std::size_t at = n + snd.chip_offset;
      if (at < rx.size()) rx[at] += burst[n] * rot;
    }
  }
  dsp::add_awgn(rx, noise_power, rng);
  return rx;
}

}  // namespace dmn::gold
