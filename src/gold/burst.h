#pragma once
// Chip-level trigger bursts for the signature study.
//
// Reproduces the paper's USRP signature study (Figure 9): each triggering
// node broadcasts the *sum* of up to four Gold-code signatures as one BPSK
// burst; a prospective next transmitter runs a sliding correlator for its
// own signature (detect) and fires when it detects it. Detection must
// survive other triggering nodes transmitting concurrently with unknown
// phase and a few chips of timing skew.
//
// Simulated DOMINO MACs never run this correlator: they draw trigger
// detection from phy::SignatureDetectionModel, the Figure 9 curve this
// study produces. Only the Figure 9 and signature-length benches (and the
// gold tests) correlate chips.

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "gold/gold_code.h"
#include "util/rng.h"

namespace dmn::gold {

/// Chips of timing skew the correlator searches: a burst is one code
/// length plus kMaxLag chips, and detect tries lags 0..kMaxLag.
inline constexpr std::size_t kMaxLag = 16;

/// CFAR threshold: the correlation peak must exceed this multiple of the
/// median off-peak magnitude.
inline constexpr double kCfarFactor = 4.0;

/// One sender in a trigger-burst experiment.
struct BurstSender {
  std::vector<std::size_t> codes;  // signatures this sender combines
  double amplitude = 1.0;          // linear amplitude at the receiver
  std::size_t chip_offset = 0;     // timing skew in chips
  double phase_rad = 0.0;          // carrier phase at the receiver
};

/// Synthesizes the received burst: sum over senders of (combined signatures
/// * amplitude * e^{j phase}, delayed by chip_offset) + AWGN of power
/// `noise_power`. A sender's combined signature is the chip-wise sum of its
/// codes (the protocol's combined trigger, §3.2). Output length = code
/// length + kMaxLag.
std::vector<dsp::Cplx> synthesize_burst(const GoldCodeSet& set,
                                        std::span<const BurstSender> senders,
                                        double noise_power, Rng& rng);

struct DetectionResult {
  bool detected = false;
  double peak_metric = 0.0;   // peak |correlation| normalized by code length
  double floor_metric = 0.0;  // CFAR noise-floor estimate
  std::size_t lag = 0;        // lag of the peak
};

/// Looks for code `code` in `rx`, which must hold exactly code length +
/// kMaxLag samples (std::invalid_argument otherwise). Two-part decision:
/// CFAR against the median off-peak magnitude plus an energy reference
/// against the received RMS.
DetectionResult detect(const GoldCodeSet& set, std::span<const dsp::Cplx> rx,
                       std::size_t code);

}  // namespace dmn::gold
