#pragma once
// Chip-level trigger bursts for the signature study.
//
// Reproduces the paper's USRP signature study (Figure 9): each triggering
// node broadcasts the *sum* of up to four Gold-code signatures as one BPSK
// burst; a prospective next transmitter runs a correlator for its own
// signature (CorrelatorBank, correlator_bank.h) and fires when it detects
// it. Detection must survive other triggering nodes transmitting
// concurrently with unknown phase and a few chips of timing skew.

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "gold/correlator_bank.h"
#include "util/rng.h"

namespace dmn::gold {

/// One sender in a trigger-burst experiment.
struct BurstSender {
  std::vector<std::size_t> codes;  // signatures this sender combines
  double amplitude = 1.0;          // linear amplitude at the receiver
  std::size_t chip_offset = 0;     // timing skew in chips
  double phase_rad = 0.0;          // carrier phase at the receiver
};

/// Synthesizes the received burst: sum over senders of (combined signatures
/// * amplitude * e^{j phase}, delayed by chip_offset) + AWGN of power
/// `noise_power`. Output length = code length + pad. Each sender's combined
/// signature is the bank's cached template (the protocol's combined
/// trigger, §3.2).
std::vector<dsp::Cplx> synthesize_burst(const CorrelatorBank& bank,
                                        std::span<const BurstSender> senders,
                                        double noise_power, std::size_t pad,
                                        Rng& rng);

}  // namespace dmn::gold
