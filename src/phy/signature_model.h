#pragma once
// MAC-level signature detection model.
//
// The chip-level Gold correlator study (src/gold, reproduced in
// bench_fig09_signature) yields the curve the paper measures in Figure 9:
// detection is essentially perfect while the total number of signatures
// combined on the air is <= 4 and falls off beyond; false positives stay
// below 1 %. The trace-driven MAC simulation consumes that fitted curve
// here — exactly how the paper feeds its USRP measurements into ns-3.
//
// Correlation adds ~10*log10(127) = 21 dB of processing gain, so signatures
// remain detectable far below the packet-decode SINR; the model rolls off
// linearly between `full_sinr_db` and `zero_sinr_db`.

#include "util/rng.h"

namespace dmn::phy {

struct SignatureDetectionModel {
  /// Detection probability by total combined signature count, at good SINR.
  /// Index 0 unused; counts beyond 7 extrapolate downward.
  double p_by_count[8] = {0.0, 0.999, 0.999, 0.998, 0.995,
                          0.93, 0.82,  0.68};
  double beyond_decay = 0.12;     // per extra signature past 7
  double full_sinr_db = -10.0;    // full detection probability above this
  double zero_sinr_db = -21.0;    // no detection below this (processing gain)
  double false_positive_rate = 0.005;  // < 1 % (paper §3.2)

  /// Probability that one target signature inside a burst of
  /// `combined_total` signatures is detected at `sinr_db`.
  double detect_probability(int combined_total, double sinr_db) const;

  /// Bernoulli sample of detect_probability.
  bool sample_detect(int combined_total, double sinr_db, Rng& rng) const;

  /// Bernoulli sample of a false positive for one correlator in one slot.
  bool sample_false_positive(Rng& rng) const;
};

}  // namespace dmn::phy
