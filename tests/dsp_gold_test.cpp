// Unit tests: FFT/channel DSP and Gold-code signatures (the §3.2 substrate).

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "dsp/channel.h"
#include "dsp/fft.h"
#include "gold/burst.h"
#include "gold/gold_code.h"
#include "gold/lfsr.h"
#include "util/rng.h"

namespace dmn {
namespace {

using dsp::Cplx;

TEST(Fft, ImpulseIsFlat) {
  std::vector<Cplx> x(64, Cplx(0, 0));
  x[0] = Cplx(1, 0);
  dsp::fft(x);
  for (const Cplx& c : x) {
    EXPECT_NEAR(c.real(), 1.0, 1e-9);
    EXPECT_NEAR(c.imag(), 0.0, 1e-9);
  }
}

TEST(Fft, SingleToneLandsOnItsBin) {
  const std::size_t n = 256;
  std::vector<Cplx> x(n);
  const std::size_t k = 37;
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * M_PI * static_cast<double>(k * i) / n;
    x[i] = Cplx(std::cos(ph), std::sin(ph));
  }
  dsp::fft(x);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == k) {
      EXPECT_NEAR(std::abs(x[i]), static_cast<double>(n), 1e-6);
    } else {
      EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-6);
    }
  }
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(11);
  std::vector<Cplx> x(128);
  for (Cplx& c : x) c = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const auto y = dsp::ifft_copy(dsp::fft_copy(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(12);
  std::vector<Cplx> x(64);
  for (Cplx& c : x) c = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const double time_power = dsp::mean_power(x) * 64;
  auto f = dsp::fft_copy(x);
  double freq_energy = 0.0;
  for (const Cplx& c : f) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / 64.0, time_power, 1e-6);
}

TEST(Channel, AwgnPowerMatchesRequest) {
  Rng rng(13);
  std::vector<Cplx> x(20000, Cplx(0, 0));
  dsp::add_awgn(x, 0.25, rng);
  EXPECT_NEAR(dsp::mean_power(x), 0.25, 0.01);
}

TEST(Channel, FrequencyOffsetPreservesPower) {
  Rng rng(14);
  std::vector<Cplx> x(256);
  for (Cplx& c : x) c = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const double before = dsp::mean_power(x);
  dsp::apply_frequency_offset(x, 0.3, 256);
  EXPECT_NEAR(dsp::mean_power(x), before, 1e-9);
}

TEST(Channel, ClipBoundsSamples) {
  std::vector<Cplx> x = {Cplx(5, -7), Cplx(-0.1, 0.2)};
  dsp::clip(x, 1.0);
  EXPECT_DOUBLE_EQ(x[0].real(), 1.0);
  EXPECT_DOUBLE_EQ(x[0].imag(), -1.0);
  EXPECT_DOUBLE_EQ(x[1].real(), -0.1);
  EXPECT_DOUBLE_EQ(x[1].imag(), 0.2);
}

TEST(Channel, ScaleToPower) {
  std::vector<Cplx> x = {Cplx(3, 4), Cplx(-3, 4)};
  dsp::scale_to_power(x, 2.0);
  EXPECT_NEAR(dsp::mean_power(x), 2.0, 1e-12);
}

// ---- m-sequences / Gold codes ------------------------------------------

TEST(Lfsr, MSequenceLengthAndBalance) {
  const auto pair = gold::preferred_pair(7);
  const auto seq = gold::m_sequence(7, pair.taps_u);
  EXPECT_EQ(seq.size(), 127u);
  int ones = 0;
  for (int b : seq) ones += b;
  EXPECT_EQ(ones, 64);  // m-sequence balance property: 2^(m-1) ones
}

TEST(Lfsr, NonPrimitivePolynomialRejected) {
  // x^4 + x^2 + 1 is not primitive.
  EXPECT_THROW(gold::m_sequence(4, {4, 2}), std::invalid_argument);
}

TEST(Lfsr, PreferredPairAvailability) {
  EXPECT_TRUE(gold::has_preferred_pair(5));
  EXPECT_TRUE(gold::has_preferred_pair(7));
  EXPECT_TRUE(gold::has_preferred_pair(9));
  EXPECT_FALSE(gold::has_preferred_pair(8));  // 255: no preferred pairs
  EXPECT_THROW(gold::preferred_pair(8), std::invalid_argument);
}

class GoldSetTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldSetTest, SetSizeAndLength) {
  gold::GoldCodeSet set(GetParam());
  const std::size_t n = (std::size_t{1} << GetParam()) - 1;
  EXPECT_EQ(set.length(), n);
  EXPECT_EQ(set.size(), n + 2);  // the paper's 129 for degree 7
}

TEST_P(GoldSetTest, AutocorrelationPeak) {
  gold::GoldCodeSet set(GetParam());
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, set.size() / 2}) {
    EXPECT_EQ(set.xcorr(i, i, 0), static_cast<int>(set.length()));
  }
}

TEST_P(GoldSetTest, CrossCorrelationBounded) {
  gold::GoldCodeSet set(GetParam());
  const int bound = set.t_bound();
  // Spot-check a handful of pairs across all shifts (full check is O(n^3)).
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_LE(set.max_abs_xcorr(i, j), bound)
          << "pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, GoldSetTest, ::testing::Values(5, 6, 7));

TEST(GoldSet, PaperParameters) {
  gold::GoldCodeSet set(7);
  EXPECT_EQ(set.size(), 129u);      // "a set of 129 Gold codes"
  EXPECT_EQ(set.length(), 127u);    // "with length 127"
  EXPECT_EQ(set.t_bound(), 17);     // t(7) = 2^4 + 1
  // 6.35 us at 20 MHz BPSK (§3.2).
  EXPECT_NEAR(static_cast<double>(set.duration_ns(20e6)) / 1000.0, 6.35,
              0.01);
}

TEST(Correlator, DetectsCleanSignature) {
  gold::GoldCodeSet set(7);
  const gold::CorrelatorBank bank(set);
  Rng rng(20);
  std::vector<gold::BurstSender> senders = {
      gold::BurstSender{{5}, 1.0, 0, 0.0}};
  const auto rx = gold::synthesize_burst(bank, senders, 0.01, 16, rng);
  EXPECT_TRUE(bank.detect(rx, 5).detected);
  // A code that was not transmitted must not be detected.
  EXPECT_FALSE(bank.detect(rx, 77).detected);
}

TEST(Correlator, DetectsUnderChipOffsetAndPhase) {
  gold::GoldCodeSet set(7);
  const gold::CorrelatorBank bank(set);
  Rng rng(21);
  std::vector<gold::BurstSender> senders = {
      gold::BurstSender{{9}, 1.0, 3, 1.1}};
  const auto rx = gold::synthesize_burst(bank, senders, 0.01, 16, rng);
  const auto r = bank.detect(rx, 9);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.lag, 3u);
}

TEST(Correlator, CombinedSignaturesAllDetected) {
  gold::GoldCodeSet set(7);
  const gold::CorrelatorBank bank(set);
  Rng rng(22);
  std::vector<gold::BurstSender> senders = {
      gold::BurstSender{{1, 2, 3, 4}, 1.0, 0, 0.0}};
  const auto rx = gold::synthesize_burst(bank, senders, 0.01, 16, rng);
  for (std::size_t code : {1u, 2u, 3u, 4u}) {
    EXPECT_TRUE(bank.detect(rx, code).detected) << "code " << code;
  }
}

TEST(Correlator, TwoConcurrentSendersDifferentSignatures) {
  gold::GoldCodeSet set(7);
  const gold::CorrelatorBank bank(set);
  Rng rng(23);
  std::vector<gold::BurstSender> senders = {
      gold::BurstSender{{10, 11}, 1.0, 0, 0.3},
      gold::BurstSender{{12, 13}, 1.0, 2, 2.1}};
  const auto rx = gold::synthesize_burst(bank, senders, 0.01, 16, rng);
  for (std::size_t code : {10u, 11u, 12u, 13u}) {
    EXPECT_TRUE(bank.detect(rx, code).detected) << "code " << code;
  }
}

TEST(Correlator, FalsePositiveRateBelowOnePercent) {
  gold::GoldCodeSet set(7);
  const gold::CorrelatorBank bank(set);
  Rng rng(24);
  int fp = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<gold::BurstSender> senders = {
        gold::BurstSender{{(t % 60) + 60u}, 1.0, 0, 0.0}};
    const auto rx = gold::synthesize_burst(bank, senders, 0.05, 16, rng);
    if (bank.detect(rx, t % 40).detected) ++fp;
  }
  EXPECT_LE(static_cast<double>(fp) / trials, 0.01);
}

// detect_many correlates several candidate codes over one burst in a single
// pass; every verdict must equal detect() for the same code, bit for bit.
// detect() itself is pinned to the naive sliding correlator by
// Golden.CorrelatorDetect. The 64 bursts carry 1-3 senders of 1-4 combined
// codes each, with chip skew and random phase; each receiver probes 16
// candidates, padded with codes that are absent from the burst.
TEST(CorrelatorBank, DetectManyMatchesPerCodeDetect) {
  gold::GoldCodeSet set(7);
  const gold::CorrelatorBank bank(set);
  Rng rng(20260807);
  std::vector<gold::DetectionResult> many;
  int detected = 0;
  int probes = 0;
  for (int b = 0; b < 64; ++b) {
    std::vector<gold::BurstSender> senders;
    std::vector<std::size_t> candidates;
    const int nsenders = 1 + b % 3;
    for (int s = 0; s < nsenders; ++s) {
      gold::BurstSender sender;
      const int ncodes = 1 + (b + s) % 4;
      for (int c = 0; c < ncodes; ++c) {
        sender.codes.push_back(
            static_cast<std::size_t>((b * 17 + s * 31 + c * 7) % 100));
      }
      sender.amplitude = 0.8 + 0.2 * rng.uniform();
      sender.chip_offset = static_cast<std::size_t>(b + s) % 5;
      sender.phase_rad = rng.uniform(0.0, 6.28318);
      candidates.insert(candidates.end(), sender.codes.begin(),
                        sender.codes.end());
      senders.push_back(std::move(sender));
    }
    while (candidates.size() < 16) {
      candidates.push_back(
          (static_cast<std::size_t>(b) * 3 + candidates.size() * 5) % 100 + 1);
    }
    candidates.resize(16);
    const auto rx = gold::synthesize_burst(bank, senders, 0.05, 16, rng);

    bank.detect_many(rx, candidates, many);
    ASSERT_EQ(many.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const gold::DetectionResult one = bank.detect(rx, candidates[i]);
      EXPECT_EQ(many[i].detected, one.detected) << "burst " << b << " i " << i;
      EXPECT_EQ(many[i].lag, one.lag) << "burst " << b << " i " << i;
      EXPECT_EQ(many[i].peak_metric, one.peak_metric)
          << "burst " << b << " i " << i;
      EXPECT_EQ(many[i].floor_metric, one.floor_metric)
          << "burst " << b << " i " << i;
      detected += one.detected ? 1 : 0;
      ++probes;
    }
  }
  // The workload exercises both verdicts.
  EXPECT_GT(detected, 0);
  EXPECT_LT(detected, probes);
}

}  // namespace
}  // namespace dmn
