// Figure 9 reproduction: chip-level signature detection ratio vs the number
// of combined signatures (1..7) for the paper's five USRP setups, 1000 runs
// each; plus the false-positive rate (paper: < 1%).
//
// Setups: 1 sender; 2 senders same signatures; 2 senders different
// signatures; 3 senders same; 3 senders different. "Same" means the senders
// broadcast identical combined sets (constructive/destructive mixing);
// "different" splits the combined set across the senders.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "gold/burst.h"

using namespace dmn;

namespace {

struct Setup {
  const char* name;
  int senders;
  bool same;
};

double run_setup(const gold::GoldCodeSet& set, const Setup& setup,
                 int combined, int runs, Rng& rng, double* false_pos) {
  int ok = 0;
  int fp = 0;
  for (int r = 0; r < runs; ++r) {
    // Choose `combined` distinct target codes.
    std::vector<std::size_t> codes;
    for (int k = 0; k < combined; ++k) {
      codes.push_back(static_cast<std::size_t>(
          (r * 13 + k * 29) % 100));
    }
    std::vector<gold::BurstSender> senders;
    for (int s = 0; s < setup.senders; ++s) {
      gold::BurstSender b;
      if (setup.same) {
        b.codes = codes;
      } else {
        // Split the set across senders round-robin.
        for (std::size_t i = static_cast<std::size_t>(s); i < codes.size();
             i += static_cast<std::size_t>(setup.senders)) {
          b.codes.push_back(codes[i]);
        }
      }
      b.amplitude = 1.0;  // worst case: similar RSS (§3.2)
      b.chip_offset = static_cast<std::size_t>(rng.uniform_int(0, 3));
      b.phase_rad = rng.uniform(0.0, 2.0 * M_PI);
      senders.push_back(std::move(b));
    }
    const auto rx = gold::synthesize_burst(set, senders, /*noise=*/0.05, rng);
    // The first target code, plus a false-positive probe for a code
    // guaranteed absent.
    if (gold::detect(set, rx, codes[0]).detected) ++ok;
    const std::size_t absent = 110 + static_cast<std::size_t>(r % 10);
    if (gold::detect(set, rx, absent).detected) ++fp;
  }
  *false_pos += static_cast<double>(fp) / runs;
  return 100.0 * ok / runs;
}

}  // namespace

int main() {
  gold::GoldCodeSet set(7);  // the paper's 129 codes of length 127
  Rng rng(99);
  const int runs = static_cast<int>(bench::bench_seconds(300));

  const Setup setups[] = {
      {"1 sender", 1, false},
      {"2 senders, same signatures", 2, true},
      {"2 senders, different signatures", 2, false},
      {"3 senders, same signatures", 3, true},
      {"3 senders, different signatures", 3, false},
  };

  bench::print_header(
      "Figure 9: signature detection ratio (%) vs combined signatures");
  std::printf("%-34s", "setup \\ combined");
  for (int c = 1; c <= 7; ++c) std::printf(" %5d", c);
  std::printf("\n");

  double fp_acc = 0.0;
  int fp_cells = 0;
  for (const Setup& s : setups) {
    std::printf("%-34s", s.name);
    for (int combined = 1; combined <= 7; ++combined) {
      if (combined < s.senders && !s.same) {
        std::printf(" %5s", "-");  // cannot split fewer codes than senders
        continue;
      }
      const double ratio = run_setup(set, s, combined, runs, rng, &fp_acc);
      ++fp_cells;
      std::printf(" %5.1f", ratio);
    }
    std::printf("\n");
  }
  std::printf("\nfalse positive ratio: %.2f%% (paper: < 1%%)\n",
              100.0 * fp_acc / fp_cells);
  std::printf("paper: ~100%% detection while combined <= 4\n");
  return 0;
}
