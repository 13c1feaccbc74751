// §5 "Number of signatures" trade-off: longer Gold codes support more nodes
// per collision domain and widen the detection margin, at the cost of
// per-trigger airtime. The paper quotes 127 -> 255 -> 511; degree 8
// (length 255) has NO preferred pairs, so this implementation offers the
// odd degrees plus 1023 and documents the 255 caveat (see DESIGN.md).

#include <cstdio>

#include "bench_util.h"
#include "gold/burst.h"
#include "gold/gold_code.h"

using namespace dmn;

int main() {
  bench::print_header(
      "Signature length trade-off (§5): nodes supported vs airtime vs "
      "margin");
  std::printf("%7s %7s %7s %12s %8s %15s\n", "degree", "length", "nodes",
              "airtime(us)", "t(m)", "margin N/t(m)");

  Rng rng(3);
  for (int degree : {5, 6, 7, 9, 10}) {
    gold::GoldCodeSet set(degree);
    const double airtime_us =
        static_cast<double>(set.duration_ns(20e6)) / 1000.0;
    std::printf("%7d %7zu %7zu %12.2f %8d %15.1f", degree, set.length(),
                set.size() - 2, airtime_us, set.t_bound(),
                static_cast<double>(set.length()) / set.t_bound());

    // Detection check at 4 combined signatures (the protocol maximum).
    const gold::CorrelatorBank bank(set);
    int ok = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
      std::vector<gold::BurstSender> senders = {
          gold::BurstSender{{1, 2, 3, 4},
                            1.0,
                            static_cast<std::size_t>(rng.uniform_int(0, 3)),
                            rng.uniform(0.0, 6.28)}};
      const auto rx = gold::synthesize_burst(bank, senders, 0.1, 16, rng);
      if (bank.detect(rx, 1).detected) ++ok;
    }
    std::printf("   detect@4: %5.1f%%\n", 100.0 * ok / trials);
  }
  std::printf(
      "\nnote: length 255 (degree 8) has no Gold preferred pairs — a "
      "correction to the paper's suggestion; use 511 instead\n");
  return 0;
}
