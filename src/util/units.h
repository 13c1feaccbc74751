#pragma once
// Radio power units and conversions.
//
// All RSS values in the library are carried in dBm (matching the paper's
// trace format); interference summation happens in milliwatts.

#include <cmath>
#include <limits>

namespace dmn {

/// Smallest representable power used as "silence" (-infinity dBm stand-in).
inline constexpr double kZeroPowerMw = 0.0;

// The conversions are inline: they sit inside the interference and
// carrier-sense loops, the hottest code in the simulator, and must not be
// called through a translation-unit boundary.

/// dBm -> milliwatts.
inline double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

/// milliwatts -> dBm. Returns -infinity for 0 mW.
inline double mw_to_dbm(double mw) {
  if (mw <= 0.0) return -std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(mw);
}

/// Ratio (linear) -> dB.
inline double ratio_to_db(double ratio) {
  if (ratio <= 0.0) return -std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(ratio);
}

/// dB -> linear ratio.
inline double db_to_ratio(double db) { return std::pow(10.0, db / 10.0); }

/// Whether a linear ratio clears a dB threshold, deciding exactly as
/// ratio_to_db(ratio) >= th_db does. `th_lin` is db_to_ratio(th_db). The
/// conversion is monotonic, so outside a relative band of 1e-9 around
/// th_lin (about 4e-9 dB, far wider than the few ulps by which the two
/// roundings can disagree) the linear compare decides; inside it, the dB
/// compare does. The Medium's decode decision and the conflict graph's
/// pairwise SINR tests both decide through it.
inline bool clears_db_threshold(double ratio, double th_db, double th_lin) {
  const double band = 1e-9 * th_lin;
  if (ratio > th_lin + band) return true;
  if (ratio < th_lin - band) return false;
  return ratio_to_db(ratio) >= th_db;
}

/// Thermal noise floor for a 20 MHz 802.11 channel, including a typical
/// receiver noise figure: -174 dBm/Hz + 10*log10(20e6) + 7 dB NF ~= -94 dBm.
inline constexpr double kNoiseFloorDbm = -94.0;

/// Default transmit power used by the synthetic trace (typical enterprise AP).
inline constexpr double kDefaultTxPowerDbm = 20.0;

}  // namespace dmn
