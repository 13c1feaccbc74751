#include "phy/signature_model.h"

#include <algorithm>

namespace dmn::phy {

double SignatureDetectionModel::detect_probability(int combined_total,
                                                   double sinr_db) const {
  if (combined_total <= 0) return 0.0;
  double base;
  if (combined_total <= 7) {
    base = p_by_count[combined_total];
  } else {
    base = std::max(0.0, p_by_count[7] - beyond_decay *
                                             (combined_total - 7));
  }
  double sinr_scale;
  if (sinr_db >= full_sinr_db) {
    sinr_scale = 1.0;
  } else if (sinr_db <= zero_sinr_db) {
    sinr_scale = 0.0;
  } else {
    sinr_scale = (sinr_db - zero_sinr_db) / (full_sinr_db - zero_sinr_db);
  }
  return base * sinr_scale;
}

bool SignatureDetectionModel::sample_detect(int combined_total, double sinr_db,
                                            Rng& rng) const {
  return rng.chance(detect_probability(combined_total, sinr_db));
}

}  // namespace dmn::phy
