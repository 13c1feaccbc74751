#pragma once
// Timeline and misalignment recording for the Figure 10 (microscope) and
// Figure 11 (synchronization convergence) reproductions.

#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "topo/node.h"
#include "util/time.h"

namespace dmn::api {

class TimelineRecorder {
 public:
  struct TxRecord {
    std::uint64_t slot = 0;
    topo::NodeId sender = topo::kNoNode;
    topo::NodeId receiver = topo::kNoNode;
    TimeNs start = 0;
    bool fake = false;
    bool uplink = false;
  };
  struct PollRecord {
    std::uint64_t slot = 0;
    topo::NodeId ap = topo::kNoNode;
    TimeNs at = 0;
  };

  void record_tx(std::uint64_t slot, topo::NodeId sender,
                 topo::NodeId receiver, TimeNs start, bool fake, bool uplink);
  void record_poll(std::uint64_t slot, topo::NodeId ap, TimeNs at);

  /// One timeline from per-queue recorders: their records in queue order,
  /// stably sorted by start time — the identity on a single recorder, whose
  /// records already come in execution order.
  static TimelineRecorder merge(const std::vector<TimelineRecorder>& parts);

  const std::vector<TxRecord>& transmissions() const { return tx_; }
  const std::vector<PollRecord>& polls() const { return polls_; }

  /// Max spread of data-phase start times within one slot (microseconds).
  /// Slots with fewer than two concurrent transmitters report 0.
  double misalignment_us(std::uint64_t slot) const;

  /// Misalignment for `count` consecutive slots starting at `first` — the
  /// Figure 11 series.
  std::vector<double> misalignment_series(std::uint64_t first,
                                          std::size_t count) const;

  /// First recorded slot index (after the bootstrap batch).
  std::uint64_t first_slot() const;
  std::uint64_t last_slot() const;

  /// Figure 10-style textual timeline for slots [from, to].
  void print(std::ostream& os, std::uint64_t from, std::uint64_t to) const;

 private:
  std::vector<TxRecord> tx_;
  std::vector<PollRecord> polls_;
  std::map<std::uint64_t, std::pair<TimeNs, TimeNs>> window_;  // min,max
};

}  // namespace dmn::api
