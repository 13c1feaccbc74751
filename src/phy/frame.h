#pragma once
// Over-the-air frame types shared by every MAC scheme.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topo/node.h"
#include "traffic/packet.h"
#include "util/time.h"

namespace dmn::phy {

enum class FrameType {
  kData,         // MAC data frame (UDP/TCP payload or TCP ACK-as-data)
  kAck,          // link-layer ACK
  kFakeHeader,   // DOMINO fake packet: header only (§3.3)
  kPoll,         // ROP polling broadcast from an AP
  kRopResponse,  // client's one-OFDM-symbol queue report
  kSignature,    // combined Gold-signature trigger burst
};

/// Number of FrameType values (flat per-type counter arrays index by this).
inline constexpr std::size_t kFrameTypeCount = 6;

const char* to_string(FrameType t);

/// What a signature burst carries (kSignature frames only).
struct SignatureBurst {
  /// Gold-code indices combined in this burst (node signatures).
  std::vector<std::size_t> codes;
  /// Followed by the START signature S' (normal slot boundary)...
  bool start_signature = false;
  /// ...or by the ROP signature (next slot is a polling slot, §3.3).
  bool rop_signature = false;
  /// Instruction-only (client_instruction field): "you transmit again in
  /// the next slot". A client scheduled in consecutive slots cannot listen
  /// for its own signature while bursting, so its AP — which holds the
  /// schedule — tells it to continue directly. One bit riding the frame
  /// that already carries the S1 samples (Figure 8).
  bool continue_next = false;
  /// Recovery kick (AP restarting a silent uplink): timed off-lattice, so
  /// listeners must not treat it as a slot-timing reference.
  bool recovery = false;
  /// When rop_signature: how many back-to-back poll symbols the announced
  /// ROP spans. Every listener stretches its slot lattice by
  /// rop_duration(rop_symbols), so the count rides the burst in-band (the
  /// single-symbol ROP is rop_symbols = 1).
  std::uint32_t rop_symbols = 1;
};

/// One entry of an adaptive poll roster (kPoll payload): which client
/// answers on which subchannel of which poll symbol this round.
struct PollAssignment {
  topo::NodeId client = topo::kNoNode;
  std::uint32_t subchannel = 0;
  std::uint32_t symbol = 0;
};

struct Frame {
  FrameType type = FrameType::kData;
  topo::NodeId src = topo::kNoNode;
  /// Unicast destination, or kNoNode for broadcast.
  topo::NodeId dst = topo::kNoNode;
  std::size_t bytes = 0;    // MAC-level size (header + payload)
  TimeNs duration = 0;      // airtime; set by the sender

  /// kData / kFakeHeader: the carried MAC payload (absent for control
  /// frames). Carried by value — frames are small and short-lived.
  std::optional<traffic::Packet> packet;
  std::uint64_t packet_id = 0;  // ACK matching / duplicate filtering
  bool is_retry = false;

  /// kSignature payload.
  std::optional<SignatureBurst> burst;

  /// DOMINO: signature samples the AP hands its client to rebroadcast at
  /// the slot's signature phase (S1 in Figure 8); rides data frames (AP->C)
  /// or ACKs (C->AP).
  std::optional<SignatureBurst> client_instruction;

  /// DOMINO: global slot index this frame belongs to / triggers.
  /// Physically implicit in chain position; carried explicitly here and
  /// used for passive re-anchoring ("last correctly received trigger as
  /// time reference") and the misalignment statistics.
  std::uint64_t slot_tag = 0;

  /// kRopResponse payload: the client's encoded queue report and assigned
  /// subchannel.
  unsigned queue_report = 0;
  std::size_t subchannel = 0;

  /// kRopResponse: 0-based poll symbol the report rides in (always 0 for
  /// the single-symbol ROP). kPoll: total symbols in the announced round.
  std::uint32_t poll_symbol = 0;

  /// kPoll, adaptive mode: the round's roster. Empty in the static modes —
  /// every client then answers on its (symbol, subchannel) slot.
  std::vector<PollAssignment> poll_roster;

  /// NAV: how long others should defer beyond this frame (paper §5 uses it
  /// to protect the contention-free period from external nodes).
  TimeNs nav = 0;
};

}  // namespace dmn::phy
