#pragma once
// Over-the-air frame types shared by every MAC scheme.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
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

/// The Gold-code indices combined in one burst, in the order they were
/// added. Codes are node ids, which stay below 1023 (domino::SignaturePlan),
/// so each fits 16 bits. Up to kInline codes live in place, and copying such
/// a list allocates nothing: every listener copies each burst it hears. A
/// longer list spills to one heap block; the converter caps a node at
/// max_outbound (4) codes, but the AP's overlap-slot merge
/// (DominoApMac::receive_plan) can add more.
class SignatureCodes {
 public:
  using Code = std::uint16_t;
  static constexpr std::size_t kInline = 12;

  SignatureCodes() = default;
  SignatureCodes(std::initializer_list<std::size_t> codes) {
    for (std::size_t c : codes) push_back(c);
  }
  SignatureCodes(const SignatureCodes& o) : size_(o.size_) {
    if (o.spilled()) {
      Code* p = new Code[size_];
      std::copy(o.begin(), o.end(), p);
      set_heap(p);
    } else {
      std::copy_n(o.inline_, kInline, inline_);
    }
  }
  SignatureCodes(SignatureCodes&& o) noexcept { take(o); }
  SignatureCodes& operator=(const SignatureCodes& o) {
    if (this != &o) *this = SignatureCodes(o);
    return *this;
  }
  SignatureCodes& operator=(SignatureCodes&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  ~SignatureCodes() { release(); }

  void push_back(std::size_t code);
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Code* begin() const { return spilled() ? heap() : inline_; }
  const Code* end() const { return begin() + size_; }
  bool contains(std::size_t code) const {
    return std::find(begin(), end(), code) != end();
  }
  friend bool operator==(const SignatureCodes& a, const SignatureCodes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // Spilled, the first bytes of inline_ hold the address of a heap block
  // of exactly size_ codes.
  bool spilled() const { return size_ > kInline; }
  Code* heap() const {
    Code* p;
    std::memcpy(&p, inline_, sizeof p);
    return p;
  }
  void set_heap(Code* p) { std::memcpy(inline_, &p, sizeof p); }
  void take(SignatureCodes& o) {
    std::copy_n(o.inline_, kInline, inline_);
    size_ = std::exchange(o.size_, 0);
  }
  void release() {
    if (spilled()) delete[] heap();
    size_ = 0;
  }

  Code inline_[kInline] = {};
  std::uint16_t size_ = 0;
};

/// What a signature burst carries (kSignature frames only). The flags are
/// one bit each so a burst stays 32 bytes: events capture instructions by
/// value (sim::EventFn's inline storage) and every Frame holds two.
struct SignatureBurst {
  /// Gold-code indices combined in this burst (node signatures).
  SignatureCodes codes;
  /// Followed by the START signature S' (normal slot boundary)...
  bool start_signature : 1 = false;
  /// ...or by the ROP signature (next slot is a polling slot, §3.3).
  bool rop_signature : 1 = false;
  /// Instruction-only (client_instruction field): "you transmit again in
  /// the next slot". A client scheduled in consecutive slots cannot listen
  /// for its own signature while bursting, so its AP — which holds the
  /// schedule — tells it to continue directly. One bit riding the frame
  /// that already carries the S1 samples (Figure 8).
  bool continue_next : 1 = false;
  /// Recovery kick (AP restarting a silent uplink): timed off-lattice, so
  /// listeners must not treat it as a slot-timing reference.
  bool recovery : 1 = false;
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
