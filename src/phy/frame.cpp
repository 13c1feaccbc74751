#include "phy/frame.h"

#include <cassert>
#include <limits>

namespace dmn::phy {

void SignatureCodes::push_back(std::size_t code) {
  assert(code <= std::numeric_limits<Code>::max());
  assert(size_ < std::numeric_limits<std::uint16_t>::max());
  const auto c = static_cast<Code>(code);
  if (size_ < kInline) {
    inline_[size_++] = c;
    return;
  }
  // Past the inline list every push reallocates: spilled lists are rare
  // and short.
  Code* p = new Code[size_ + 1];
  std::copy(begin(), end(), p);
  p[size_] = c;
  if (spilled()) delete[] heap();
  set_heap(p);
  ++size_;
}

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kAck: return "ACK";
    case FrameType::kFakeHeader: return "FAKE";
    case FrameType::kPoll: return "POLL";
    case FrameType::kRopResponse: return "ROP";
    case FrameType::kSignature: return "SIG";
  }
  return "?";
}

}  // namespace dmn::phy
