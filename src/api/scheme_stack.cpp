#include "api/scheme_stack.h"

#include <stdexcept>
#include <string>

#include "api/experiment.h"
#include "api/stacks/centaur_stack.h"
#include "api/stacks/dcf_stack.h"
#include "api/stacks/domino_stack.h"
#include "api/stacks/omniscient_stack.h"

namespace dmn::api {

std::unique_ptr<SchemeStack> make_stack(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDcf: return std::make_unique<DcfStack>();
    case Scheme::kCentaur: return std::make_unique<CentaurStack>();
    case Scheme::kDomino: return std::make_unique<DominoStack>();
    case Scheme::kOmniscient: return std::make_unique<OmniscientStack>();
  }
  throw std::invalid_argument("unknown scheme value " +
                              std::to_string(static_cast<int>(scheme)));
}

}  // namespace dmn::api
