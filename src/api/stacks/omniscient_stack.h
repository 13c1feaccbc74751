#pragma once
// Omniscient TDMA upper bound: a central scheduler with perfect knowledge
// drives one slave MAC per node over the full conflict graph.

#include <memory>
#include <vector>

#include "api/scheme_stack.h"
#include "omni/omniscient.h"

namespace dmn::api {

class OmniscientStack : public SchemeStack {
 public:
  void build(StackContext& ctx, std::vector<mac::MacEntity*>& macs) override;
  void collect(ExperimentResult& result) const override;

 private:
  std::vector<std::unique_ptr<omni::OmniNodeMac>> nodes_;
  std::unique_ptr<omni::OmniscientScheduler> scheduler_;
};

}  // namespace dmn::api
