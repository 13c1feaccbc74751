#include "api/stacks/omniscient_stack.h"

#include "api/experiment.h"
#include "api/metrics.h"

namespace dmn::api {

void OmniscientStack::build(StackContext& ctx,
                            std::vector<mac::MacEntity*>& macs) {
  std::vector<omni::OmniNodeMac*> raw(ctx.topo.num_nodes(), nullptr);
  for (const topo::Node& n : ctx.topo.nodes()) {
    auto node = std::make_unique<omni::OmniNodeMac>(
        ctx.sim, ctx.medium, n.id, ctx.cfg.wifi, ctx.deliver);
    macs[static_cast<std::size_t>(n.id)] = node.get();
    raw[static_cast<std::size_t>(n.id)] = node.get();
    nodes_.push_back(std::move(node));
  }
  scheduler_ = std::make_unique<omni::OmniscientScheduler>(
      ctx.sim, ctx.medium, ctx.graph(), ctx.cfg.wifi, std::move(raw));
  scheduler_->start(usec(100));
}

void OmniscientStack::collect(ExperimentResult& result) const {
  (void)result;  // the genie-aided scheme has no failure counters
}

}  // namespace dmn::api
