// §5 co-existence: NAV protection of the contention-free period. An external
// (non-enterprise) 802.11 DCF contender shares the channel with a DOMINO
// cell: while the cell is saturated a slot-covering NAV keeps the external
// node deferring; when the cell idles, the external node gets the channel.
// DOMINO frames carry no NAV (Frame::nav stays 0), so the NAV case drives a
// NAV-carrying slot stream by hand: it shows that the Medium honours NAV,
// not that a DOMINO run is protected (docs/PROTOCOL.md §7).

#include <gtest/gtest.h>

#include "api/experiment.h"
#include "mac/dcf.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace dmn {
namespace {

/// One DOMINO cell (AP 0, client 1) plus an external pair (2 -> 3) that
/// hears the cell (carrier sense + NAV coupling) but whose data paths are
/// clean.
topo::Topology coexistence_topology() {
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  b.add_client(ap);        // 1
  const auto ext_tx = b.add_ap();  // 2: stand-in for an external sender
  b.add_client(ext_tx);    // 3
  b.sense(ap, ext_tx);
  b.sense(1, ext_tx);
  return b.build();
}

TEST(Coexistence, NavHoldsExternalContenderDuringCfp) {
  const auto topo = coexistence_topology();

  // The facade cannot attach an external DcfNode to a DOMINO experiment's
  // medium, so the cell is assembled raw: a saturated external DCF pair
  // against a DOMINO-timed slot stream with and without a slot-covering
  // NAV, compared by the external node's deliveries.
  for (const bool protect : {true, false}) {
    sim::Simulator sim;
    phy::Medium medium(sim, topo);

    // External DCF pair, saturated.
    int ext_delivered = 0;
    mac::WifiParams params;
    params.queue_capacity = 4000;
    mac::DcfNode ext_tx(sim, medium, 2, params, Rng(1),
                        [&](const traffic::Packet& p, topo::NodeId at,
                            TimeNs) {
                          if (at == p.dst) ++ext_delivered;
                        });
    mac::DcfNode ext_rx(sim, medium, 3, params, Rng(2),
                        [&](const traffic::Packet& p, topo::NodeId at,
                            TimeNs) {
                          if (at == p.dst) ++ext_delivered;
                        });
    for (int i = 0; i < 3000; ++i) {
      traffic::Packet p;
      p.id = static_cast<traffic::PacketId>(i + 1);
      p.flow = 0;
      p.src = 2;
      p.dst = 3;
      ext_tx.enqueue(p);
    }

    // A hand-driven stand-in for the DOMINO cell's slot stream: data
    // frames with (or without) slot-covering NAV, back to back — the
    // contention-free period.
    const domino::DominoTiming timing;
    std::function<void()> slot = [&] {
      phy::Frame f;
      f.type = phy::FrameType::kData;
      f.src = 0;
      f.dst = 1;
      f.duration = timing.data_air();
      if (protect) f.nav = timing.slot_duration() - f.duration;
      medium.transmit(f);
      sim.schedule_in(timing.slot_duration(), slot);
    };
    sim.schedule_at(usec(50), slot);

    sim.run_until(msec(300));

    if (protect) {
      // The gap between a frame's end and the next slot is > DIFS, so an
      // unprotected contender would squeeze in; NAV must prevent that.
      EXPECT_LT(ext_delivered, 20)
          << "NAV must hold the external contender during the CFP";
    } else {
      EXPECT_GT(ext_delivered, 100)
          << "without NAV the external node grabs inter-frame gaps";
    }
  }
}

TEST(Coexistence, ExternalNodeTransmitsWhenDominoIdle) {
  const auto topo = coexistence_topology();
  sim::Simulator sim;
  phy::Medium medium(sim, topo);
  int ext_delivered = 0;
  mac::WifiParams params;
  params.queue_capacity = 4000;
  mac::DcfNode ext_tx(sim, medium, 2, params, Rng(1),
                      [&](const traffic::Packet& p, topo::NodeId at, TimeNs) {
                        if (at == p.dst) ++ext_delivered;
                      });
  mac::DcfNode ext_rx(sim, medium, 3, params, Rng(2),
                      [&](const traffic::Packet& p, topo::NodeId at, TimeNs) {
                        if (at == p.dst) ++ext_delivered;
                      });
  for (int i = 0; i < 500; ++i) {
    traffic::Packet p;
    p.id = static_cast<traffic::PacketId>(i + 1);
    p.flow = 0;
    p.src = 2;
    p.dst = 3;
    ext_tx.enqueue(p);
  }
  // DOMINO silent: the external pair owns the channel (the CoP).
  sim.run_until(msec(300));
  EXPECT_EQ(ext_delivered, 500);
}

TEST(Coexistence, DominoUnaffectedByNavKnobInternally) {
  // Among DOMINO nodes the NAV is irrelevant (they transmit on schedule,
  // not carrier sense, and their frames carry none): a saturated cell keeps
  // its own throughput.
  topo::ManualTopologyBuilder b;
  const auto ap = b.add_ap();
  b.add_client(ap);
  const auto t = b.build();
  api::ExperimentConfig cfg;
  cfg.scheme = api::Scheme::kDomino;
  cfg.duration = sec(1);
  cfg.traffic.saturate_downlink = true;
  const auto r = api::run_experiment(t, cfg);
  EXPECT_GT(r.throughput_mbps(), 7.0);
}

}  // namespace
}  // namespace dmn
