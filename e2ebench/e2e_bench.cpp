// End-to-end benchmark of whole api::Experiment runs.
//
//   e2e_bench --workload campus|fig14|floorplan_churn --seed N --seconds S
//             --trace 0|1 [--shape full|tiny] [--trace-file PATH]
//
// A workload is a fixed list of experiment points run one after another by
// one caller (a closed loop). Topologies and configs come from --seed only.
// One pass runs every point: topology build, Experiment construction, run(),
// teardown and serialize_result, each timed from outside. Passes repeat
// until --seconds have elapsed (at least three), and every end-to-end timing
// is the median over passes of the measured seconds scaled by the pass's
// median machine-speed probe, sampled between its points (see
// probe_machine). Outputs are checked after each pass, outside the timed
// section; a point that throws or fails a check counts as failed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced passes (their difference is the tracing overhead), then replays the
// heavy public layer calls on the workload's own topologies, then runs one
// audited pass; it prints the per-layer metrics and writes the spans as
// Chrome trace-event JSON. The last stdout line is one JSON object with the
// keys correct, attempted, failed and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "domino/converter.h"
#include "domino/rand_scheduler.h"
#include "domino/signature_plan.h"
#include "phy/medium.h"
#include "rop/poll_planner.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "topo/dynamics.h"
#include "topo/partition.h"
#include "topo/topology.h"
#include "trace.h"

namespace {

using namespace dmn;
using e2e::Clock;
using e2e::seconds_between;

// ---- small helpers ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---- workloads --------------------------------------------------------------

struct PointDef {
  std::string label;
  std::size_t topo = 0;  // index into Workload::topos
  std::function<api::ExperimentConfig(const topo::Topology&)> config;
};

struct Workload {
  std::string name;
  std::vector<std::function<topo::Topology()>> topos;
  std::vector<PointDef> points;
  /// (DCF point, DOMINO point) on identical draws; domino_gain is the median
  /// of DOMINO / DCF goodput over these pairs.
  std::vector<std::pair<std::size_t, std::size_t>> gain_pairs;
  /// Points whose serialized results must be byte-identical.
  std::vector<std::pair<std::size_t, std::size_t>> identical_pairs;
};

/// Block-diagonal campus (the bench_scale shape): radio-isolated buildings,
/// each a chain of APs within carrier-sense range of their neighbours.
topo::Topology campus_topology(std::size_t aps, std::size_t buildings,
                               std::size_t clients_per_ap) {
  topo::ManualTopologyBuilder b;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < buildings; ++k) {
    const std::size_t quota = (aps - assigned) / (buildings - k);
    topo::NodeId prev = topo::kNoNode;
    for (std::size_t a = 0; a < quota; ++a) {
      const topo::NodeId ap = b.add_ap();
      if (prev != topo::kNoNode) b.sense(prev, ap);
      for (std::size_t c = 0; c < clients_per_ap; ++c) b.add_client(ap);
      prev = ap;
    }
    assigned += quota;
  }
  return b.build();
}

api::ExperimentConfig base_config(std::uint64_t seed, TimeNs duration) {
  api::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.sim_threads = -1;  // classic kernel unless a point asks otherwise
  cfg.audit.mode = audit::AuditMode::kOff;
  return cfg;
}

/// Setup-dominated: the O(links^2) conflict graph and census over every
/// association link, run on the classic and the partitioned kernel.
Workload make_campus(std::uint64_t seed, bool tiny) {
  const std::size_t aps = tiny ? 20 : 120;
  const std::size_t buildings = tiny ? 4 : 12;
  const std::size_t clients_per_ap = tiny ? 4 : 12;
  const TimeNs duration = tiny ? msec(50) : msec(200);

  // One 2 Mbps downlink per AP, to a client drawn from the seed.
  Rng rng(seed);
  std::vector<std::size_t> target(aps);
  for (auto& t : target) {
    t = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clients_per_ap) - 1));
  }
  auto config = [=](int sim_threads) {
    return [=](const topo::Topology& t) {
      api::ExperimentConfig cfg = base_config(seed, duration);
      cfg.scheme = api::Scheme::kDcf;
      cfg.sim_threads = sim_threads;
      const std::vector<topo::NodeId> ap_ids = t.aps();
      for (std::size_t i = 0; i < ap_ids.size(); ++i) {
        const auto clients = t.clients_of(ap_ids[i]);
        cfg.traffic.custom.push_back(
            api::FlowSpec{ap_ids[i], clients.at(target[i]), 2e6, false});
      }
      return cfg;
    };
  };

  Workload w;
  w.name = "campus";
  w.topos.push_back(
      [=] { return campus_topology(aps, buildings, clients_per_ap); });
  w.points.push_back({"classic", 0, config(-1)});
  w.points.push_back({"partitioned", 0, config(2)});
  // A no-fault DCF run is byte-identical on both kernels.
  w.identical_pairs.push_back({0, 1});
  return w;
}

/// Loop-dominated: random T(20,3) topologies in an 800 m square, each run
/// as DCF and then DOMINO on identical draws (the paper's Figure 14).
Workload make_fig14(std::uint64_t seed, bool tiny) {
  const std::size_t topologies = tiny ? 1 : 12;
  const TimeNs duration = tiny ? msec(200) : msec(500);
  Workload w;
  w.name = "fig14";
  for (std::size_t k = 0; k < topologies; ++k) {
    const std::uint64_t draw = seed * 1000 + k;
    w.topos.push_back([draw] {
      Rng rng(draw);
      topo::LogDistanceModel model;
      return topo::Topology::random_network(20, 3, 800.0, model, {}, rng);
    });
    auto config = [=](api::Scheme scheme) {
      return [=](const topo::Topology&) {
        api::ExperimentConfig cfg = base_config(draw, duration);
        cfg.scheme = scheme;
        cfg.traffic.downlink_bps = 10e6;
        return cfg;
      };
    };
    const std::string tag = "t" + std::to_string(k);
    w.points.push_back({tag + "-DCF", k, config(api::Scheme::kDcf)});
    w.points.push_back({tag + "-DOMINO", k, config(api::Scheme::kDomino)});
    w.gain_pairs.push_back({2 * k, 2 * k + 1});
  }
  return w;
}

/// Topology as a write path: walkers, churn and roaming on the two-building
/// floor plan rebuild the conflict graph at every join, leave and roam;
/// more than 24 clients per AP engage multi-symbol adaptive polling.
///
/// The churn is scripted rather than Poisson: three in five of the clients
/// that do not walk leave once, at a seeded time, and rejoin a fixed
/// downtime later. Rebuilds are a large share of the loop, so a fixed
/// number of them keeps the loop's work the same from seed to seed (Poisson
/// churn at 2 Hz per client varied the number by about 10%).
Workload make_floorplan_churn(std::uint64_t seed, bool tiny) {
  const std::size_t aps = 4;
  const std::size_t clients_per_ap = tiny ? 6 : 30;
  const TimeNs duration = tiny ? msec(300) : msec(1000);
  const TimeNs downtime = msec(150);
  auto config = [=](api::Scheme scheme) {
    return [=](const topo::Topology& t) {
      api::ExperimentConfig cfg = base_config(seed, duration);
      cfg.scheme = scheme;
      cfg.traffic.downlink_bps = 4e6;
      cfg.traffic.uplink_bps = 1e6;
      cfg.rop.poll_mode = rop::PollMode::kAdaptive;
      cfg.dynamics.epoch = msec(50);
      std::vector<topo::NodeId> stay;
      for (const topo::NodeId ap : t.aps()) {
        const std::vector<topo::NodeId> cs = t.clients_of(ap);
        stay.insert(stay.end(), cs.begin() + 1, cs.end());
      }
      Rng churn(seed ^ 0x9e3779b97f4a7c15ull);
      for (std::size_t i = stay.size(); i > 1; --i) {
        std::swap(stay[i - 1],
                  stay[static_cast<std::size_t>(churn.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      const auto latest_leave = static_cast<std::int64_t>(
          (duration - downtime - msec(10)) / usec(1));
      for (std::size_t i = 0; i < 3 * stay.size() / 5; ++i) {
        const TimeNs leave = usec(
            static_cast<double>(churn.uniform_int(10000, latest_leave)));
        cfg.dynamics.membership.push_back({leave, stay[i], false});
        cfg.dynamics.membership.push_back({leave + downtime, stay[i], true});
      }
      cfg.dynamics.roam.enabled = true;
      cfg.dynamics.roam.hysteresis_db = 2.0;
      cfg.dynamics.roam.min_dwell = msec(100);
      // One 1.5 m/s walker per AP, the same trajectories for both schemes.
      Rng walk(seed ^ 0x5bd1e995ull);
      for (const topo::NodeId ap : t.aps()) {
        const topo::NodeId walker = t.clients_of(ap).front();
        cfg.dynamics.trajectories.push_back(
            topo::make_random_waypoint_trajectory(
                {}, walker, t.node(walker).pos, 1.5, duration, walk));
      }
      return cfg;
    };
  };
  Workload w;
  w.name = "floorplan_churn";
  // One fixed floor plan: the seed draws the churn, the walks and the
  // simulation, so DOMINO/DCF goodput does not swing with the layout.
  w.topos.push_back([=] {
    Rng rng(1);
    return topo::make_floorplan_topology({}, aps, clients_per_ap, {}, rng);
  });
  w.points.push_back({"DCF", 0, config(api::Scheme::kDcf)});
  w.points.push_back({"DOMINO", 0, config(api::Scheme::kDomino)});
  w.gain_pairs.push_back({0, 1});
  return w;
}

// ---- one pass ---------------------------------------------------------------

struct PointRun {
  bool ok = false;
  std::string error;
  api::Scheme scheme = api::Scheme::kDcf;
  double topo_build_s = 0.0;  // charged to the first point on a topology
  double construct_s = 0.0;
  double run_wall_s = 0.0;
  double serialize_s = 0.0;
  api::ExperimentResult result;
  std::string bytes;
};

/// Probe time on an idle 4-vCPU x86-64 VM, where the reported end-to-end
/// timings equal the measured ones.
constexpr double kProbeNominalS = 0.020;

/// The host's speed drifts over seconds, so the probe is sampled between
/// points whenever this much time has passed since the last sample: dense
/// enough to follow the drift, sparse enough to cost at most about 7% of a
/// run.
constexpr double kProbeEveryS = 0.3;

struct PassRun {
  double wall_s = 0.0;  // excludes the probes taken during the pass
  std::vector<double> probes;  // machine-speed probe samples, seconds
  std::vector<PointRun> points;

  /// Converts this pass's measured seconds to reference seconds: what they
  /// would be on a machine where the probe takes kProbeNominalS.
  double scale() const { return kProbeNominalS / median(probes); }

  double setup_s() const {
    double s = 0.0;
    for (const PointRun& p : points) {
      s += p.topo_build_s + p.construct_s + p.result.wall_setup_seconds;
    }
    return s;
  }
  double loop_s() const {
    double s = 0.0;
    for (const PointRun& p : points) s += p.result.wall_run_seconds;
    return s;
  }
  double collect_s() const {
    double s = 0.0;
    for (const PointRun& p : points) {
      s += p.run_wall_s - p.result.wall_setup_seconds -
           p.result.wall_run_seconds + p.serialize_s;
    }
    return s;
  }
  double topo_build_s() const {
    double s = 0.0;
    for (const PointRun& p : points) s += p.topo_build_s;
    return s;
  }
};

/// Machine-speed probe: two fixed loops that use no simulator code, so no
/// change to src/ can move them, and that other tenants of a shared machine
/// slow the way they slow the simulator. The memory half mixes binary-heap
/// operations with random reads over a 4 MiB table (an event loop's access
/// pattern); the compute half converts dB to linear power and back (the
/// conflict-graph and SINR arithmetic). Returns its own duration in seconds.
double probe_machine() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 19);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = i * 2654435761u;
    return t;
  }();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint64_t> heap;
  heap.reserve(1024);
  for (std::uint64_t i = 0; i < 1024; ++i) heap.push_back(i);
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int it = 0; it < 125000; ++it) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    acc += table[x & (table.size() - 1)];
    heap.back() += (x & 1023) + (acc & 1);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  double power = 0.0;
  for (int it = 0; it < 200000; ++it) {
    const double dbm = -95.0 + static_cast<double>(it % 61);
    power += 10.0 * std::log10(std::pow(10.0, dbm / 10.0) + 1e-12);
  }
  const Clock::time_point t1 = Clock::now();
  // Consume both results so neither loop can be optimized away.
  if (acc == 42 || power == 0.0) std::fprintf(stderr, " ");
  return seconds_between(t0, t1);
}

/// ru_maxrss growth across the first topology construction of the process
/// (later builds reuse freed pages and cannot raise the high-water mark).
std::optional<double> g_build_rss_mb;

/// Runs every point of `w` once. Samples the machine-speed probe before the
/// first point and then between points, at most every kProbeEveryS; the
/// probes' time is left out of wall_s.
PassRun run_pass(const Workload& w, e2e::Tracer& tr, audit::AuditMode mode) {
  PassRun pass;
  pass.points.resize(w.points.size());
  std::vector<std::optional<topo::Topology>> topos(w.topos.size());
  double probe_s = 0.0;
  Clock::time_point last_probe;
  auto sample = [&] {
    e2e::Scoped s(tr, "probe");
    last_probe = Clock::now();
    pass.probes.push_back(probe_machine());
    probe_s += seconds_between(last_probe, Clock::now());
  };
  const Clock::time_point t0 = Clock::now();
  {
    e2e::Scoped ws(tr, "workload", w.name);
    sample();
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (i > 0 && seconds_between(last_probe, Clock::now()) >= kProbeEveryS) {
        sample();
      }
      const PointDef& def = w.points[i];
      PointRun& pr = pass.points[i];
      e2e::Scoped ps(tr, "point", def.label);
      try {
        if (!topos[def.topo]) {
          e2e::Scoped s(tr, "topo.build");
          const double rss0 = peak_rss_mb();
          const Clock::time_point b0 = Clock::now();
          topos[def.topo].emplace(w.topos[def.topo]());
          pr.topo_build_s = seconds_between(b0, Clock::now());
          if (!g_build_rss_mb) g_build_rss_mb = peak_rss_mb() - rss0;
        }
        const topo::Topology& t = *topos[def.topo];
        api::ExperimentConfig cfg = def.config(t);
        cfg.audit.mode = mode;
        pr.scheme = cfg.scheme;

        std::unique_ptr<api::Experiment> exp;
        {
          e2e::Scoped s(tr, "api.construct");
          const Clock::time_point c0 = Clock::now();
          exp = std::make_unique<api::Experiment>(t, std::move(cfg));
          pr.construct_s = seconds_between(c0, Clock::now());
        }
        {
          e2e::Scoped s(tr, "api.run");
          const Clock::time_point r0 = Clock::now();
          pr.result = exp->run();
          const Clock::time_point r1 = Clock::now();
          pr.run_wall_s = seconds_between(r0, r1);
          const auto setup_end =
              r0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           pr.result.wall_setup_seconds));
          const auto loop_end =
              setup_end + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  pr.result.wall_run_seconds));
          tr.add("run.setup", s.id(), r0, setup_end);
          tr.add("run.loop", s.id(), setup_end, loop_end);
          tr.add("run.collect", s.id(), loop_end, r1);
        }
        {
          e2e::Scoped s(tr, "api.teardown");
          exp.reset();
        }
        {
          e2e::Scoped s(tr, "api.serialize");
          const Clock::time_point s0 = Clock::now();
          pr.bytes = api::serialize_result(pr.result);
          pr.serialize_s = seconds_between(s0, Clock::now());
        }
        pr.ok = true;
      } catch (const std::exception& e) {
        pr.error = e.what();
      }
    }
  }
  pass.wall_s = seconds_between(t0, Clock::now()) - probe_s;
  return pass;
}

// ---- output checks ----------------------------------------------------------

/// Checks one pass against the workload's output contracts and against the
/// reference pass (the first untraced pass; nullptr while checking it).
/// Marks failing points !ok and returns their number.
std::size_t check_pass(const Workload& w, PassRun& pass, const PassRun* ref,
                       const char* what) {
  auto fail = [&](std::size_t i, const std::string& why) {
    if (!pass.points[i].ok) return;
    pass.points[i].ok = false;
    pass.points[i].error = why;
  };
  for (std::size_t i = 0; i < pass.points.size(); ++i) {
    PointRun& p = pass.points[i];
    if (!p.ok) continue;
    const double g = p.result.aggregate_throughput_bps;
    if (!std::isfinite(g) || g <= 0.0) fail(i, "non-positive goodput");
    try {
      const std::string again = api::serialize_result(
          api::deserialize_result(api::parse_json(p.bytes)));
      if (again != p.bytes) fail(i, "serialize round trip changed bytes");
    } catch (const std::exception& e) {
      fail(i, std::string("round trip threw: ") + e.what());
    }
    if (ref != nullptr && ref->points[i].ok &&
        fnv1a(p.bytes) != fnv1a(ref->points[i].bytes)) {
      fail(i, std::string("result hash differs from the untraced run (") +
                  what + ")");
    }
  }
  for (const auto& [a, b] : w.identical_pairs) {
    if (pass.points[a].ok && pass.points[b].ok &&
        pass.points[a].bytes != pass.points[b].bytes) {
      fail(b, "serialized result differs from " + w.points[a].label);
    }
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < pass.points.size(); ++i) {
    if (pass.points[i].ok) continue;
    ++failed;
    std::fprintf(stderr, "e2e_bench: %s point %s failed (%s): %s\n",
                 w.name.c_str(), w.points[i].label.c_str(), what,
                 pass.points[i].error.c_str());
  }
  return failed;
}

// ---- layer replays ----------------------------------------------------------
// Heavy public layer calls re-run on the workload's own topologies, outside
// any Experiment, so each layer gets a number without tracing inside src/.

struct Replay {
  std::vector<double> links, graph_build_s, census_s, partition_s, tx_us,
      tx_us_part, plan_us, rop_plan_us, serialize_us, parse_us;
};

/// Counts the frames that reach this node as their destination, decoded or
/// not (a frame may collide with its neighbours in the air).
class CountingClient : public phy::MediumClient {
 public:
  void on_frame_rx(const phy::Frame& frame, const phy::RxInfo&) override {
    received += frame.dst == self ? 1 : 0;
  }
  topo::NodeId self = topo::kNoNode;
  std::uint64_t received = 0;
};

/// Start-to-end cost of one Medium::transmit: `frames` 400 us downlink data
/// frames, the member APs taking turns, up to four in the air at a time and
/// never two from one AP.
double replay_transmit_us(const topo::Topology& t,
                          std::vector<topo::NodeId> members,
                          std::size_t frames) {
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  if (!members.empty()) medium.restrict_to_nodes(members);
  if (members.empty()) {
    for (std::size_t n = 0; n < t.num_nodes(); ++n) {
      members.push_back(static_cast<topo::NodeId>(n));
    }
  }
  std::vector<CountingClient> clients(t.num_nodes());
  std::vector<topo::NodeId> aps;
  for (const topo::NodeId n : members) {
    clients[static_cast<std::size_t>(n)].self = n;
    medium.attach(n, &clients[static_cast<std::size_t>(n)]);
    if (t.node(n).is_ap && !t.clients_of(n).empty()) aps.push_back(n);
  }
  if (aps.empty()) return 0.0;
  const TimeNs airtime = usec(400);
  const TimeNs spacing =
      airtime / static_cast<TimeNs>(std::min<std::size_t>(4, aps.size())) +
      usec(1);
  std::vector<phy::Frame> batch(frames);
  for (std::size_t k = 0; k < frames; ++k) {
    const topo::NodeId ap = aps[k % aps.size()];
    const std::vector<topo::NodeId> cs = t.clients_of(ap);
    batch[k].type = phy::FrameType::kData;
    batch[k].src = ap;
    batch[k].dst = cs[(k / aps.size()) % cs.size()];
    batch[k].bytes = 540;
    batch[k].duration = airtime;
    sim.post_at(static_cast<TimeNs>(k) * spacing,
                [&medium, &batch, k] { medium.transmit(batch[k]); });
  }
  const Clock::time_point t0 = Clock::now();
  sim.run();
  const double us = seconds_between(t0, Clock::now()) * 1e6 /
                    static_cast<double>(frames);
  std::uint64_t received = 0;
  for (const CountingClient& c : clients) received += c.received;
  if (received != frames) {
    throw std::runtime_error("phy replay: " + std::to_string(received) +
                             " of " + std::to_string(frames) +
                             " frames reached their receiver");
  }
  return us;
}

/// One controller planning step per batch: RAND schedule_batch, convert and
/// make_ap_plans, on seeded per-link demand. Returns per-batch microseconds.
std::vector<double> replay_domino_plan(const topo::Topology& t,
                                       const api::ExperimentConfig& cfg,
                                       const topo::ConflictGraph& graph,
                                       std::size_t batches, Rng& rng) {
  const domino::SignaturePlan signatures(t.num_nodes());
  domino::ScheduleConverter converter(t, graph, signatures, cfg.converter);
  domino::RandScheduler rand(graph);
  const rop::PollPlanner planner(cfg.rop);
  const std::vector<topo::NodeId> aps = t.aps();
  std::vector<std::uint32_t> rop_symbols;
  if (cfg.rop.poll_mode != rop::PollMode::kLegacy) {
    for (const topo::NodeId ap : aps) {
      rop_symbols.push_back(static_cast<std::uint32_t>(
          planner.symbol_budget(t.clients_of(ap).size())));
    }
  }
  std::vector<domino::SlotEntry> prev_last;
  std::uint64_t next_global = 0;
  std::vector<double> us;
  us.reserve(batches);
  std::size_t plans = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<std::size_t> demand(graph.num_links());
    for (auto& d : demand) d = static_cast<std::size_t>(rng.uniform_int(0, 12));
    const Clock::time_point t0 = Clock::now();
    auto strict = rand.schedule_batch(std::move(demand),
                                      cfg.domino.batch_slots);
    while (strict.size() < cfg.domino.batch_slots) strict.emplace_back();
    const domino::RelativeSchedule rs = converter.convert(
        strict, prev_last, aps, b + 1, next_global, rop_symbols);
    prev_last = rs.slots.back().entries;
    next_global += rs.slots.size() - 1;
    plans += converter.make_ap_plans(rs).size();
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  if (plans == 0) throw std::runtime_error("DOMINO replay planned nothing");
  return us;
}

/// PollPlanner::plan per AP per round with seeded backlog reports and the
/// controller's age bookkeeping. Returns per-call microseconds.
std::vector<double> replay_rop_plan(const topo::Topology& t,
                                    const rop::RopParams& params,
                                    std::size_t rounds, Rng& rng) {
  const rop::PollPlanner planner(params);
  std::vector<std::vector<rop::PollClient>> cells;
  for (const topo::NodeId ap : t.aps()) {
    std::vector<rop::PollClient> cell;
    for (const topo::NodeId c : t.clients_of(ap)) {
      cell.push_back({c, t.rss(c, ap), 0, 0});
    }
    cells.push_back(std::move(cell));
  }
  std::vector<double> us;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (auto& cell : cells) {
      for (auto& pc : cell) {
        pc.backlog = rng.chance(0.3)
                         ? static_cast<std::size_t>(rng.uniform_int(1, 20))
                         : 0;
      }
      const Clock::time_point t0 = Clock::now();
      const rop::PollRound round = planner.plan(cell, r);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      for (auto& pc : cell) ++pc.rounds_since_polled;
      for (const rop::PollSlot& s : round.slots) {
        for (auto& pc : cell) {
          if (pc.client == s.client) pc.rounds_since_polled = 0;
        }
      }
    }
  }
  return us;
}

Replay run_replays(const Workload& w, const PassRun& ref, std::uint64_t seed,
                   bool tiny, e2e::Tracer& tr) {
  Replay out;
  Rng rng(seed ^ 0x2545f4914f6cdd1dull);
  e2e::Scoped all(tr, "replay", w.name);
  for (std::size_t ti = 0; ti < w.topos.size(); ++ti) {
    const topo::Topology t = w.topos[ti]();
    // The first point on this topology fixes the link directions.
    std::size_t first = 0;
    while (w.points[first].topo != ti) ++first;
    const api::ExperimentConfig cfg0 = w.points[first].config(t);
    const bool down = cfg0.traffic.downlink_bps > 0.0 ||
                      !cfg0.traffic.custom.empty();
    const bool up = cfg0.traffic.uplink_bps > 0.0;
    const std::vector<topo::Link> links = t.make_links(down, up);
    out.links.push_back(static_cast<double>(links.size()));

    std::optional<topo::ConflictGraph> graph;
    {
      e2e::Scoped s(tr, "replay.topo.graph_build");
      const Clock::time_point t0 = Clock::now();
      graph.emplace(topo::ConflictGraph::build(t, links));
      out.graph_build_s.push_back(seconds_between(t0, Clock::now()));
    }
    {
      e2e::Scoped s(tr, "replay.topo.census");
      const Clock::time_point t0 = Clock::now();
      const topo::PairCensus census = topo::classify_pairs(t, links);
      out.census_s.push_back(seconds_between(t0, Clock::now()));
      if (census.total == 0 && links.size() > 1) {
        throw std::runtime_error("census replay considered no pairs");
      }
    }
    topo::Partitioning parts;
    {
      e2e::Scoped s(tr, "replay.topo.partition");
      const Clock::time_point t0 = Clock::now();
      parts = topo::compute_partitions(t);
      out.partition_s.push_back(seconds_between(t0, Clock::now()));
    }
    const std::size_t frames = tiny ? 2000 : 20000;
    {
      e2e::Scoped s(tr, "replay.phy.transmit");
      out.tx_us.push_back(replay_transmit_us(t, {}, frames));
    }
    if (parts.count >= 2) {
      e2e::Scoped s(tr, "replay.phy.transmit_part");
      out.tx_us_part.push_back(
          replay_transmit_us(t, parts.members_of(0), frames));
    }
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const PointDef& def = w.points[i];
      if (def.topo != ti || !ref.points[i].ok) continue;
      const api::ExperimentResult& r = ref.points[i].result;
      const api::ExperimentConfig cfg = def.config(t);
      if (cfg.scheme == api::Scheme::kDomino) {
        {
          e2e::Scoped s(tr, "replay.domino.plan");
          const std::size_t batches = std::clamp<std::size_t>(
              static_cast<std::size_t>(r.domino_batches), 20, 1000);
          const auto us = replay_domino_plan(t, cfg, *graph, batches, rng);
          out.plan_us.insert(out.plan_us.end(), us.begin(), us.end());
        }
        {
          e2e::Scoped s(tr, "replay.rop.plan");
          const std::size_t rounds = std::clamp<std::size_t>(
              static_cast<std::size_t>(r.domino_batches), 20, 1000);
          const auto us = replay_rop_plan(t, cfg.rop, rounds, rng);
          out.rop_plan_us.insert(out.rop_plan_us.end(), us.begin(), us.end());
        }
      }
      e2e::Scoped s(tr, "replay.api.codec");
      for (int rep = 0; rep < 20; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const std::string bytes = api::serialize_result(r);
        const Clock::time_point t1 = Clock::now();
        const api::ExperimentResult back =
            api::deserialize_result(api::parse_json(bytes));
        const Clock::time_point t2 = Clock::now();
        out.serialize_us.push_back(seconds_between(t0, t1) * 1e6);
        out.parse_us.push_back(seconds_between(t1, t2) * 1e6);
        if (back.links.size() != r.links.size()) {
          throw std::runtime_error("codec replay lost links");
        }
      }
    }
  }
  return out;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("%-34s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + api::json_quote(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + api::json_quote(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

template <typename F>
double median_over(const std::vector<PassRun>& passes, F f) {
  std::vector<double> v;
  for (const PassRun& p : passes) v.push_back(f(p));
  return median(v);
}

double domino_gain(const Workload& w, const PassRun& pass) {
  if (w.gain_pairs.empty()) return 1.0;  // no DOMINO point: no DOMINO effect
  std::vector<double> gains;
  for (const auto& [dcf, dom] : w.gain_pairs) {
    if (!pass.points[dcf].ok || !pass.points[dom].ok) continue;
    gains.push_back(pass.points[dom].result.aggregate_throughput_bps /
                    pass.points[dcf].result.aggregate_throughput_bps);
  }
  return median(gains);
}

double mean_goodput_mbps(const PassRun& pass) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const PointRun& p : pass.points) {
    if (!p.ok) continue;
    sum += p.result.throughput_mbps();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_file = "e2e_trace.json";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "campus|fig14|floorplan_churn --seed N --seconds S "
               "--trace 0|1 [--shape full|tiny] [--trace-file PATH]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else if (key == "--shape") {
      if (val != "full" && val != "tiny") usage("--shape takes full or tiny");
      o.tiny = val == "tiny";
    } else if (key == "--trace-file") {
      o.trace_file = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  Workload w;
  if (opt.workload == "campus") {
    w = make_campus(opt.seed, opt.tiny);
  } else if (opt.workload == "fig14") {
    w = make_fig14(opt.seed, opt.tiny);
  } else if (opt.workload == "floorplan_churn") {
    w = make_floorplan_churn(opt.seed, opt.tiny);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  std::printf("e2e_bench: workload=%s seed=%llu seconds=%g trace=%d shape=%s "
              "points=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full",
              w.points.size());

  std::size_t attempted = 0;
  std::size_t failed = 0;
  e2e::Tracer off(false);
  e2e::Tracer on(true);
  std::vector<PassRun> untraced;
  std::vector<PassRun> traced;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  auto record = [&](PassRun pass, bool is_traced) {
    const PassRun* ref = untraced.empty() ? nullptr : &untraced.front();
    attempted += pass.points.size();
    failed += check_pass(w, pass, ref, is_traced ? "traced" : "untraced");
    std::printf("pass %zu%s: wall %.4fs setup %.4fs loop %.4fs collect "
                "%.4fs probe %.4fs x%zu\n",
                untraced.size() + traced.size() + 1,
                is_traced ? " (traced)" : "", pass.wall_s, pass.setup_s(),
                pass.loop_s(), pass.collect_s(), median(pass.probes),
                pass.probes.size());
    (is_traced ? traced : untraced).push_back(std::move(pass));
  };

  // Untraced passes (interleaved with traced ones under --trace 1) until
  // the time is up; at least three untraced passes, and under --trace 1 at
  // least one traced pass.
  while (untraced.size() < 3 || elapsed() < opt.seconds ||
         (opt.trace && traced.empty())) {
    const bool trace_now = opt.trace && traced.size() < untraced.size();
    PassRun pass = run_pass(w, trace_now ? on : off, audit::AuditMode::kOff);
    record(std::move(pass), trace_now);
  }

  const PassRun& ref = untraced.front();
  std::printf("%-16s %10s %10s %10s %12s %10s\n", "point (pass 1)", "setup_s",
              "loop_s", "collect_s", "events", "Mbps");
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    const PointRun& p = ref.points[i];
    std::printf("%-16s %10.4f %10.4f %10.4f %12llu %10.3f\n",
                w.points[i].label.c_str(),
                p.topo_build_s + p.construct_s + p.result.wall_setup_seconds,
                p.result.wall_run_seconds,
                p.run_wall_s - p.result.wall_setup_seconds -
                    p.result.wall_run_seconds + p.serialize_s,
                static_cast<unsigned long long>(p.result.events_executed),
                p.result.throughput_mbps());
  }
  std::vector<Metric> m;
  if (!opt.trace) {
    m.push_back({"wall_s", median_over(untraced, [](const PassRun& p) {
                   return p.wall_s * p.scale();
                 }), "s"});
    m.push_back({"setup_s", median_over(untraced, [](const PassRun& p) {
                   return p.setup_s() * p.scale();
                 }), "s"});
    m.push_back({"loop_s", median_over(untraced, [](const PassRun& p) {
                   return p.loop_s() * p.scale();
                 }), "s"});
    m.push_back({"collect_s", median_over(untraced, [](const PassRun& p) {
                   return p.collect_s() * p.scale();
                 }), "s"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    m.push_back({"goodput_mbps", mean_goodput_mbps(ref), "Mbps"});
    m.push_back({"domino_gain", domino_gain(w, ref), "ratio"});
    print_result(failed == 0, attempted, failed, m);
    return 0;
  }

  // ---- traced run: replays, audited pass, per-layer metrics ---------------
  Replay rp;
  try {
    rp = run_replays(w, ref, opt.seed, opt.tiny, on);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: replay failed: %s\n", e.what());
    ++failed;
  }
  ++attempted;

  PassRun audited = run_pass(w, off, audit::AuditMode::kRecord);
  attempted += audited.points.size();
  failed += check_pass(w, audited, &ref, "audited");
  double audit_checks = 0.0;
  double audit_violations = 0.0;
  for (std::size_t i = 0; i < audited.points.size(); ++i) {
    const auto& report = audited.points[i].result.audit;
    if (report == nullptr) continue;
    audit_checks += static_cast<double>(report->checks_run);
    audit_violations += static_cast<double>(report->total_violations);
    if (!report->violation_free()) {
      std::fprintf(stderr, "e2e_bench: audited %s: %s\n",
                   w.points[i].label.c_str(), report->summary().c_str());
    }
  }

  std::uint64_t events = 0, windows = 0, ack_timeouts = 0, drops = 0,
                rebuilds = 0, batches = 0, self_starts = 0, rows = 0,
                poll_rounds = 0, poll_symbols = 0;
  double barrier_s = 0.0;
  std::vector<double> staleness;
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    const api::ExperimentResult& r = ref.points[i].result;
    events += r.events_executed;
    windows += r.sim_windows;
    ack_timeouts += r.ack_timeouts;
    drops += r.mac_drops;
    rebuilds += r.lifecycle_joins + r.lifecycle_leaves + r.lifecycle_roams;
    batches += r.domino_batches;
    self_starts += r.domino_self_starts;
    rows += r.domino_rows_executed;
    poll_rounds += r.domino_poll_rounds;
    poll_symbols += r.domino_poll_symbols;
    if (ref.points[i].scheme == api::Scheme::kDomino) {
      staleness.push_back(r.domino_poll_staleness_rounds);
    }
  }
  for (const PassRun& p : traced) {
    for (const PointRun& pr : p.points) barrier_s += pr.result.sim_barrier_seconds;
  }
  barrier_s /= static_cast<double>(traced.size());

  const double wall_untraced = median_over(
      untraced, [](const PassRun& p) { return p.wall_s * p.scale(); });
  const double wall_traced = median_over(
      traced, [](const PassRun& p) { return p.wall_s * p.scale(); });
  const double wall_traced_raw =
      median_over(traced, [](const PassRun& p) { return p.wall_s; });
  const double loop_traced =
      median_over(traced, [](const PassRun& p) { return p.loop_s(); });

  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m.push_back({"topo.build_s", median_over(traced, [](const PassRun& p) {
                 return p.topo_build_s();
               }), "s"});
  m.push_back({"topo.build_rss_mb", g_build_rss_mb.value_or(0.0), "MB"});
  m.push_back({"topo.links", median(rp.links), "count"});
  m.push_back({"topo.graph_build_s", median(rp.graph_build_s), "s"});
  m.push_back({"topo.graph_rebuilds", count(rebuilds), "count"});
  m.push_back({"topo.census_s", median(rp.census_s), "s"});
  m.push_back({"topo.partition_s", median(rp.partition_s), "s"});
  m.push_back({"sim.events", count(events), "count"});
  m.push_back({"sim.ns_per_event",
               events == 0 ? 0.0 : loop_traced * 1e9 / count(events), "ns"});
  m.push_back({"sim.windows", count(windows), "count"});
  m.push_back({"sim.barrier_s", barrier_s, "s"});
  m.push_back({"phy.tx_us", median(rp.tx_us), "us"});
  m.push_back({"phy.tx_us_part", median(rp.tx_us_part), "us"});
  m.push_back({"mac.ack_timeouts", count(ack_timeouts), "count"});
  m.push_back({"mac.drops", count(drops), "count"});
  m.push_back({"domino.plan_us_p50", percentile(rp.plan_us, 0.5), "us"});
  m.push_back({"domino.plan_us_p99", percentile(rp.plan_us, 0.99), "us"});
  m.push_back({"domino.plan_samples", static_cast<double>(rp.plan_us.size()),
               "count"});
  m.push_back({"domino.batches", count(batches), "count"});
  m.push_back({"domino.self_start_ratio",
               rows == 0 ? 0.0 : count(self_starts) / count(rows), "ratio"});
  m.push_back({"rop.plan_us", median(rp.rop_plan_us), "us"});
  m.push_back({"rop.symbols_per_round",
               poll_rounds == 0 ? 0.0 : count(poll_symbols) / count(poll_rounds),
               "symbols"});
  m.push_back({"rop.staleness_rounds", median(staleness), "rounds"});
  m.push_back({"api.serialize_us", median(rp.serialize_us), "us"});
  m.push_back({"api.parse_us", median(rp.parse_us), "us"});
  m.push_back({"audit.checks", audit_checks, "count"});
  m.push_back({"audit.violations", audit_violations, "count"});
  m.push_back({"machine.probe_ms",
               1e3 * median_over(untraced,
                                 [](const PassRun& p) {
                                   return median(p.probes);
                                 }),
               "ms"});
  m.push_back({"trace.overhead_s", wall_traced - wall_untraced, "s"});
  m.push_back({"trace.overhead_pct",
               100.0 * (wall_traced - wall_untraced) / wall_untraced, "%"});

  // Self time per span, median over traced passes (one "workload" root
  // each), and its share of the traced wall_s.
  const std::vector<std::string> span_names = {
      "workload",     "point",    "topo.build", "api.construct",
      "api.run",      "run.setup", "run.loop",  "run.collect",
      "api.teardown", "api.serialize"};
  std::map<std::string, std::vector<double>> self;
  std::printf("%-26s %12s %9s\n", "span", "self_s", "share");
  for (const auto& root : on.self_seconds_by_root()) {
    if (root.root == "workload") {
      for (const std::string& n : span_names) {
        const auto it = root.self_s.find(n);
        self[n].push_back(it == root.self_s.end() ? 0.0 : it->second);
      }
      continue;
    }
    for (const auto& [name, s] : root.self_s) {
      std::printf("%-26s %12.6f   (replay, outside wall_s)\n", name.c_str(),
                  s);
    }
  }
  for (const std::string& n : span_names) {
    const double s = median(self[n]);
    std::printf("%-26s %12.6f %8.2f%%\n", n.c_str(), s,
                100.0 * s / wall_traced_raw);
    m.push_back({"span." + n + ".self_s", s, "s"});
    m.push_back({"span." + n + ".share", s / wall_traced_raw, "ratio"});
  }
  std::printf("tracing overhead: traced wall %.4fs vs untraced %.4fs in "
              "reference seconds (%+.4fs, %+.2f%%; %zu traced / %zu "
              "untraced passes)\n",
              wall_traced, wall_untraced, wall_traced - wall_untraced,
              100.0 * (wall_traced - wall_untraced) / wall_untraced,
              traced.size(), untraced.size());
  std::printf("domino planning samples: %zu batches; audited pass: %.0f "
              "checks, %.0f violations\n",
              rp.plan_us.size(), audit_checks, audit_violations);
  if (on.write_chrome_json(opt.trace_file)) {
    std::printf("trace: %s (%zu spans)\n", opt.trace_file.c_str(),
                on.spans().size());
  } else {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                 opt.trace_file.c_str());
    ++failed;
  }
  print_result(failed == 0, attempted, failed, m);
  return 0;
}
