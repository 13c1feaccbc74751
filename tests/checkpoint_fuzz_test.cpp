// Robustness of the checkpoint codec against untrusted input: a seeded
// mutation harness (the toolchain has no libFuzzer) plus the explicit
// malformed inputs it is built around. A resumed sweep reads checkpoint
// lines it did not write in this process, so parse_json and the
// deserializers must either succeed or throw std::runtime_error on any
// byte string, never crash or throw anything else. The sanitizer CI job
// runs this suite under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace dmn::api {
namespace {

bool parses(const std::string& text) {
  try {
    parse_json(text);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

// ---- explicit malformed inputs ---------------------------------------------

TEST(CheckpointParser, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  EXPECT_FALSE(parses(std::string(200000, '[')));
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"k\":";
  EXPECT_FALSE(parses(objects));
  // The cap leaves ample room for real records (a result nests 4 deep).
  EXPECT_TRUE(parses(std::string(64, '[') + std::string(64, ']')));
  EXPECT_FALSE(parses(std::string(65, '[') + std::string(65, ']')));
}

TEST(CheckpointParser, RejectsNumberTokensStrtodDoesNotConsume) {
  for (const char* bad : {"-", "1.2.3", "1e", "--5", "+-+", "1-", "e5"}) {
    EXPECT_FALSE(parses(bad)) << bad;
    EXPECT_FALSE(parses(std::string("[") + bad + "]")) << bad;
    EXPECT_FALSE(parses(std::string("{\"n\":") + bad + "}")) << bad;
  }
  const JsonValue v = parse_json("[inf,-inf,nan,-nan,1e-3,-0,17]");
  ASSERT_EQ(v.array.size(), 7u);
  EXPECT_EQ(v.array[0].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.array[1].number, -std::numeric_limits<double>::infinity());
  EXPECT_NE(v.array[2].number, v.array[2].number);
  EXPECT_NE(v.array[3].number, v.array[3].number);
  EXPECT_EQ(v.array[4].number, 1e-3);
  EXPECT_EQ(v.array[6].text, "17");
}

TEST(CheckpointParser, RejectsNonHexUnicodeEscapes) {
  for (const char* bad : {R"("\u00zz")", R"("\u12")", R"("\u-123")",
                          R"("\u+123")", R"("\u 123")"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
  EXPECT_EQ(parse_json(R"("\u0041\u001f")").text, "A\x1f");
}

TEST(CheckpointParser, IntegerFieldsFallBackOnNonIntegers) {
  // The table reader takes an integer field only from a number whose text
  // is an integer the field can hold; anything else keeps the default.
  const auto outcome = [](const std::string& events, const std::string& t) {
    return deserialize_outcome(parse_json(R"({"events_executed":)" + events +
                                          R"(,"sim_time_ns":)" + t + "}"));
  };
  for (const char* bad : {"-1", "1.5", "1e3", "18446744073709551616", "inf",
                          R"("7")"}) {
    EXPECT_EQ(outcome(bad, "0").events_executed, 0u) << bad;
  }
  for (const char* bad : {"1.5", "1e3", "9223372036854775808", "inf",
                          R"("7")"}) {
    EXPECT_EQ(outcome("0", bad).sim_time_ns, 0) << bad;
  }
  const PointOutcome extremes =
      outcome("18446744073709551615", "-9223372036854775808");
  EXPECT_EQ(extremes.events_executed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(extremes.sim_time_ns, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(outcome("0", "-1").sim_time_ns, -1);

  // A manifest's num_points read from the same tokens keeps its default, so
  // the checkpoint does not match a sweep of 1000 points; u64 hashes
  // round-trip exactly.
  const std::string path = "checkpoint_fuzz_test_ints.jsonl";
  CheckpointManifest expected;
  expected.sweep_hash = std::numeric_limits<std::uint64_t>::max();
  expected.num_points = 1000;
  expected.fingerprint = runner_fingerprint();
  const std::string tail =
      R"(,"fingerprint":)" + json_quote(expected.fingerprint) + "}\n";
  for (const char* bad : {"-1", "1.5", "1e3", "18446744073709551616", "inf"}) {
    atomic_write_file(path, R"({"sweep_hash":18446744073709551615,)"
                            R"("num_points":)" + std::string(bad) + tail);
    EXPECT_FALSE(load_checkpoint(path, expected).compatible) << bad;
  }
  atomic_write_file(path, serialize_manifest(expected) + "\n");
  EXPECT_TRUE(load_checkpoint(path, expected).compatible);
  std::remove(path.c_str());
}

TEST(CheckpointParser, ResultIntegersOutOfRangeKeepTheirDefaults) {
  const ExperimentResult r = deserialize_result(parse_json(
      R"({"ack_timeouts":-1,"mac_drops":1.5,"census_total":7,)"
      R"("ap_health":[{"ap":4294967296,"self_starts":3}]})"));
  EXPECT_EQ(r.ack_timeouts, 0u);
  EXPECT_EQ(r.mac_drops, 0u);
  EXPECT_EQ(r.census.total, 7u);
  ASSERT_EQ(r.ap_chain_health.size(), 1u);
  EXPECT_EQ(r.ap_chain_health[0].ap, topo::kNoNode);
  EXPECT_EQ(r.ap_chain_health[0].self_starts, 3u);
}

// ---- seeded mutation harness -----------------------------------------------

topo::Topology two_cells() {
  topo::ManualTopologyBuilder b;
  const auto a0 = b.add_ap();
  const auto a1 = b.add_ap();
  b.add_client(a0);
  b.add_client(a1);
  b.sense(a0, a1);
  return b.build();
}

/// Serialized outcomes and checkpoint records of a small DCF run and a
/// small faulted DOMINO run (non-empty recovery and per-AP arrays).
std::vector<std::string> corpus() {
  std::vector<std::string> out;
  for (const Scheme s : {Scheme::kDcf, Scheme::kDomino}) {
    ExperimentConfig cfg;
    cfg.scheme = s;
    cfg.duration = msec(100);
    cfg.traffic.saturate_downlink = true;
    cfg.traffic.uplink_bps = 1e6;
    cfg.faults.backbone.drop_rate = 0.05;
    cfg.faults.signature.false_negative_rate = 0.02;
    PointOutcome o;
    o.status = PointStatus::kOk;
    o.result = run_experiment(two_cells(), cfg);
    out.push_back(serialize_outcome(o));
    out.push_back(serialize_record({3, 0xfeedfacecafebeefull, o}));
  }
  return out;
}

/// One random mutation of `s`: a byte flip, a truncation, or a splice of
/// deep nesting.
std::string mutate(const std::string& s, Rng& rng) {
  std::string m = s;
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  static const std::string kSyntax = "{}[]\",:-+.eE0123456789infaul\\ ";
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // one to four byte flips, biased toward JSON syntax
      for (int k = static_cast<int>(rng.uniform_int(1, 4)); k > 0; --k) {
        if (m.empty()) break;
        const std::size_t at = pos(m.size() - 1);
        m[at] = rng.chance(0.5)
                    ? kSyntax[pos(kSyntax.size() - 1)]
                    : static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    }
    case 1:  // truncation
      m.resize(pos(m.size()));
      break;
    case 2: {  // deep nesting spliced in, around the depth cap or far past it
      static const std::size_t kDepths[] = {63, 64, 65, 1000, 100000};
      const std::size_t depth = kDepths[pos(4)];
      const std::string open = rng.chance(0.5) ? "[" : "{\"k\":";
      std::string nest;
      nest.reserve(depth * open.size());
      for (std::size_t i = 0; i < depth; ++i) nest += open;
      m.insert(pos(m.size()), nest);
      break;
    }
    default: {  // a chunk deleted or duplicated
      const std::size_t a = pos(m.size());
      const std::size_t len = pos(std::min<std::size_t>(64, m.size() - a));
      if (rng.chance(0.5)) {
        m.erase(a, len);
      } else {
        m.insert(a, m.substr(a, len));
      }
      break;
    }
  }
  return m;
}

/// Drives `text` through the read path a resume takes. Returns whether it
/// parsed; anything thrown other than std::runtime_error fails the test.
bool read_back(const std::string& text) {
  try {
    const JsonValue v = parse_json(text);
    const JsonValue* o = v.find("outcome");
    const PointOutcome back = deserialize_outcome(o != nullptr ? *o : v);
    serialize_outcome(back);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (...) {
    ADD_FAILURE() << "non-runtime_error exception on input of "
                  << text.size() << " bytes: " << text.substr(0, 120);
    return false;
  }
}

TEST(CheckpointFuzz, MutatedRecordsParseOrThrowRuntimeError) {
  const std::vector<std::string> seeds = corpus();
  for (const std::string& s : seeds) ASSERT_TRUE(read_back(s)) << s;

  Rng rng(0xd0d0);
  std::size_t ok = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string& seed = seeds[static_cast<std::size_t>(i) % seeds.size()];
    if (read_back(mutate(seed, rng))) {
      ++ok;
    } else {
      ++rejected;
    }
  }
  // Both paths must be exercised for the harness to mean anything.
  EXPECT_GT(ok, 100u);
  EXPECT_GT(rejected, 100u);
}

/// Whether the first non-empty line of `file` still carries `m`'s sweep
/// hash, point count and fingerprint, read without the table reader.
bool names_manifest(const std::string& file, const CheckpointManifest& m) {
  const std::size_t start = file.find_first_not_of('\n');
  if (start == std::string::npos) return false;
  try {
    const JsonValue v =
        parse_json(file.substr(start, file.find('\n', start) - start));
    const JsonValue* hash = v.find("sweep_hash");
    const JsonValue* n = v.find("num_points");
    const JsonValue* fp = v.find("fingerprint");
    return hash != nullptr && n != nullptr && fp != nullptr &&
           hash->number == static_cast<double>(m.sweep_hash) &&
           n->number == static_cast<double>(m.num_points) &&
           fp->text == m.fingerprint;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(CheckpointFuzz, LoadCheckpointSurvivesMutatedFiles) {
  // Lines carry no type tag: the first is read as the manifest, every
  // later one as a record. So the body also mixes in a manifest line, and
  // the manifest line itself is mutated: no file restores more records
  // than it has, and one whose first line no longer names this sweep
  // restores none.
  const std::vector<std::string> seeds = corpus();
  CheckpointManifest manifest;
  manifest.sweep_hash = 0x1234;
  manifest.num_points = 8;
  manifest.fingerprint = runner_fingerprint();
  const std::string head = serialize_manifest(manifest) + "\n";
  const std::string path = "checkpoint_fuzz_test.jsonl";

  Rng rng(0xc0c0);
  std::size_t restored = 0;
  std::size_t foreign = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string& record = seeds[1 + 2 * static_cast<std::size_t>(i % 2)];
    const std::string body =
        mutate(rng.chance(0.5) ? record + "\n" + head + record + "\n"
                               : record + "\n" + record + "\n",
               rng);
    const std::string file =
        (rng.chance(0.3) ? mutate(head, rng) : head) + body;
    atomic_write_file(path, file);
    const LoadedCheckpoint loaded = load_checkpoint(path, manifest);
    EXPECT_LE(loaded.records.size(), 2u);
    restored += loaded.records.empty() ? 0 : 1;
    if (!names_manifest(file, manifest)) {
      ++foreign;
      EXPECT_TRUE(loaded.records.empty()) << file.substr(0, 120);
    }
  }
  // Both paths must be exercised for the harness to mean anything.
  EXPECT_GT(restored, 50u);
  EXPECT_GT(foreign, 20u);
  // A file whose first line is a record restores nothing.
  atomic_write_file(path, seeds[1] + "\n" + head + seeds[3] + "\n");
  EXPECT_FALSE(load_checkpoint(path, manifest).compatible);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmn::api
