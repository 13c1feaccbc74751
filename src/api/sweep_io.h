#pragma once
// Serialization layer behind the crash-safe sweep runner (docs/RUNNER.md):
//
//  * an exact-round-trip JSON encoding of ExperimentResult / PointOutcome
//    (doubles printed with %.17g, so serialize(deserialize(s)) == s byte
//    for byte — the property the checkpoint/resume byte-identity guarantee
//    rests on);
//  * a minimal JSON parser for reading checkpoint records back;
//  * canonical FNV-1a hashing of sweep points (topology + full config) so a
//    resumed run can prove each restored record still matches the point it
//    claims to be, and of whole sweep definitions for the run manifest;
//  * the checkpoint file itself: JSONL, first line a manifest, then one
//    self-contained record per completed point, rewritten atomically
//    (write temp + rename) so a killed process always leaves a readable,
//    consistent file.
//
// One codec serves all of it: the field tables (visit_fields in
// api/metrics.h, api/experiment.h, api/sweep.h and below) decide what
// serializes, `result` fields in table order, never `telemetry`. The
// timeline and audit report sit outside the tables, so a restored result
// has neither, and audit-on results serialize like audit-off ones. The
// point hash reads the same bytes of the config, so it ignores the passive
// ExperimentConfig::audit.mode but covers audit.mutation: a mutant changes
// results.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/sweep.h"

namespace dmn::api {

// ---- minimal JSON value + parser -------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;

  bool boolean = false;
  double number = 0.0;
  /// Numbers keep their source text too, so integer fields round-trip
  /// exactly even beyond 2^53.
  std::string text;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses one JSON document. Throws std::runtime_error on malformed input,
/// which includes nesting deeper than 64 arrays/objects, number tokens
/// strtod does not consume in full, and \u escapes that are not four hex
/// digits. Accepts the non-standard number tokens inf/-inf/nan that %.17g
/// emits.
JsonValue parse_json(std::string_view text);

/// Escapes and quotes `s` as a JSON string literal.
std::string json_quote(const std::string& s);

/// Number formatting used everywhere in this layer: %.17g round-trips every
/// finite double exactly through strtod.
std::string json_double(double v);

// ---- result / outcome serialization ----------------------------------------

/// Compact single-line JSON object of the `result`-class fields, keys in
/// field-table order, so equal values serialize to equal bytes. Reading
/// keeps a field's default when its key is absent, mistyped or out of
/// range: an integer field takes only a number whose text is an integer it
/// can hold (no fraction, exponent or stray sign), so 64-bit hashes
/// round-trip exactly.
std::string serialize_result(const ExperimentResult& r);
ExperimentResult deserialize_result(const JsonValue& v);

/// The durable part of an outcome (status, error context, timeout
/// progress, result); see its field table in api/sweep.h.
std::string serialize_outcome(const PointOutcome& o);
PointOutcome deserialize_outcome(const JsonValue& v);

/// One line per outcome, in point order — the canonical "merged output"
/// the resume byte-identity guarantee is stated over.
std::string serialize_report(const SweepReport& report);

// ---- point / sweep hashing -------------------------------------------------

/// Canonical FNV-1a 64 hash over the point's full semantic content:
/// topology (nodes, associations, RSS matrix, thresholds), then the
/// serialized `result` fields of the ExperimentConfig table
/// (api/experiment.h), which include the seed, the fault plan and the
/// audit mutation. Labels (display-only), the passive recorders
/// (audit.mode, record_timeline) and the thread count are excluded.
std::uint64_t hash_point(const SweepPoint& p);

/// Order-sensitive combination of all point hashes + the point count: the
/// sweep-definition hash stored in the run manifest.
std::uint64_t hash_sweep(const std::vector<SweepPoint>& points);

/// Manifest fingerprint tying a checkpoint to a compatible runner: the
/// checkpoint format version plus the compiler that built the binary (a
/// result produced by a different build is not trusted for resume).
std::string runner_fingerprint();

// ---- checkpoint file -------------------------------------------------------

// The file's first line is the manifest, every later line one record.

struct CheckpointManifest {
  std::uint64_t sweep_hash = 0;
  std::size_t num_points = 0;
  std::string fingerprint;
  std::string sweep_name;
};

template <MaybeConst<CheckpointManifest> M, typename Visit>
void visit_fields(M& m, Visit&& visit) {
  using enum MetricClass;
  visit("sweep_hash", kResult, m.sweep_hash);
  visit("num_points", kResult, m.num_points);
  visit("fingerprint", kResult, m.fingerprint);
  visit("sweep_name", kResult, m.sweep_name);
}

std::string serialize_manifest(const CheckpointManifest& m);

/// A restored record: which point it is, the point hash recorded at write
/// time (revalidated against the live sweep on resume), and the outcome.
struct CheckpointRecord {
  std::size_t index = 0;
  std::uint64_t point_hash = 0;
  PointOutcome outcome;
};

template <MaybeConst<CheckpointRecord> R, typename Visit>
void visit_fields(R& r, Visit&& visit) {
  using enum MetricClass;
  visit("index", kResult, r.index);
  visit("point_hash", kResult, r.point_hash);
  visit("outcome", kResult, r.outcome);
}

std::string serialize_record(const CheckpointRecord& r);

struct LoadedCheckpoint {
  bool compatible = false;  // manifest matched the live sweep + runner
  /// Valid records by point index (only when compatible).
  std::unordered_map<std::size_t, CheckpointRecord> records;
};

/// Loads and validates a checkpoint against the expected manifest. Never
/// throws: a missing file, unreadable line or mismatched manifest degrades
/// to "nothing to restore" (with a warning on stderr for mismatches —
/// silently recomputing is safe; silently reusing stale results is not).
/// Only `ok` outcomes are ever persisted, so a record of any other status
/// is not restored.
LoadedCheckpoint load_checkpoint(const std::string& path,
                                 const CheckpointManifest& expected);

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, flush + fsync, then rename. Throws std::runtime_error on I/O
/// failure (checkpointing that silently stops persisting is worse than a
/// loud abort of the sweep).
void atomic_write_file(const std::string& path, const std::string& contents);

}  // namespace dmn::api
