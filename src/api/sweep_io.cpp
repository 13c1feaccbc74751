#include "api/sweep_io.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace dmn::api {

// ---- JSON writing ----------------------------------------------------------

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

/// Appends without a temporary string (%.17g needs at most 24 chars).
void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, static_cast<std::size_t>(
                      std::snprintf(buf, sizeof(buf), "%.17g", v)));
}

std::string hex_u64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

/// Overwrites `out` when all of `text` spells an integer T can hold; leaves
/// it alone for a fraction, an exponent, a sign T cannot take, or a value
/// out of range.
template <typename T>
void read_int(const std::string& text, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc() && ptr == end) out = v;
}

}  // namespace

std::string json_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

// ---- JSON parsing ----------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t JsonValue::u64_or(std::string_view key,
                                std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  if (v != nullptr && v->type == Type::kNumber) read_int(v->text, fallback);
  return fallback;
}

std::int64_t JsonValue::i64_or(std::string_view key,
                               std::int64_t fallback) const {
  const JsonValue* v = find(key);
  if (v != nullptr && v->type == Type::kNumber) read_int(v->text, fallback);
  return fallback;
}

std::string JsonValue::str_or(std::string_view key,
                              const std::string& fb) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->type == Type::kString ? v->text : fb;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Untrusted input must not be able to exhaust the stack.
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        return parse_number();  // nan
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key.text), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.text += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.text += '"'; break;
        case '\\': v.text += '\\'; break;
        case '/': v.text += '/'; break;
        case 'n': v.text += '\n'; break;
        case 'r': v.text += '\r'; break;
        case 't': v.text += '\t'; break;
        case 'b': v.text += '\b'; break;
        case 'f': v.text += '\f'; break;
        case 'u': {
          unsigned cp = 0;
          const char* hex = text_.data() + pos_;
          if (pos_ + 4 > text_.size() ||
              std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
            fail("bad \\u escape");
          }
          pos_ += 4;
          // Checkpoint strings only ever contain control characters via
          // \u00xx (see json_quote); anything wider is not produced.
          v.text += static_cast<char>(cp & 0xff);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (consume_literal("true")) {
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) return v;
    fail("bad literal");
  }

  /// The token is text_[start, pos_); strtod must consume all of it.
  JsonValue make_number(std::size_t start) {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size()) fail("bad number");
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    // Non-standard tokens %.17g can emit.
    if (consume_literal("inf") || consume_literal("nan")) {
      return make_number(start);
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected number");
    return make_number(start);
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

// ---- result serialization --------------------------------------------------
//
// One codec for ExperimentResult and its LinkResult / ApChainHealth rows:
// it walks the field tables in api/metrics.h over `result`-class fields
// only. Writing appends into one string (table keys need no escaping);
// reading keeps a field's default when its key is absent, mistyped or out
// of range.

namespace {

/// Streaming writer for fixed-order JSON objects.
class ObjWriter {
 public:
  template <typename Int>
  void num(const char* k, Int v) { field(k, std::to_string(v)); }
  void str(const char* k, const std::string& v) { field(k, json_quote(v)); }
  void raw(const char* k, const std::string& v) { field(k, v); }

  std::string close() { return out_ + "}"; }

 private:
  void field(const char* k, const std::string& v) {
    out_ += first_ ? "{" : ",";
    first_ = false;
    out_ += json_quote(k);
    out_ += ":";
    out_ += v;
  }
  std::string out_;
  bool first_ = true;
};

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
void write_value(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else if constexpr (std::is_floating_point_v<T>) {
    append_double(out, v);
  } else if constexpr (kIsVector<T>) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      write_value(out, v[i]);
    }
    out += ']';
  } else {
    char sep = '{';
    visit_fields(v, [&](const char* key, MetricClass cls, const auto& f) {
      if (cls != MetricClass::kResult) return;
      out += sep;
      sep = ',';
      out += '"';
      out += key;
      out += "\":";
      write_value(out, f);
    });
    out += '}';
  }
}

template <typename T>
void read_value(const JsonValue& j, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    if (j.type == JsonValue::Type::kBool) v = j.boolean;
  } else if constexpr (std::is_integral_v<T>) {
    if (j.type == JsonValue::Type::kNumber) read_int(j.text, v);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (j.type == JsonValue::Type::kNumber) v = j.number;
  } else if constexpr (kIsVector<T>) {
    for (const JsonValue& e : j.array) read_value(e, v.emplace_back());
  } else {
    visit_fields(v, [&](const char* key, MetricClass cls, auto& f) {
      if (cls != MetricClass::kResult) return;
      if (const JsonValue* m = j.find(key)) read_value(*m, f);
    });
  }
}

}  // namespace

std::string serialize_result(const ExperimentResult& r) {
  std::string out;
  write_value(out, r);
  return out;
}

ExperimentResult deserialize_result(const JsonValue& v) {
  ExperimentResult r;
  read_value(v, r);
  return r;
}

std::string serialize_outcome(const PointOutcome& o) {
  ObjWriter w;
  w.str("status", to_string(o.status));
  w.str("error_type", o.error_type);
  w.str("error_message", o.error_message);
  w.num("sim_time_ns", o.sim_time_ns);
  w.num("events_executed", o.events_executed);
  w.raw("result", serialize_result(o.result));
  return w.close();
}

PointOutcome deserialize_outcome(const JsonValue& v) {
  PointOutcome o;
  const std::string status = v.str_or("status", "skipped");
  if (status == "ok") {
    o.status = PointStatus::kOk;
  } else if (status == "error") {
    o.status = PointStatus::kError;
  } else if (status == "timed_out") {
    o.status = PointStatus::kTimedOut;
  } else {
    o.status = PointStatus::kSkipped;
  }
  o.error_type = v.str_or("error_type", "");
  o.error_message = v.str_or("error_message", "");
  o.sim_time_ns = v.i64_or("sim_time_ns", 0);
  o.events_executed = v.u64_or("events_executed", 0);
  if (const JsonValue* r = v.find("result")) {
    o.result = deserialize_result(*r);
  }
  return o;
}

std::string serialize_report(const SweepReport& report) {
  std::string out;
  for (const PointOutcome& o : report.outcomes) {
    out += serialize_outcome(o);
    out += '\n';
  }
  return out;
}

// ---- hashing ---------------------------------------------------------------

namespace {

/// FNV-1a 64 over a canonical byte stream. Every field is fed through a
/// typed method, so struct padding and in-memory layout never leak into the
/// hash.
class Hasher {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void num(double v) {
    if (v == 0.0) v = 0.0;  // collapse -0.0 and +0.0
    bytes(&v, sizeof(v));
  }
  void boolean(bool v) { u64(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void window(const fault::TimeWindow& w) {
    i64(w.start);
    i64(w.duration);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void hash_topology(Hasher& h, const topo::Topology& t) {
  h.u64(t.num_nodes());
  for (const topo::Node& n : t.nodes()) {
    h.i64(n.id);
    h.boolean(n.is_ap);
    h.i64(n.ap);
    h.num(n.pos.x);
    h.num(n.pos.y);
  }
  const topo::PhyThresholds& th = t.thresholds();
  h.num(th.noise_floor_dbm);
  h.num(th.cs_threshold_dbm);
  h.num(th.sinr_data_db);
  h.num(th.sinr_control_db);
  h.num(th.min_rss_dbm);
  h.num(th.assoc_rss_dbm);
  const std::size_t n = t.num_nodes();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      h.num(t.rss(static_cast<topo::NodeId>(a),
                  static_cast<topo::NodeId>(b)));
    }
  }
}

void hash_config(Hasher& h, const ExperimentConfig& c) {
  h.str(to_string(c.scheme));
  h.u64(static_cast<std::uint64_t>(c.traffic.kind));
  h.num(c.traffic.downlink_bps);
  h.num(c.traffic.uplink_bps);
  h.boolean(c.traffic.saturate_downlink);
  h.boolean(c.traffic.saturate_uplink);
  h.u64(c.traffic.packet_bytes);
  h.u64(c.traffic.custom.size());
  for (const FlowSpec& f : c.traffic.custom) {
    h.i64(f.src);
    h.i64(f.dst);
    h.num(f.rate_bps);
    h.boolean(f.saturate);
  }
  h.i64(c.duration);
  h.u64(c.seed);

  h.num(c.wifi.data_rate_bps);
  h.u64(c.wifi.queue_capacity);

  h.i64(c.backbone.mean_latency);
  h.i64(c.backbone.sigma_latency);
  h.i64(c.backbone.min_latency);

  h.u64(c.domino.batch_slots);

  h.i64(c.converter.max_inbound);
  h.i64(c.converter.max_outbound);
  h.boolean(c.converter.insert_fake_links);

  for (const double p : c.sig_model.p_by_count) h.num(p);
  h.num(c.sig_model.beyond_decay);

  h.u64(c.rop.data_per_subchannel);
  h.u64(c.rop.guard_per_subchannel);
  h.u64(static_cast<std::uint64_t>(c.rop.poll_mode));
  h.u64(c.rop.max_poll_symbols);
  h.u64(c.rop.assign_seed);

  const fault::FaultPlan& f = c.faults;
  h.num(f.backbone.drop_rate);
  h.num(f.backbone.dup_rate);
  h.num(f.backbone.spike_rate);
  h.i64(f.backbone.spike_extra);
  h.u64(f.controller.outages.size());
  for (const fault::TimeWindow& w : f.controller.outages) h.window(w);
  h.num(f.interference.duty);
  h.i64(f.interference.period);
  h.num(f.interference.power_dbm);
  h.num(f.signature.false_negative_rate);
  h.num(f.signature.false_positive_rate);
  h.u64(f.signature.blackouts.size());
  for (const auto& b : f.signature.blackouts) {
    h.i64(b.node);
    h.window(b.window);
  }
  h.num(f.clock.max_skew_ppm);
  h.u64(f.ap_outages.size());
  for (const fault::ApOutage& o : f.ap_outages) {
    h.i64(o.ap);
    h.window(o.window);
  }

  // Dynamics plan: every knob that shapes the compiled lifecycle timeline.
  // A default-constructed plan contributes a fixed prefix (any()==false and
  // empty containers), and the runner fingerprint was bumped to v2 with its
  // introduction, so pre-dynamics checkpoints never mix with new ones.
  const topo::DynamicsPlan& d = c.dynamics;
  h.boolean(d.any());
  h.i64(d.epoch);
  h.u64(d.floorplan.num_nodes);
  h.num(d.floorplan.building_w);
  h.num(d.floorplan.building_h);
  h.num(d.floorplan.building_gap);
  h.num(d.floorplan.tx_power_dbm);
  h.num(d.floorplan.ref_loss_db);
  h.num(d.floorplan.exponent);
  h.num(d.floorplan.wall_db);
  h.num(d.floorplan.room_w);
  h.num(d.floorplan.room_h);
  h.num(d.floorplan.exterior_wall_db);
  h.num(d.floorplan.shadowing_sigma_db);
  h.i64(d.floorplan.max_interior_walls);
  h.u64(d.trajectories.size());
  for (const topo::MobilityTrajectory& t : d.trajectories) {
    h.i64(t.node);
    h.u64(t.waypoints.size());
    for (const topo::Waypoint& w2 : t.waypoints) {
      h.i64(w2.at);
      h.num(w2.pos.x);
      h.num(w2.pos.y);
    }
  }
  h.u64(d.membership.size());
  for (const topo::MembershipEvent& e : d.membership) {
    h.i64(e.at);
    h.i64(e.node);
    h.boolean(e.join);
  }
  h.num(d.churn_rate_hz);
  h.i64(d.churn_downtime);
  h.u64(d.churn_nodes.size());
  for (const topo::NodeId n2 : d.churn_nodes) h.i64(n2);
  h.boolean(d.roam.enabled);
  h.num(d.roam.hysteresis_db);
  h.i64(d.roam.min_dwell);

  // A mutant changes results; the audit mode only watches, so it stays out.
  h.u64(static_cast<std::uint64_t>(c.audit.mutation));
}

}  // namespace

std::uint64_t hash_point(const SweepPoint& p) {
  Hasher h;
  hash_topology(h, p.topology);
  hash_config(h, p.config);
  return h.value();
}

std::uint64_t hash_sweep(const std::vector<SweepPoint>& points) {
  Hasher h;
  h.u64(points.size());
  for (const SweepPoint& p : points) h.u64(hash_point(p));
  return h.value();
}

std::string runner_fingerprint() {
#if defined(__VERSION__)
  return std::string("dmn-sweep-v9 ") + __VERSION__;
#else
  return "dmn-sweep-v9 unknown-compiler";
#endif
}

// ---- checkpoint file -------------------------------------------------------

std::string serialize_manifest(const CheckpointManifest& m) {
  ObjWriter w;
  w.str("type", "manifest");
  w.str("sweep_hash", hex_u64(m.sweep_hash));
  w.num("num_points", m.num_points);
  w.str("fingerprint", m.fingerprint);
  w.str("sweep_name", m.sweep_name);
  return w.close();
}

std::string serialize_record(const CheckpointRecord& r) {
  ObjWriter w;
  w.str("type", "point");
  w.num("index", r.index);
  w.str("point_hash", hex_u64(r.point_hash));
  w.raw("outcome", serialize_outcome(r.outcome));
  return w.close();
}

LoadedCheckpoint load_checkpoint(const std::string& path,
                                 const CheckpointManifest& expected) {
  LoadedCheckpoint out;
  std::ifstream in(path);
  if (!in) return out;  // no checkpoint yet: fresh run

  std::string line;
  bool saw_manifest = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = parse_json(line);
    } catch (const std::exception&) {
      // A torn trailing line cannot happen with write-then-rename, but a
      // hand-edited or truncated file should still resume from its valid
      // prefix rather than abort the sweep.
      std::fprintf(stderr,
                   "sweep checkpoint %s: ignoring unreadable line\n",
                   path.c_str());
      break;
    }
    const std::string type = v.str_or("type", "");
    if (!saw_manifest) {
      if (type != "manifest") {
        std::fprintf(stderr,
                     "sweep checkpoint %s: missing manifest, starting "
                     "fresh\n",
                     path.c_str());
        return out;
      }
      saw_manifest = true;
      out.found = true;
      out.manifest.sweep_hash = parse_hex_u64(v.str_or("sweep_hash", "0"));
      out.manifest.num_points =
          static_cast<std::size_t>(v.u64_or("num_points", 0));
      out.manifest.fingerprint = v.str_or("fingerprint", "");
      out.manifest.sweep_name = v.str_or("sweep_name", "");
      if (out.manifest.sweep_hash != expected.sweep_hash ||
          out.manifest.num_points != expected.num_points ||
          out.manifest.fingerprint != expected.fingerprint) {
        std::fprintf(stderr,
                     "sweep checkpoint %s: manifest does not match this "
                     "sweep (different definition, point count or build); "
                     "recomputing all points\n",
                     path.c_str());
        return out;  // found, not compatible
      }
      out.compatible = true;
      continue;
    }
    if (type != "point") continue;
    CheckpointRecord rec;
    rec.index = static_cast<std::size_t>(v.u64_or("index", 0));
    rec.point_hash = parse_hex_u64(v.str_or("point_hash", "0"));
    if (const JsonValue* o = v.find("outcome")) {
      rec.outcome = deserialize_outcome(*o);
    }
    if (rec.index >= expected.num_points) continue;
    out.records[rec.index] = std::move(rec);
  }
  return out;
}

void atomic_write_file(const std::string& path,
                       const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("sweep checkpoint: cannot open " + tmp + ": " +
                             std::strerror(errno));
  }
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), f);
  bool ok = written == contents.size() && std::fflush(f) == 0;
#ifndef _WIN32
  ok = ok && fsync(fileno(f)) == 0;
#endif
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("sweep checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("sweep checkpoint: cannot rename " + tmp +
                             " to " + path + ": " + std::strerror(errno));
  }
}

}  // namespace dmn::api
