#include "api/sweep_io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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

// ---- the codec -------------------------------------------------------------
//
// One writer and one reader for every struct with a field table (results,
// outcomes, checkpoint lines, the config the point hash reads): they walk
// the table over `result`-class fields only. Writing appends into one
// string (table keys need no escaping); reading keeps a field's default
// when its key is absent, mistyped or out of range.

namespace {

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
  } else if constexpr (std::is_enum_v<T>) {
    write_value(out, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_floating_point_v<T>) {
    append_double(out, v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += json_quote(v);
  } else if constexpr (kIsVector<T> || std::is_array_v<T>) {
    out += '[';
    for (std::size_t i = 0; i < std::size(v); ++i) {
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
  } else if constexpr (std::is_enum_v<T>) {
    auto u = static_cast<std::underlying_type_t<T>>(v);
    read_value(j, u);
    v = static_cast<T>(u);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (j.type == JsonValue::Type::kNumber) v = j.number;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (j.type == JsonValue::Type::kString) v = j.text;
  } else if constexpr (kIsVector<T>) {
    for (const JsonValue& e : j.array) read_value(e, v.emplace_back());
  } else if constexpr (std::is_array_v<T>) {
    for (std::size_t i = 0; i < std::min(std::size(v), j.array.size()); ++i) {
      read_value(j.array[i], v[i]);
    }
  } else {
    visit_fields(v, [&](const char* key, MetricClass cls, auto& f) {
      if (cls != MetricClass::kResult) return;
      if (const JsonValue* m = j.find(key)) read_value(*m, f);
    });
  }
}

/// Serialized bytes without the append buffer's growth slack: callers keep
/// results (checkpoints, reports, benchmark passes) and should pay only
/// their size.
template <typename T>
std::string to_json(const T& v) {
  std::string out;
  write_value(out, v);
  out.shrink_to_fit();
  return out;
}

template <typename T>
T from_json(const JsonValue& j) {
  T v;
  read_value(j, v);
  return v;
}

}  // namespace

std::string serialize_result(const ExperimentResult& r) { return to_json(r); }

ExperimentResult deserialize_result(const JsonValue& v) {
  return from_json<ExperimentResult>(v);
}

std::string serialize_outcome(const PointOutcome& o) { return to_json(o); }

PointOutcome deserialize_outcome(const JsonValue& v) {
  return from_json<PointOutcome>(v);
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

}  // namespace

std::uint64_t hash_point(const SweepPoint& p) {
  Hasher h;
  hash_topology(h, p.topology);  // streamed: the RSS matrix is O(N^2)
  const std::string config = to_json(p.config);
  h.bytes(config.data(), config.size());
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
  return std::string("dmn-sweep-v10 ") + __VERSION__;
#else
  return "dmn-sweep-v10 unknown-compiler";
#endif
}

// ---- checkpoint file -------------------------------------------------------

std::string serialize_manifest(const CheckpointManifest& m) {
  return to_json(m);
}

std::string serialize_record(const CheckpointRecord& r) { return to_json(r); }

LoadedCheckpoint load_checkpoint(const std::string& path,
                                 const CheckpointManifest& expected) {
  LoadedCheckpoint out;
  std::ifstream in(path);
  if (!in) return out;  // no checkpoint yet: fresh run

  std::string line;
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
    if (!out.compatible) {  // the first line must be this sweep's manifest
      const auto m = from_json<CheckpointManifest>(v);
      if (m.sweep_hash != expected.sweep_hash ||
          m.num_points != expected.num_points ||
          m.fingerprint != expected.fingerprint) {
        std::fprintf(stderr,
                     "sweep checkpoint %s: manifest does not match this "
                     "sweep (different definition, point count or build); "
                     "recomputing all points\n",
                     path.c_str());
        return out;
      }
      out.compatible = true;
      continue;
    }
    auto rec = from_json<CheckpointRecord>(v);
    if (rec.index >= expected.num_points || !rec.outcome.ok()) continue;
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
