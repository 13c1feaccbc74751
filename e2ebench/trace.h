#pragma once
// In-memory span recorder for the end-to-end benchmark.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public functions; nothing inside src/ is instrumented. Spans
// stay in memory while the benchmark runs and are written out once at the
// end as Chrome trace-event JSON ("X" complete events), which the Perfetto
// UI (ui.perfetto.dev) and chrome://tracing open directly.
//
// A disabled Tracer records nothing: begin() returns kNoSpan and end() on it
// is a no-op, so the untraced run pays one branch per boundary.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  // index into the span list; -1 for a root
  std::string detail;  // free-form label (point name, sample count)
};

class Tracer {
 public:
  static constexpr int kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span.
  int begin(const std::string& name, const std::string& detail = {}) {
    if (!enabled_) return kNoSpan;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Clock::now(), {}, parent, detail});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id == kNoSpan) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Adds a closed child span with explicit bounds: the setup / loop /
  /// collect split of Experiment::run() is rebuilt from the wall-clock
  /// fields the result carries.
  void add(const std::string& name, int parent, Clock::time_point start,
           Clock::time_point end) {
    if (!enabled_ || parent == kNoSpan) return;
    spans_.push_back({name, start, end, parent, {}});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name inside each root span, one entry per root in
  /// recording order: a span's self time is its duration minus the time its
  /// direct children cover, summed over the spans of that name.
  struct RootSelf {
    std::string root;
    std::map<std::string, double> self_s;
  };
  std::vector<RootSelf> self_seconds_by_root() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start, s.end);
      }
    }
    std::vector<RootSelf> roots;
    std::vector<std::size_t> root_slot(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent < 0) {
        root_slot[i] = roots.size();
        roots.push_back({s.name, {}});
      } else {
        // Parents are always recorded before their children.
        root_slot[i] = root_slot[static_cast<std::size_t>(s.parent)];
      }
      roots[root_slot[i]].self_s[s.name] +=
          seconds_between(s.start, s.end) - child_time[i];
    }
    return roots;
  }

  /// Writes every span as a Chrome trace-event complete event. Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = seconds_between(origin, s.start) * 1e6;
      const double dur = seconds_between(s.start, s.end) * 1e6;
      const std::string layer = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, \"detail\": "
                   "\"%s\"}}%s\n",
                   s.name.c_str(), layer.c_str(), ts, dur, i, s.parent,
                   s.detail.c_str(), i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin on construction, end on destruction.
class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name, const std::string& detail = {})
      : tracer_(t), id_(t.begin(name, detail)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace e2e
