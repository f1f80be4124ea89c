// In-memory span recorder for the benchmark's traced runs.
//
// A span wraps one call from the benchmark into a library layer. Each span
// has a name ("<layer>.<call>", e.g. "core.det_ruling_set_mpc"), a monotonic
// start and end in seconds since the recorder was built, the index of the
// span that was open when it started (its parent, -1 for a root), and the
// run id of the pass it belongs to. Spans stay in memory until the run ends;
// write_jsonl() then writes them out one JSON object per line.
//
// The recorder is single-threaded by design: every span is opened and closed
// on the benchmark's main thread, and the simulator's trace hook (which adds
// the `mpc.phase` spans) also runs on the calling thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t run_id = 0;
  // Optional count recorded at the same boundary (words, edges, queries).
  std::uint64_t count = 0;

  double duration() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_run_id(std::uint64_t id) { run_id_ = id; }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  // Opens a span under the innermost open span; returns its index, or -1
  // while recording is off.
  int open(const std::string& name) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_s = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run_id = run_id_;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[index].end_s = now();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  // Records an already-finished child of the innermost open span, e.g. a
  // simulator phase reported by the trace hook after it completed.
  void add_finished(const std::string& name, double duration_s,
                    std::uint64_t count) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.end_s = now();
    s.start_s = s.end_s - duration_s;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run_id = run_id_;
    s.count = count;
    spans_.push_back(std::move(s));
  }

  void set_count(int index, std::uint64_t count) {
    if (index >= 0) spans_[index].count = count;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Duration of span i minus the part its direct children cover (children
  // are nested and never overlap, so their durations add up).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].duration();
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.duration();
    }
    return self;
  }

  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(12);  // microseconds at run lengths of many minutes
    const std::vector<double> self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"run\":" << s.run_id << ",\"name\":\""
          << s.name << "\",\"parent\":" << s.parent
          << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
          << ",\"self_s\":" << self[i] << ",\"count\":" << s.count << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  std::uint64_t run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Closes its span when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), index_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench
