// In-memory span recorder for the benchmark's traced run. Spans are
// opened by the benchmark around its own calls into each library module
// (never inside the library), nest strictly per scope, and are written out
// once, when the benchmark ends. Single-threaded by design: every span
// boundary sits on the benchmark's driving thread, while the library's
// worker threads run inside a span.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace cedbench {

class SpanLog {
 public:
  struct Record {
    const char* name;
    double start_s;
    double end_s;
    int parent;  // index into records(), -1 for a root span
    int pass;    // pass the span belongs to
  };

  /// RAII span; `name` must outlive the log (string literals).
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  void set_pass(int pass) { pass_ = pass; }

  /// Per-name self time of one pass: each span's duration minus the part
  /// its direct children cover (children nest inside their parent, so
  /// their durations add up without overlap).
  std::map<std::string, double> self_seconds(int pass) const {
    std::vector<double> child(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.pass == pass && r.parent >= 0) child[r.parent] += r.end_s - r.start_s;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (r.pass == pass) out[r.name] += (r.end_s - r.start_s) - child[i];
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event file (µs timestamps).
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"pass\": %d, "
                   "\"parent\": %d}}%s\n",
                   r.name, r.start_s * 1e6, (r.end_s - r.start_s) * 1e6, r.pass,
                   r.parent, i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({name, now(), 0.0, parent, pass_});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    records_[id].end_s = now();
    stack_.pop_back();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
  int pass_ = 0;
};

}  // namespace cedbench
