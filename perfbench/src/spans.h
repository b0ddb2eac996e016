#ifndef SWOLE_PERFBENCH_SPANS_H_
#define SWOLE_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

// The benchmark's own spans, recorded in the traced run around each call
// it makes into a module (generate, precompile, oracle, every Execute /
// ExecuteWithFallback, every serving wave). Spans share the run id, link
// to their parent, stay in memory while the run measures, and are written
// out as JSON lines when it ends. A span's self time is its duration minus
// the part of its interval that its children cover.
//
// A disabled log (the untraced run) records nothing: Begin returns -1 and
// End ignores it, so end-to-end numbers carry no tracing cost.

namespace perfbench {

class SpanLog {
 public:
  SpanLog(std::string run_id, bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under `parent` (-1 = no parent) and returns its id.
  /// Thread-safe: serving clients open spans from their own threads.
  int64_t Begin(const std::string& name, int64_t parent,
                std::string detail = "");
  void End(int64_t id);

  struct SelfTime {
    std::string name;
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per span name: how many spans, their summed duration and self time.
  std::vector<SelfTime> SelfTimes() const;

  /// One JSON object per span. Returns false when the file can't be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    int64_t id;
    int64_t parent;
    std::string name;
    std::string detail;
    int64_t start_ns;
    int64_t end_ns;  // -1 while open
  };

  int64_t NowNs() const;

  const std::string run_id_;
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index == id
};

/// RAII Begin/End.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const std::string& name, int64_t parent,
            std::string detail = "")
      : log_(log), id_(log.Begin(name, parent, std::move(detail))) {}
  ~SpanScope() { Close(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }

  /// Ends the span before the scope does (idempotent).
  void Close() {
    log_.End(id_);
    id_ = -1;
  }

 private:
  SpanLog& log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // SWOLE_PERFBENCH_SPANS_H_
