// Benchmark-side tracing: spans recorded around calls into the program's
// public functions and around every object-store call the metered store
// forwards. Spans live in memory while the workload runs and are written
// out once at the end; nothing here reaches into the program.

#ifndef EON_PERFBENCH_SPANS_H_
#define EON_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic microseconds since the process's first call.
int64_t NowMicros();

struct SpanRecord {
  const char* name = "";
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root (or opened on another thread).
  uint64_t query_id = 0;
};

/// Process-wide span store. Disabled spans cost one relaxed load.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool on);
  bool enabled() const;

  std::vector<SpanRecord> Take();
  /// Write every recorded span as JSON lines; true on success.
  bool WriteJsonLines(const std::string& path,
                      const std::vector<SpanRecord>& spans) const;

  void Add(const SpanRecord& span);

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Self time per span name in microseconds: each span's duration minus the
/// part of its interval covered by its direct children.
std::map<std::string, int64_t> SelfMicrosByName(
    const std::vector<SpanRecord>& spans);

/// Total duration per span name in microseconds, and span counts.
std::map<std::string, int64_t> TotalMicrosByName(
    const std::vector<SpanRecord>& spans);
std::map<std::string, uint64_t> CountByName(
    const std::vector<SpanRecord>& spans);

/// The query id spans opened on this thread are tagged with.
void SetThreadQueryId(uint64_t query_id);

/// RAII span on the calling thread; nests under the thread's open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  SpanRecord rec_;
  uint64_t saved_parent_ = 0;
};

}  // namespace perfbench

#endif  // EON_PERFBENCH_SPANS_H_
