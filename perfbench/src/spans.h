// In-memory span recording for the traced run.
//
// A span is (name, start, end, parent, request id). Spans are recorded only
// by the benchmark's own code, around calls into public ctdb layer
// functions; nothing inside the library is instrumented for this. The
// recorder is internally locked so the client thread and the in-process
// server's worker thread can both record into it.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;    ///< index into the recorder's spans, -1 = root
  uint64_t request = 0;   ///< request id the span belongs to

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

uint64_t NowNs();

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and returns -1 from Begin; the
  /// untraced replay runs the same code through one.
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  int32_t Begin(const char* name, int32_t parent, uint64_t request);
  void End(int32_t id);

  std::vector<Span> Take();

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; `id()` is the parent handle for nested spans.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int32_t parent,
             uint64_t request)
      : recorder_(recorder), id_(recorder->Begin(name, parent, request)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

/// Writes `spans` to `path`, one JSON object per line.
bool WriteJsonLines(const std::string& path, const std::vector<Span>& spans);

/// \brief Self time of every span in nanoseconds: its duration minus the
/// union of its direct children's intervals (clipped to the span).
///
/// Children may overlap (parallel work); the union counts covered time
/// once, so a span's self time is never negative.
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench
