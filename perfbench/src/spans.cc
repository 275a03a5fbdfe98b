#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int32_t SpanRecorder::Begin(const char* name, int32_t parent,
                            uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t id) {
  if (id < 0) return;
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

bool WriteJsonLines(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = lo;  // everything before `cursor` is accounted for
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace perfbench
