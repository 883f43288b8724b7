#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The benchmark's span recorder. Spans are taken in the benchmark's own
// code around each call into a layer (a wire request, the client-side
// cost-model execution, a Checkpoint() or recovery call); nothing inside the
// service is instrumented. Each span records its name, start, end and the
// span that caused it; all spans of one request share the request id.
// Spans live in per-thread buffers and are written out when the run ends.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< string literal, never freed
  uint64_t request = 0;   ///< shared by every span of one request
  int32_t parent = -1;    ///< index of the causing span in the same buffer
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One thread's spans. Not synchronized: a buffer belongs to one thread.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

  /// Records a finished span; returns its index (for children), or -1 when
  /// tracing is off.
  int32_t Add(const char* name, uint64_t request, int32_t parent,
              uint64_t start_ns, uint64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, request, parent, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is filled in by End().
  int32_t Begin(const char* name, uint64_t request, int32_t parent,
                uint64_t start_ns) {
    return Add(name, request, parent, start_ns, start_ns);
  }
  void End(int32_t index, uint64_t end_ns) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Owns every thread's buffer for one pass of a workload.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// A fresh buffer for the calling thread; valid for the recorder's life.
  SpanBuffer* NewBuffer();

  struct SelfTime {
    uint64_t count = 0;
    double total_us = 0.0;  ///< sum of durations
    double self_us = 0.0;   ///< sum of durations minus children's cover
    double MeanSelfUs() const { return count ? self_us / count : 0.0; }
  };
  /// Per span name: count, total and self time. A span's self time is its
  /// duration minus the part of it its child spans cover (children of one
  /// span never overlap here: a request's steps run one after another).
  std::map<std::string, SelfTime> SelfTimes() const;
  size_t NumSpans() const;

  /// Writes every span as tab-separated
  /// `request name parent_index start_ns end_ns`, one per line, buffers in
  /// creation order (parent indices are relative to the same buffer, which
  /// starts with a `# buffer` line). Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
