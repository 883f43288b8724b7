#include "trace.h"

#include <cstdio>

namespace perfbench {

SpanBuffer* SpanRecorder::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(enabled_));
  return buffers_.back().get();
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::SelfTimes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SelfTime> out;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<double> child_cover(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_cover[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      SelfTime& st = out[spans[i].name];
      ++st.count;
      st.total_us += us;
      st.self_us += us - child_cover[i];
    }
  }
  return out;
}

size_t SpanRecorder::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans().size();
  return n;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# request\tname\tparent\tstart_ns\tend_ns\n");
  for (const auto& buffer : buffers_) {
    std::fprintf(f, "# buffer\n");
    for (const Span& span : buffer->spans()) {
      std::fprintf(f, "%llu\t%s\t%d\t%llu\t%llu\n",
                   static_cast<unsigned long long>(span.request), span.name,
                   span.parent, static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
