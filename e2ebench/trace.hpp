// In-memory span recorder for the end-to-end benchmark's traced run.
//
// A span is one call into a layer, recorded from the benchmark's side of
// the public API: name, start, end, the enclosing span on the same thread
// and a request id shared by every span of one request. Each thread
// appends to its own buffer (registered once under a mutex), so recording
// never contends; buffers are read only after every recording thread has
// been joined. Nothing leaves memory until `write_csv` at the end.
//
// With tracing off a Scope costs one relaxed atomic load.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same thread's buffer, -1 = root
  std::uint64_t request = 0;
};

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of open span indices
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  /// Switch recording on or off; call only while no other thread records.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  ThreadSpans& local() {
    thread_local ThreadSpans* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadSpans>());
      mine = buffers_.back().get();
    }
    return *mine;
  }

  /// Every thread's buffer. Only valid once the recording threads joined.
  [[nodiscard]] const std::vector<std::unique_ptr<ThreadSpans>>& buffers()
      const {
    return buffers_;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

/// RAII span. A root span takes `request`; a nested one inherits its
/// parent's request id.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;
    buf_ = &tracer.local();
    Span span;
    span.name = name;
    span.request = request;
    if (!buf_->open.empty()) {
      span.parent = buf_->open.back();
      span.request = buf_->spans[static_cast<std::size_t>(span.parent)].request;
    }
    index_ = static_cast<std::int32_t>(buf_->spans.size());
    buf_->open.push_back(index_);
    span.start_ns = now_ns();
    buf_->spans.push_back(span);
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    buf_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    buf_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadSpans* buf_ = nullptr;
  std::int32_t index_ = -1;
};

/// Durations and self-times of every span with one name under one root
/// name, in nanoseconds.
struct SpanGroup {
  std::vector<double> duration_ns;
  std::vector<double> self_ns;
};

/// Groups spans by (root span name, span name). A span's self-time is its
/// duration minus its children's: children run on the caller's thread
/// strictly inside their parent, one after another.
inline std::map<std::pair<std::string, std::string>, SpanGroup> aggregate(
    const Tracer& tracer) {
  std::map<std::pair<std::string, std::string>, SpanGroup> groups;
  for (const auto& buf : tracer.buffers()) {
    const auto& spans = buf->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::int32_t> root(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int32_t p = s.parent;
      root[i] = p < 0 ? static_cast<std::int32_t>(i)
                      : root[static_cast<std::size_t>(p)];
      if (p >= 0) {
        child_ns[static_cast<std::size_t>(p)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      SpanGroup& g = groups[{spans[static_cast<std::size_t>(root[i])].name,
                             s.name}];
      g.duration_ns.push_back(dur);
      g.self_ns.push_back(dur - child_ns[i]);
    }
  }
  return groups;
}

/// Writes every span as CSV: thread,index,name,start_ns,end_ns,parent,
/// request. Returns false if the file could not be written.
inline bool write_csv(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,name,start_ns,end_ns,parent,request\n");
  std::size_t thread = 0;
  for (const auto& buf : tracer.buffers()) {
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      std::fprintf(f, "%zu,%zu,%s,%lld,%lld,%d,%llu\n", thread, i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    ++thread;
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
