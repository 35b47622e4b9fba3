// The benchmark's span recorder. Spans wrap the benchmark's own calls into
// each layer of the library (nothing inside src/ is instrumented); they
// stay in memory and are written out once, when the run ends. A disabled
// tracer records nothing.
#ifndef GBXBENCH_TRACE_H_
#define GBXBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace gbxbench {

using Clock = std::chrono::steady_clock;

inline Clock::time_point Origin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

/// Seconds since a process-wide origin.
inline double Now() {
  return std::chrono::duration<double>(Clock::now() - Origin()).count();
}

/// The clock time `seconds` after the origin.
inline Clock::time_point At(double seconds) {
  return Origin() + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
}

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  double start_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (0 when disabled), so a span still open can be
  /// named as its children's parent.
  std::int64_t NewId() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  /// Records a finished span under `id` (a fresh one when 0); returns it.
  std::int64_t Record(const std::string& name, double start_s, double end_s,
                      std::int64_t parent = 0, std::int64_t id = 0) {
    if (!enabled_) return 0;
    if (id == 0) id = NewId();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, start_s, end_s});
    return id;
  }

  struct Total {
    std::int64_t count = 0;
    double seconds = 0.0;
  };
  /// Count and summed duration of every span named `name`.
  Total Sum(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    Total t;
    for (const Span& s : spans_) {
      if (s.name == name) {
        ++t.count;
        t.seconds += s.end_s - s.start_s;
      }
    }
    return t;
  }

  std::int64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(spans_.size());
  }

  /// Writes every span as one JSON array. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                   "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                   s.name.c_str(), static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.start_s * 1e6,
                   s.end_s * 1e6, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope and records it as a span on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::int64_t parent = 0)
      : tracer_(tracer), name_(std::move(name)), parent_(parent),
        id_(tracer->NewId()), start_(Now()) {}
  ~ScopedSpan() { tracer_->Record(name_, start_, Now(), parent_, id_); }
  std::int64_t id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::string name_;
  std::int64_t parent_;
  std::int64_t id_;
  double start_;
};

}  // namespace gbxbench

#endif  // GBXBENCH_TRACE_H_
