// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each sbx layer (the library itself carries no tracing). Every span has a
// name, a start and end on the steady clock, the span that was open on the
// same thread when it started (its parent) and the request it belongs to.
// Spans stay in per-thread buffers until the run ends; nothing is written
// while anything is being timed.
//
// A null Tracer* disables everything: ScopedSpan then records nothing, so
// the traced and untraced runs execute the same code.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;       // a Tracer::name_id()
  std::uint64_t start_ns = 0;   // steady clock
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;         // unique across threads, never 0
  std::uint64_t parent = 0;     // 0 = root
  std::uint64_t request = 0;    // request / trial id (0 = none)
};

/// Per-name aggregate: how many spans, their summed duration, and their
/// summed self time (duration minus the time covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name; call before the timed section.
  std::uint32_t name_id(const std::string& name);

  static std::uint64_t now_ns();

  /// Opens a span on the calling thread.
  void begin(std::uint32_t name, std::uint64_t request);
  /// Closes the innermost open span on the calling thread.
  void end();

  /// All spans of every thread (call once every recording thread is done).
  std::vector<Span> collect() const;

  /// Per-name totals over collect(), self time included.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as CSV: id,parent,request,name,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  struct ThreadBuffer;
  ThreadBuffer& local();

  std::vector<std::string> names_;
  mutable std::mutex mutex_;  // guards buffers_ registration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::uint64_t epoch_ = 0;  // distinguishes tracers sharing a thread
};

/// RAII span: records nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
