#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_epoch{1};

struct LocalCache {
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

struct Tracer::ThreadBuffer {
  std::uint64_t slot = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  // indices into spans, innermost last
};

Tracer::Tracer() : epoch_(g_next_epoch.fetch_add(1)) {}
Tracer::~Tracer() = default;

std::uint32_t Tracer::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::ThreadBuffer& Tracer::local() {
  if (t_cache.epoch != epoch_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 16);
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->slot = buffers_.size();
    t_cache.buffer = buffer.get();
    t_cache.epoch = epoch_;
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(t_cache.buffer);
}

void Tracer::begin(std::uint32_t name, std::uint64_t request) {
  ThreadBuffer& b = local();
  Span s;
  s.name = name;
  s.id = ((b.slot + 1) << 40) | (b.spans.size() + 1);
  s.parent = b.open.empty() ? 0 : b.spans[b.open.back()].id;
  s.request = request;
  b.open.push_back(b.spans.size());
  b.spans.push_back(s);
  // Read the clock last so span bookkeeping is not billed to the span.
  b.spans.back().start_ns = now_ns();
}

void Tracer::end() {
  const std::uint64_t t = now_ns();
  ThreadBuffer& b = local();
  if (b.open.empty()) return;  // runs in destructors: never throw
  b.spans[b.open.back()].end_ns = t;
  b.open.pop_back();
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<Span> spans = collect();
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    SpanTotals& t = out[names_.at(s.name)];
    ++t.count;
    t.total_us += us;
    const auto it = child_us.find(s.id);
    t.self_us += us - (it == child_us.end() ? 0.0 : it->second);
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  for (const Span& s : collect()) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%llu,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 names_.at(s.name).c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

}  // namespace perfbench
