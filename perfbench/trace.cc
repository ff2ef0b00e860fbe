#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Begin(std::string name, uint64_t request) {
  Span s;
  s.name = std::move(name);
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is outside the span.
  spans_.back().start = Clock::now();
  return id;
}

double Tracer::End(int id) {
  const Clock::time_point now = Clock::now();
  // Spans still open inside \p id end with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    spans_[static_cast<size_t>(top)].end = now;
    if (top == id) break;
  }
  const Span& s = spans_[static_cast<size_t>(id)];
  return MsBetween(s.start, s.end);
}

double Tracer::Coverage() const {
  double root_ms = 0;
  double child_ms = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) {
      root_ms += MsBetween(s.start, s.end);
    } else if (spans_[static_cast<size_t>(s.parent)].parent < 0) {
      child_ms += MsBetween(s.start, s.end);
    }
  }
  return root_ms > 0 ? child_ms / root_ms : 0;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& record) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(f, "{\"record\":%s,\"spans\":[\n", record.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.request),
                 s.parent, us(s.start), us(s.end),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
