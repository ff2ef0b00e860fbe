#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory span recorder for the traced pass. A span has a name, start,
/// end, parent span and request id; spans nest by call order (a span
/// begun while another is open becomes its child). Nothing is written
/// until WriteJson at the end of the run.

#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

class Tracer {
 public:
  /// Opens a span under the innermost open span; returns its id.
  int Begin(std::string name, uint64_t request);
  /// Closes span \p id and any span still open inside it; returns its
  /// length in ms.
  double End(int id);

  /// Sum over root spans of the time their direct children cover, divided
  /// by the roots' total length: 1.0 means no untraced gaps.
  double Coverage() const;

  /// Writes `{"record": <record>, "spans": [...]}` to \p path, each span as
  /// {"name","request","parent","start_us","end_us"} relative to the first
  /// span's start. False on I/O failure.
  bool WriteJson(const std::string& path, const std::string& record) const;

 private:
  struct Span {
    std::string name;
    uint64_t request = 0;
    int parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
