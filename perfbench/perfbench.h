#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

/// \file perfbench.h
/// Shared vocabulary of the rdfrel benchmark program: run configuration,
/// the metric record every workload fills, and the small statistics
/// helpers (quantiles, medians, geometric means) the workloads report with.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One benchmark invocation (see main.cc for the command line).
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL/snapshot files and the trace file.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `failed` counts operations that erred,
/// were refused, or returned a wrong answer; any other broken invariant
/// (SQL identity, recovered state) clears `checks_passed`.
struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_passed = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// JSON object: nproc, scale, seed, build type, store sizes.
  std::string record;
  /// Each distinct query's median latency in the timed window (ms).
  std::vector<std::pair<std::string, double>> query_medians_ms;

  /// Logs \p what to stderr and marks the run as not correct.
  void Fail(const std::string& what);
};

RunOutput RunPrbenchCold(const Config& config);
RunOutput RunHttpRw(const Config& config);

/// Linear-interpolated \p q quantile (0..1) of \p v; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
/// Geometric mean of positive values; 0 when empty.
double Geomean(const std::vector<double>& v);
/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
