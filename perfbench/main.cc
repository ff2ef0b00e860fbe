/// \file main.cc
/// rdfrel_perfbench: runs one benchmark workload and prints, as its last
/// stdout line, `{"correct","attempted","failed","metrics"}`. The line
/// before it is the run record (nproc, scale, seed, build type, store
/// sizes). Exits 1 on any failed operation, wrong answer or broken check.
///
///   rdfrel_perfbench --workload prbench_cold|http_rw
///                    --seed N --seconds S --trace 0|1 --workdir DIR
///
/// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
/// timed pass, then the traced pass, and reports the per-layer metrics
/// (and writes DIR/trace-<workload>-<seed>.json).

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "perfbench.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: rdfrel_perfbench --workload "
               "prbench_cold|http_rw --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.workdir.empty() || !(config.seconds > 0)) {
    return Usage();
  }
  LogPhase("start");
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);

  RunOutput out;
  if (config.workload == "prbench_cold") {
    out = RunPrbenchCold(config);
  } else if (config.workload == "http_rw") {
    out = RunHttpRw(config);
  } else {
    return Usage();
  }
  if (out.end_to_end.empty()) return 1;  // set-up failed; nothing measured

  const bool correct = out.checks_passed && out.failed == 0;
  std::printf("{\"query_medians_ms\": {");
  for (size_t i = 0; i < out.query_medians_ms.size(); ++i) {
    std::printf("%s\"%s\": %.6g", i == 0 ? "" : ", ",
                out.query_medians_ms[i].first.c_str(),
                out.query_medians_ms[i].second);
  }
  std::printf("}}\n");
  std::printf("{\"run_record\": %s}\n", out.record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  PrintMetrics(config.trace ? out.per_layer : out.end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
