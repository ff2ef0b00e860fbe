#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/// \file common.h
/// Building blocks the workloads share: dataset generation at the
/// Figure-15 scales, timed store loading, the closed-loop client, one
/// pass through the HTTP endpoint, and the assembly of per-layer metrics
/// from a traced pass.

#include <memory>
#include <string>
#include <vector>

#include "answers.h"
#include "benchdata/workload.h"
#include "perfbench.h"
#include "pipeline.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/rdf_store.h"

namespace perfbench {

/// Generator seed: bench_summary's. The data is the same for every run, so
/// the answer gate checks one vetted set of answers; --seed varies the
/// request order and http_rw's write slice.
constexpr uint64_t kDataSeed = 4;
/// Generator scales: bench_summary's at RDFREL_BENCH_SCALE=1.
constexpr uint64_t kLubmUniversities = 15;
constexpr uint64_t kPrbenchProjects = 20;

/// One generated dataset, its store and its reference answers.
struct Dataset {
  std::string name;
  rdfrel::benchdata::Workload workload;
  std::unique_ptr<rdfrel::store::RdfStore> store;
  std::vector<Answer> reference;  ///< parallel to workload.queries
};

Dataset GenerateLubm();
Dataset GeneratePrbench();

/// Fills the dataset's `reference` (forked child; see answers.h).
bool ComputeReferences(Dataset& dataset);

/// Loads the dataset's store from a fresh copy of its graph, \p reps
/// times, keeping the last load. Returns each load's seconds (empty on
/// failure).
std::vector<double> LoadStore(Dataset& dataset, int reps);

/// A request in a query mix.
struct MixQuery {
  std::string id;
  std::string text;
  const Answer* reference = nullptr;
};
std::vector<MixQuery> MixOf(const Dataset& dataset);

/// Text of request number \p n: \p text plus a trailing `# <n>` comment
/// line, which the SPARQL lexer skips but the plan cache keys on.
std::string UniqueText(const std::string& text, uint64_t n);

/// Sends each query once; counts failures and wrong answers into \p out.
void CheckQueries(rdfrel::store::RdfStore& store,
                  const std::vector<MixQuery>& mix, RunOutput& out,
                  const char* phase);

/// POSTs \p text to the endpoint's /sparql; the answer's signature, or
/// nullopt on an error or a non-200 response.
std::optional<Answer> PostQuery(rdfrel::serve::HttpClient& client,
                                const std::string& text);

struct LoopStats {
  std::vector<std::vector<double>> per_query_ms;  ///< by mix index
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  ///< completion-to-next-send gaps
  uint64_t completed = 0;      ///< correct answers
  double busy_s = 0;           ///< time spent inside QueryWith
  rdfrel::util::CacheStats plan_cache;  ///< deltas over the loop
  rdfrel::util::CacheStats page_cache;
};

/// One in-process client in a closed loop over \p mix for \p seconds,
/// each pass a permutation of the mix drawn from \p seed. Every request
/// gets a unique text (UniqueText), so no request hits the plan cache.
LoopStats RunColdLoop(rdfrel::store::RdfStore& store,
                      const std::vector<MixQuery>& mix, double seconds,
                      uint64_t seed, RunOutput& out);

struct ServeStats {
  double handler_p50_ms = 0;
  double handler_p99_ms = 0;
  double handler_mean_ms = 0;
  double client_mean_ms = 0;
  double bytes_per_query = 0;
};
/// Reads the endpoint's own /sparql histogram and byte counter.
ServeStats ServerSideStats(const rdfrel::serve::SparqlServer& server,
                           double client_mean_ms);

/// Serves \p mix through a default-options SparqlServer over \p store,
/// one keep-alive serve::HttpClient, \p rounds passes, every request text
/// unique. Answers are checked.
ServeStats ServePass(rdfrel::store::RdfStore& store,
                     const std::vector<MixQuery>& mix, int rounds,
                     RunOutput& out);

/// Traces every query of \p mix once (pipeline.h), checking the SQL
/// against TranslateToSql and the rows against QueryWith and the
/// reference. Request ids number the mix from 1.
std::vector<LayerSample> TracedPass(rdfrel::store::RdfStore& store,
                                    const std::vector<MixQuery>& mix,
                                    Tracer& tracer, RunOutput& out);

/// Appends the traced-pass layer metrics (means per request).
void AddTracedLayerMetrics(const std::vector<LayerSample>& samples,
                           RunOutput& out);

rdfrel::util::CacheStats CacheDelta(const rdfrel::util::CacheStats& after,
                                    const rdfrel::util::CacheStats& before);

/// The run record: nproc, scale, seed, build type and store sizes.
std::string RecordJson(const Config& config, const Dataset& dataset);
uint64_t SpillRows(const Dataset& dataset);

void AddMetric(std::vector<Metric>& to, std::string name, double value,
               std::string unit);

/// Logs the end of a run phase, with the process's elapsed time, to stderr.
void LogPhase(const char* phase);

/// Writes the trace file `<workdir>/trace-<workload>-<seed>.json`.
void WriteTrace(const Config& config, const Tracer& tracer,
                const std::string& record, RunOutput& out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
