/// \file prbench_cold.cc
/// The `prbench_cold` workload: one in-process client in a closed loop
/// over PRBench's 29 queries, every request text unique, so every request
/// misses the plan cache and pays the whole front half of the pipeline.

#include <cstdio>

#include "common.h"

namespace perfbench {

namespace {

/// Timed loads per batch. One batch runs before the timed window and one
/// at the end of the run, so setup_s, their median, spans the run rather
/// than one moment of the machine's speed.
constexpr int kSetupReps = 16;
/// Passes over the mix through the endpoint in the traced run.
constexpr int kServeRounds = 3;

/// Trace-vs-timed ratio minus one: the traced copy's time on the path a
/// plan-cache miss takes, against the timed pass's per-query medians.
double TraceOverhead(const std::vector<LayerSample>& samples,
                     const LoopStats& loop) {
  double traced = 0;
  double timed = 0;
  for (size_t i = 0; i < samples.size() && i < loop.per_query_ms.size();
       ++i) {
    if (loop.per_query_ms[i].empty()) continue;
    traced += samples[i].execute_decoded_ms + samples[i].front_half_ms();
    timed += Median(loop.per_query_ms[i]);
  }
  return timed > 0 ? traced / timed - 1.0 : 0;
}

}  // namespace

RunOutput RunPrbenchCold(const Config& config) {
  RunOutput out;
  Dataset prbench = GeneratePrbench();
  LogPhase("generate");
  if (!ComputeReferences(prbench)) {
    out.Fail("reference answers could not be computed");
    return out;
  }
  LogPhase("reference");
  std::vector<double> setup = LoadStore(prbench, kSetupReps);
  if (setup.empty()) {
    out.Fail("store load failed");
    return out;
  }
  LogPhase("setup");
  out.record = RecordJson(config, prbench);
  rdfrel::store::RdfStore& st = *prbench.store;
  const std::vector<MixQuery> mix = MixOf(prbench);

  // Warm-up and answer check; the timed texts never hit the plan cache.
  CheckQueries(st, mix, out, "warm-up");
  LogPhase("warm-up");
  const LoopStats loop = RunColdLoop(st, mix, config.seconds, config.seed, out);
  LogPhase("timed");

  Tracer tracer;
  std::vector<LayerSample> samples;
  ServeStats serve;
  if (config.trace) {
    serve = ServePass(st, mix, kServeRounds, out);
    LogPhase("serve pass");
    samples = TracedPass(st, mix, tracer, out);
    LogPhase("traced pass");
  }

  const std::vector<double> later = LoadStore(prbench, kSetupReps);
  if (later.empty()) {
    out.Fail("store load failed");
    return out;
  }
  setup.insert(setup.end(), later.begin(), later.end());
  LogPhase("setup, 2nd batch");
  for (double s : setup) std::fprintf(stderr, "perfbench: setup %.4f s\n", s);

  std::vector<double> medians;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (loop.per_query_ms[i].empty()) continue;
    medians.push_back(Median(loop.per_query_ms[i]));
    out.query_medians_ms.emplace_back(mix[i].id, medians.back());
  }
  auto& e = out.end_to_end;
  AddMetric(e, "setup_s", Median(setup), "s");
  AddMetric(e, "query_p50_ms", Quantile(loop.latency_ms, 0.50), "ms");
  AddMetric(e, "query_p99_ms", Quantile(loop.latency_ms, 0.99), "ms");
  AddMetric(e, "query_geomean_ms", Geomean(medians), "ms");
  AddMetric(e, "queries_per_s",
            loop.busy_s > 0 ? static_cast<double>(loop.completed) / loop.busy_s
                            : 0,
            "1/s");
  AddMetric(e, "peak_rss_mb", PeakRssMb(), "MiB");

  if (config.trace) {
    AddTracedLayerMetrics(samples, out);
    auto& m = out.per_layer;
    AddMetric(m, "sql.page_cache_hit_ratio", loop.page_cache.hit_rate(),
              "ratio");
    AddMetric(m, "store.plan_cache_hit_ratio",
              loop.plan_cache.hit_rate(), "ratio");
    AddMetric(m, "serve.handler_p50_ms", serve.handler_p50_ms, "ms");
    AddMetric(m, "serve.handler_p99_ms", serve.handler_p99_ms, "ms");
    AddMetric(m, "serve.outside_handler_ms",
              serve.client_mean_ms - serve.handler_mean_ms, "ms");
    AddMetric(m, "serve.bytes_per_query", serve.bytes_per_query, "bytes");
    // This workload does not write, and its store has no persistence.
    AddMetric(m, "store.write_p50_ms", 0, "ms");
    AddMetric(m, "store.write_p99_ms", 0, "ms");
    AddMetric(m, "persist.fsyncs_per_write", 0, "count");
    AddMetric(m, "persist.group_commit_batch", 0, "count");
    AddMetric(m, "persist.wal_bytes_per_triple", 0, "bytes");
    AddMetric(m, "persist.reopen_ms", 0, "ms");
    AddMetric(m, "schema.load_ms", Median(setup) * 1000.0, "ms");
    AddMetric(m, "schema.spill_rows", static_cast<double>(SpillRows(prbench)),
              "count");
    AddMetric(m, "loadgen.lag_p99_ms", Quantile(loop.lag_ms, 0.99), "ms");
    AddMetric(m, "trace.coverage", tracer.Coverage(), "ratio");
    AddMetric(m, "trace.overhead", TraceOverhead(samples, loop), "ratio");
    WriteTrace(config, tracer, out.record, out);
  }
  return out;
}

}  // namespace perfbench
