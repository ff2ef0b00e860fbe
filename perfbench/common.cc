#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "benchdata/lubm.h"
#include "benchdata/prbench.h"

namespace perfbench {

namespace store = rdfrel::store;
namespace serve = rdfrel::serve;
using rdfrel::Status;

namespace {

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace

void RunOutput::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
  checks_passed = false;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Dataset GenerateLubm() {
  return {"LUBM", rdfrel::benchdata::MakeLubm(kLubmUniversities, kDataSeed),
          nullptr, {}};
}

Dataset GeneratePrbench() {
  return {"PRBench",
          rdfrel::benchdata::MakePrbench(kPrbenchProjects, kDataSeed),
          nullptr,
          {}};
}

bool ComputeReferences(Dataset& dataset) {
  ReferenceJob job;
  job.graph = &dataset.workload.graph;
  for (const auto& q : dataset.workload.queries) job.queries.push_back(q.sparql);
  auto answers = ReferenceAnswers({job});
  if (!answers) return false;
  dataset.reference = std::move(answers->front());
  return true;
}

std::vector<double> LoadStore(Dataset& dataset, int reps) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    dataset.store.reset();
    rdfrel::rdf::Graph copy = dataset.workload.graph;
    const Clock::time_point t0 = Clock::now();
    auto loaded = store::RdfStore::Load(std::move(copy));
    seconds.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s failed: %s\n", dataset.name.c_str(),
                   loaded.status().ToString().c_str());
      return {};
    }
    dataset.store = std::move(loaded).value();
  }
  return seconds;
}

std::vector<MixQuery> MixOf(const Dataset& dataset) {
  std::vector<MixQuery> mix;
  const auto& queries = dataset.workload.queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    mix.push_back({queries[i].id, queries[i].sparql, &dataset.reference[i]});
  }
  return mix;
}

std::string UniqueText(const std::string& text, uint64_t n) {
  return text + "\n# " + std::to_string(n);
}

void CheckQueries(store::RdfStore& st, const std::vector<MixQuery>& mix,
                  RunOutput& out, const char* phase) {
  for (const MixQuery& q : mix) {
    ++out.attempted;
    auto rs = st.Query(q.text);
    if (!rs.ok() || AnswerOf(*rs) != *q.reference) {
      ++out.failed;
      std::fprintf(stderr, "%s: %s: %s\n", phase, q.id.c_str(),
                   rs.ok() ? "wrong answer" : rs.status().ToString().c_str());
    }
  }
}

std::optional<Answer> PostQuery(serve::HttpClient& client,
                                const std::string& text) {
  auto resp = client.Post("/sparql", "application/sparql-query", text);
  if (!resp.ok() || resp->status != 200) return std::nullopt;
  return AnswerOfJson(resp->body);
}

LoopStats RunColdLoop(store::RdfStore& st, const std::vector<MixQuery>& mix,
                      double seconds, uint64_t seed, RunOutput& out) {
  LoopStats stats;
  stats.per_query_ms.resize(mix.size());
  const auto plan0 = st.plan_cache_stats();
  const auto page0 = st.page_cache_stats();

  const store::QueryOptions opts;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::mt19937_64 rng(seed);
  std::vector<size_t> order(mix.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  uint64_t n = 0;
  Clock::time_point last_done{};
  while (Clock::now() < deadline) {
    if (n % order.size() == 0) std::shuffle(order.begin(), order.end(), rng);
    const size_t qi = order[n % order.size()];
    const MixQuery& q = mix[qi];
    const std::string text = UniqueText(q.text, n++);
    const Clock::time_point t0 = Clock::now();
    auto rs = st.QueryWith(text, opts);
    const Clock::time_point t1 = Clock::now();
    const double ms = MsBetween(t0, t1);
    if (last_done != Clock::time_point{}) {
      stats.lag_ms.push_back(MsBetween(last_done, t0));
    }
    stats.busy_s += ms / 1000.0;
    stats.latency_ms.push_back(ms);
    stats.per_query_ms[qi].push_back(ms);
    ++out.attempted;
    if (rs.ok() && AnswerOf(*rs) == *q.reference) {
      ++stats.completed;
    } else {
      ++out.failed;
      std::fprintf(stderr, "timed: %s: %s\n", q.id.c_str(),
                   rs.ok() ? "wrong answer" : rs.status().ToString().c_str());
    }
    last_done = Clock::now();
  }

  stats.plan_cache = CacheDelta(st.plan_cache_stats(), plan0);
  stats.page_cache = CacheDelta(st.page_cache_stats(), page0);
  return stats;
}

ServeStats ServerSideStats(const serve::SparqlServer& server,
                           double client_mean_ms) {
  const serve::EndpointMetrics& m = server.metrics().sparql;
  ServeStats s;
  s.handler_p50_ms = m.latency.Quantile(0.50) / 1000.0;
  s.handler_p99_ms = m.latency.Quantile(0.99) / 1000.0;
  s.handler_mean_ms = m.latency.Mean() / 1000.0;
  s.client_mean_ms = client_mean_ms;
  const uint64_t requests = m.requests.load();
  s.bytes_per_query =
      requests == 0 ? 0
                    : static_cast<double>(m.bytes_out.load()) /
                          static_cast<double>(requests);
  return s;
}

ServeStats ServePass(store::RdfStore& st, const std::vector<MixQuery>& mix,
                     int rounds, RunOutput& out) {
  serve::SparqlServer server(&st);
  if (Status s = server.Start(); !s.ok()) {
    out.Fail("server start: " + s.ToString());
    return {};
  }
  std::vector<double> client_ms;
  {
    serve::HttpClient client("127.0.0.1", server.port());
    uint64_t n = 0;
    for (int r = 0; r < rounds; ++r) {
      for (const MixQuery& q : mix) {
        const std::string text = UniqueText(q.text, n++);
        const Clock::time_point t0 = Clock::now();
        const std::optional<Answer> a = PostQuery(client, text);
        client_ms.push_back(MsBetween(t0, Clock::now()));
        ++out.attempted;
        if (!a || *a != *q.reference) {
          ++out.failed;
          std::fprintf(stderr, "serve pass: %s: %s\n", q.id.c_str(),
                       a ? "wrong answer" : "request failed");
        }
      }
    }
  }
  ServeStats s = ServerSideStats(server, Mean(client_ms));
  server.Stop();
  return s;
}

std::vector<LayerSample> TracedPass(store::RdfStore& st,
                                    const std::vector<MixQuery>& mix,
                                    Tracer& tracer, RunOutput& out) {
  std::vector<LayerSample> samples;
  for (size_t i = 0; i < mix.size(); ++i) {
    const MixQuery& q = mix[i];
    ++out.attempted;
    auto s = TraceQuery(st, q.text, tracer, i + 1);
    if (!s.ok()) {
      ++out.failed;
      std::fprintf(stderr, "traced: %s: %s\n", q.id.c_str(),
                   s.status().ToString().c_str());
      continue;
    }
    if (s->answer != *q.reference) {
      ++out.failed;
      std::fprintf(stderr, "traced: %s: wrong answer\n", q.id.c_str());
    }
    auto sql = st.TranslateToSql(q.text);
    if (!sql.ok() || *sql != s->sql) {
      out.Fail("traced SQL differs from TranslateToSql for " + q.id);
    }
    auto rs = st.Query(q.text);
    if (!rs.ok() || AnswerOf(*rs) != s->answer) {
      out.Fail("traced rows differ from QueryWith for " + q.id);
    }
    samples.push_back(std::move(s).value());
  }
  return samples;
}

void AddTracedLayerMetrics(const std::vector<LayerSample>& samples,
                           RunOutput& out) {
  auto mean = [&](auto field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(field(s));
    return Mean(v);
  };
  double work_rows = 0;
  double result_rows = 0;
  for (const LayerSample& s : samples) {
    work_rows += static_cast<double>(s.cte_rows + s.operator_rows);
    result_rows += static_cast<double>(s.result_rows);
  }
  auto& m = out.per_layer;
  AddMetric(m, "sparql.parse_ms", mean([](auto& s) { return s.parse_ms; }),
            "ms");
  AddMetric(m, "opt.dfg_build_ms", mean([](auto& s) { return s.dfg_ms; }),
            "ms");
  AddMetric(m, "opt.dfg_edges",
            mean([](auto& s) { return static_cast<double>(s.dfg_edges); }),
            "count");
  AddMetric(m, "opt.flow_tree_ms", mean([](auto& s) { return s.flow_ms; }),
            "ms");
  AddMetric(m, "opt.exec_tree_ms",
            mean([](auto& s) { return s.exec_tree_ms; }), "ms");
  AddMetric(m, "opt.merge_ms", mean([](auto& s) { return s.merge_ms; }), "ms");
  AddMetric(m, "translate.sql_gen_ms",
            mean([](auto& s) { return s.sql_gen_ms; }), "ms");
  AddMetric(m, "translate.sql_bytes",
            mean([](auto& s) { return static_cast<double>(s.sql_bytes); }),
            "bytes");
  AddMetric(m, "sql.parse_ms", mean([](auto& s) { return s.sql_parse_ms; }),
            "ms");
  AddMetric(m, "sql.plan_cte_ms",
            mean([](auto& s) { return s.plan_cte_ms; }), "ms");
  AddMetric(m, "sql.cte_rows",
            mean([](auto& s) { return static_cast<double>(s.cte_rows); }),
            "count");
  AddMetric(m, "sql.rows_per_result",
            result_rows > 0 ? work_rows / result_rows : work_rows, "ratio");
  AddMetric(m, "sql.exec_ms", mean([](auto& s) { return s.exec_ms; }), "ms");
  AddMetric(m, "store.decode_ms", mean([](auto& s) { return s.decode_ms(); }),
            "ms");
  AddMetric(m, "serve.serialize_ms",
            mean([](auto& s) { return s.serialize_ms; }), "ms");
}

rdfrel::util::CacheStats CacheDelta(const rdfrel::util::CacheStats& after,
                                    const rdfrel::util::CacheStats& before) {
  rdfrel::util::CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  return d;
}

uint64_t SpillRows(const Dataset& dataset) {
  if (dataset.store == nullptr) return 0;
  const auto& ls = dataset.store->load_stats();
  return ls.dph_spill_rows + ls.rph_spill_rows;
}

std::string RecordJson(const Config& config, const Dataset& dataset) {
  const auto* ls =
      dataset.store != nullptr ? &dataset.store->load_stats() : nullptr;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"data_seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d,\"nproc\":%ld,\"scale\":1.0,"
      "\"build_type\":\"%s\",\"stores\":[{\"name\":\"%s\",\"triples\":%llu,"
      "\"queries\":%zu,\"dph_rows\":%llu,\"rph_rows\":%llu,\"ds_rows\":%llu,"
      "\"rs_rows\":%llu,\"spill_rows\":%llu}]}",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(kDataSeed), config.seconds,
      config.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_BUILD_TYPE, dataset.name.c_str(),
      static_cast<unsigned long long>(dataset.workload.graph.size()),
      dataset.workload.queries.size(),
      static_cast<unsigned long long>(ls ? ls->dph_rows : 0),
      static_cast<unsigned long long>(ls ? ls->rph_rows : 0),
      static_cast<unsigned long long>(ls ? ls->ds_rows : 0),
      static_cast<unsigned long long>(ls ? ls->rs_rows : 0),
      static_cast<unsigned long long>(SpillRows(dataset)));
  return buf;
}

void AddMetric(std::vector<Metric>& to, std::string name, double value,
               std::string unit) {
  to.push_back({std::move(name), value, std::move(unit)});
}

void LogPhase(const char* phase) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "perfbench: %-18s done at %7.2f s\n", phase,
               MsBetween(start, Clock::now()) / 1000.0);
}

void WriteTrace(const Config& config, const Tracer& tracer,
                const std::string& record, RunOutput& out) {
  const std::string path = config.workdir + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  if (!tracer.WriteJson(path, record)) out.Fail("cannot write " + path);
  std::fprintf(stderr, "trace written to %s\n", path.c_str());
}

}  // namespace perfbench
