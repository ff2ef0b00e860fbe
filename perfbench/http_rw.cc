/// \file http_rw.cc
/// The `http_rw` workload: the SPARQL endpoint (default ServerOptions)
/// over a WAL-persistent LUBM store, read by a pool of keep-alive
/// connections while one in-process writer alternates
/// InsertBatch/DeleteBatch of a held-back slice of LUBM triples. Both are
/// open loops on constant-rate schedules.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <set>
#include <thread>

#include "common.h"
#include "rdf/graph.h"

namespace perfbench {

namespace store = rdfrel::store;
namespace serve = rdfrel::serve;
namespace fs = std::filesystem;
using rdfrel::Status;

namespace {

/// Fixed rates, below the saturation point of the endpoint on a
/// 4-core machine (see README.md). Not calibrated at run time, so two
/// builds always see the same offered load. Equal rates put every read on
/// the instant a write starts, so each read races a write.
constexpr double kReadsPerSecond = 40;
constexpr double kWritesPerSecond = 40;
/// Keep-alive connections: at most the server's default worker count, so
/// no connection waits for a worker to free up.
constexpr int kConnections = 3;
/// Triples in the held-back slice B, written per InsertBatch/DeleteBatch.
constexpr size_t kWriteBatch = 32;
/// Chooses B. B is the same for every --seed, so the seed changes only
/// the order of reads, never the data being written.
constexpr uint64_t kSliceSeed = 1;
/// Timed set-ups per batch. One batch runs before the timed window and one
/// after it, so setup_s, their median, spans the run rather than one
/// moment of the machine's speed.
constexpr int kSetupReps = 8;

/// One scheduled operation: due time after the window opens, and which
/// query a read asks.
struct Tick {
  Clock::duration due{};
  size_t query = 0;
};

/// Ticks at a constant \p per_second over \p seconds. Reads walk the
/// mix in blocks, each a seeded permutation of all \p queries: every
/// query is asked equally often, and no query keeps one phase against
/// the write schedule.
std::vector<Tick> Schedule(std::mt19937_64& rng, double per_second,
                           double seconds, size_t queries) {
  std::vector<Tick> ticks;
  std::vector<size_t> block;
  const auto n = static_cast<uint64_t>(per_second * seconds);
  for (uint64_t k = 0; k < n; ++k) {
    Tick tick;
    tick.due = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(k) / per_second));
    if (queries > 0) {
      if (block.empty()) {
        for (size_t q = 0; q < queries; ++q) block.push_back(q);
        std::shuffle(block.begin(), block.end(), rng);
      }
      tick.query = block.back();
      block.pop_back();
    }
    ticks.push_back(tick);
  }
  return ticks;
}

struct ReaderStats {
  std::vector<double> latency_ms;  ///< from the scheduled send time
  std::vector<std::pair<size_t, double>> per_query;
  std::vector<double> lag_ms;
  double client_ms = 0;  ///< actual send to response, summed
  uint64_t completed = 0;  ///< correct answers
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct WriterStats {
  std::vector<double> latency_ms;  ///< of the call; lateness is in lag_ms
  std::vector<double> lag_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Whether the last acknowledged write left the held-back slice in.
  bool slice_present = false;
};

/// One keep-alive connection of the read pool: takes the next unclaimed
/// tick whenever it is free, so a tick waits only when every connection
/// is busy.
void ReadLoop(uint16_t port, const std::vector<MixQuery>& mix,
              const std::vector<Answer>& with_slice,
              const std::vector<Tick>& ticks, Clock::time_point t0,
              std::atomic<size_t>* next, ReaderStats* out) {
  serve::HttpClient client("127.0.0.1", port);
  for (size_t k = next->fetch_add(1); k < ticks.size();
       k = next->fetch_add(1)) {
    const Clock::time_point due = t0 + ticks[k].due;
    const size_t qi = ticks[k].query;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const std::optional<Answer> a = PostQuery(client, mix[qi].text);
    const Clock::time_point done = Clock::now();
    out->lag_ms.push_back(MsBetween(due, sent));
    out->latency_ms.push_back(MsBetween(due, done));
    out->per_query.emplace_back(qi, MsBetween(due, done));
    out->client_ms += MsBetween(sent, done);
    ++out->attempted;
    if (a && (*a == *mix[qi].reference || *a == with_slice[qi])) {
      ++out->completed;
    } else {
      ++out->failed;
      std::fprintf(stderr, "read %s: %s\n", mix[qi].id.c_str(),
                   a ? "wrong answer" : "request failed");
    }
  }
}

/// The writer: InsertBatch(b) on even ticks, DeleteBatch(b) on odd ones.
/// The schedule has an odd number of ticks, so the last write inserts.
void WriteLoop(store::RdfStore* st, const std::vector<rdfrel::rdf::Triple>& b,
               const std::vector<Tick>& ticks, Clock::time_point t0,
               WriterStats* out) {
  for (size_t j = 0; j < ticks.size(); ++j) {
    const Clock::time_point due = t0 + ticks[j].due;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const bool insert = j % 2 == 0;
    const Status s = insert ? st->InsertBatch(b) : st->DeleteBatch(b);
    const Clock::time_point done = Clock::now();
    out->lag_ms.push_back(MsBetween(due, sent));
    out->latency_ms.push_back(MsBetween(sent, done));
    ++out->attempted;
    if (s.ok()) {
      out->slice_present = insert;
    } else {
      ++out->failed;
      std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
    }
  }
}

/// \p n distinct triples of \p graph, chosen by \p seed: one
/// `rdf:type :UndergraduateStudent` triple, so the slice changes the
/// answers of LQ6 and LQ14, then evenly spaced triples from a seed-derived
/// offset.
std::vector<rdfrel::rdf::Triple> SliceTriples(const rdfrel::rdf::Graph& graph,
                                              size_t n, uint64_t seed) {
  auto decoded = graph.DecodeAll();
  std::vector<rdfrel::rdf::Triple> out;
  if (!decoded.ok() || decoded->empty()) return out;
  const std::vector<rdfrel::rdf::Triple>& all = *decoded;
  const rdfrel::rdf::Term type = rdfrel::rdf::Term::Iri(
      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  const rdfrel::rdf::Term undergraduate =
      rdfrel::rdf::Term::Iri("http://lubm/UndergraduateStudent");
  std::vector<size_t> typed;
  for (size_t k = 0; k < all.size(); ++k) {
    if (all[k].predicate == type && all[k].object == undergraduate) {
      typed.push_back(k);
    }
  }
  if (typed.empty()) return out;
  std::mt19937_64 rng(seed);
  std::set<std::string> seen;
  auto add = [&](const rdfrel::rdf::Triple& t) {
    const std::string key = t.subject.ToNTriples() + ' ' +
                            t.predicate.ToNTriples() + ' ' +
                            t.object.ToNTriples();
    if (seen.insert(key).second) out.push_back(t);
  };
  add(all[typed[rng() % typed.size()]]);
  const size_t offset = rng() % all.size();
  const size_t stride = std::max<size_t>(1, all.size() / n);
  for (size_t k = 0; k < all.size() && out.size() < n; ++k) {
    add(all[(offset + k * stride) % all.size()]);
  }
  return out;
}

/// A persistent store behind a running endpoint.
struct Endpoint {
  std::unique_ptr<store::RdfStore> store;
  std::unique_ptr<serve::SparqlServer> server;
  std::string dir;

  void TearDown(bool remove_dir) {
    if (server != nullptr) server->Stop();
    server.reset();
    if (store != nullptr) (void)store->Close();
    store.reset();
    std::error_code ec;
    if (remove_dir && !dir.empty()) fs::remove_all(dir, ec);
  }
};

/// Load + EnablePersistence + Start, timed; the load alone in \p load_s.
Status StartEndpoint(const rdfrel::rdf::Graph& graph, const std::string& dir,
                     Endpoint* ep, double* setup_s, double* load_s) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  ep->dir = dir;
  rdfrel::rdf::Graph copy = graph;
  const Clock::time_point t0 = Clock::now();
  auto loaded = store::RdfStore::Load(std::move(copy));
  const Clock::time_point t1 = Clock::now();
  if (!loaded.ok()) return loaded.status();
  ep->store = std::move(loaded).value();
  RDFREL_RETURN_NOT_OK(ep->store->EnablePersistence(dir));
  ep->server = std::make_unique<serve::SparqlServer>(ep->store.get());
  RDFREL_RETURN_NOT_OK(ep->server->Start());
  *setup_s = MsBetween(t0, Clock::now()) / 1000.0;
  *load_s = MsBetween(t0, t1) / 1000.0;
  return Status::OK();
}

}  // namespace

RunOutput RunHttpRw(const Config& config) {
  RunOutput out;
  // Base = LUBM minus the held-back slice B; the writer toggles B.
  Dataset lubm = GenerateLubm();
  const std::vector<rdfrel::rdf::Triple> slice =
      SliceTriples(lubm.workload.graph, kWriteBatch, kSliceSeed);
  rdfrel::rdf::Graph full = std::move(lubm.workload.graph);
  {
    auto all = full.DecodeAll();
    if (!all.ok() || slice.size() != kWriteBatch) {
      out.Fail("cannot hold back the write slice");
      return out;
    }
    rdfrel::rdf::Graph base;
    for (const rdfrel::rdf::Triple& t : *all) {
      bool held_back = false;
      for (const rdfrel::rdf::Triple& b : slice) held_back |= t == b;
      if (!held_back) base.Add(t);
    }
    lubm.workload.graph = std::move(base);
  }

  // References for both data states: base, and base + B.
  std::vector<ReferenceJob> jobs(2);
  jobs[0].graph = &lubm.workload.graph;
  jobs[1].graph = &full;
  for (const auto& q : lubm.workload.queries) {
    jobs[0].queries.push_back(q.sparql);
    jobs[1].queries.push_back(q.sparql);
  }
  auto refs = ReferenceAnswers(jobs);
  if (!refs) {
    out.Fail("reference answers could not be computed");
    return out;
  }
  lubm.reference = (*refs)[0];
  LogPhase("reference");
  const std::vector<Answer>& with_slice = (*refs)[1];
  // The two-state read gate and the reopen check only catch anything if
  // B changes some answer.
  if (with_slice == lubm.reference) {
    out.Fail("the write slice changes no query's answer");
    return out;
  }

  std::vector<double> setups;
  std::vector<double> loads;
  // Starts kSetupReps endpoints one after another, each in a fresh
  // directory, leaving the last one running in *ep.
  auto timed_setups = [&](const char* batch, Endpoint* ep) {
    for (int r = 0; r < kSetupReps; ++r) {
      ep->TearDown(/*remove_dir=*/true);
      double setup_s = 0;
      double load_s = 0;
      const Status s = StartEndpoint(
          lubm.workload.graph,
          config.workdir + "/http_rw-" + batch + std::to_string(r), ep,
          &setup_s, &load_s);
      if (!s.ok()) {
        ep->TearDown(true);
        out.Fail("endpoint setup: " + s.ToString());
        return false;
      }
      setups.push_back(setup_s);
      loads.push_back(load_s);
      std::fprintf(stderr, "perfbench: setup %.4f s (load %.4f s)\n",
                   setup_s, load_s);
    }
    return true;
  };
  Endpoint ep;
  if (!timed_setups("a", &ep)) return out;
  LogPhase("setup");
  lubm.store = std::move(ep.store);
  store::RdfStore* st = lubm.store.get();
  out.record = RecordJson(config, lubm);
  std::vector<MixQuery> mix = MixOf(lubm);
  const uint16_t port = ep.server->port();

  // Warm-up: one read of each query through the endpoint.
  {
    serve::HttpClient client("127.0.0.1", port);
    for (const MixQuery& q : mix) {
      ++out.attempted;
      const std::optional<Answer> a = PostQuery(client, q.text);
      if (!a || *a != *q.reference) {
        ++out.failed;
        std::fprintf(stderr, "warm-up %s failed\n", q.id.c_str());
      }
    }
  }

  const auto plan0 = st->plan_cache_stats();
  const auto page0 = st->page_cache_stats();
  std::mt19937_64 rng(config.seed);
  const std::vector<Tick> reads =
      Schedule(rng, kReadsPerSecond, config.seconds, mix.size());
  std::vector<Tick> writes =
      Schedule(rng, kWritesPerSecond, config.seconds, 0);
  if (writes.size() % 2 == 0) writes.pop_back();  // end on an insert
  std::vector<ReaderStats> readers(kConnections);
  WriterStats writer;
  std::atomic<size_t> next_read{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(10);
  {
    std::vector<std::thread> threads;
    for (ReaderStats& r : readers) {
      threads.emplace_back(ReadLoop, port, std::cref(mix),
                           std::cref(with_slice), std::cref(reads), t0,
                           &next_read, &r);
    }
    threads.emplace_back(WriteLoop, st, std::cref(slice), std::cref(writes),
                         t0, &writer);
    for (std::thread& t : threads) t.join();
  }
  LogPhase("timed");
  const auto plan_cache = CacheDelta(st->plan_cache_stats(), plan0);
  const auto page_cache = CacheDelta(st->page_cache_stats(), page0);
  const rdfrel::persist::PersistStats ps = st->persist_stats();

  std::vector<double> read_ms;
  std::vector<double> lag_ms = writer.lag_ms;
  std::vector<std::vector<double>> per_query(mix.size());
  double client_ms = 0;
  uint64_t read_completed = 0;
  for (const ReaderStats& r : readers) {
    read_ms.insert(read_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    lag_ms.insert(lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
    for (const auto& [qi, ms] : r.per_query) per_query[qi].push_back(ms);
    client_ms += r.client_ms;
    read_completed += r.completed;
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
  out.attempted += writer.attempted;
  out.failed += writer.failed;
  const ServeStats serve = ServerSideStats(
      *ep.server, read_ms.empty()
                      ? 0
                      : client_ms / static_cast<double>(read_ms.size()));

  // The state every later check expects: the last acknowledged write.
  std::vector<Answer> final_refs =
      writer.slice_present ? with_slice : lubm.reference;
  for (size_t i = 0; i < mix.size(); ++i) mix[i].reference = &final_refs[i];

  Tracer tracer;
  std::vector<LayerSample> samples;
  if (config.trace) samples = TracedPass(*st, mix, tracer, out);
  LogPhase("traced pass");

  // Recovery: close, reopen from the directory, expect the last
  // acknowledged state.
  ep.server->Stop();
  ep.server.reset();
  if (Status s = st->Close(); !s.ok()) out.Fail("close: " + s.ToString());
  const Clock::time_point r0 = Clock::now();
  auto reopened = store::RdfStore::Open(ep.dir);
  const double reopen_ms = MsBetween(r0, Clock::now());
  if (!reopened.ok()) {
    out.Fail("reopen: " + reopened.status().ToString());
  } else {
    const uint64_t failed_before = out.failed;
    CheckQueries(**reopened, mix, out, "after reopen");
    if (out.failed != failed_before) {
      out.Fail("reopened store lost the last acknowledged write");
    }
    (void)(*reopened)->Close();
  }
  LogPhase("reopen");
  {
    Endpoint later;
    const bool ok = timed_setups("b", &later);
    later.TearDown(/*remove_dir=*/true);
    if (!ok) return out;
  }
  LogPhase("setup, 2nd batch");

  std::vector<double> medians;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (per_query[i].empty()) continue;
    medians.push_back(Median(per_query[i]));
    out.query_medians_ms.emplace_back(mix[i].id, medians.back());
  }
  auto& e = out.end_to_end;
  AddMetric(e, "setup_s", Median(setups), "s");
  AddMetric(e, "query_p50_ms", Quantile(read_ms, 0.50), "ms");
  AddMetric(e, "query_p99_ms", Quantile(read_ms, 0.99), "ms");
  AddMetric(e, "query_geomean_ms", Geomean(medians), "ms");
  // Per second a connection spent waiting on a response: the offered
  // rate is fixed, so completions per second of the window could not move.
  AddMetric(e, "queries_per_s",
            client_ms > 0 ? static_cast<double>(read_completed) /
                                (client_ms / 1000.0)
                          : 0,
            "1/s");
  AddMetric(e, "peak_rss_mb", PeakRssMb(), "MiB");

  if (config.trace) {
    AddTracedLayerMetrics(samples, out);
    auto& m = out.per_layer;
    const double acked = static_cast<double>(writer.attempted - writer.failed);
    AddMetric(m, "sql.page_cache_hit_ratio", page_cache.hit_rate(),
              "ratio");
    AddMetric(m, "store.plan_cache_hit_ratio", plan_cache.hit_rate(),
              "ratio");
    AddMetric(m, "serve.handler_p50_ms", serve.handler_p50_ms, "ms");
    AddMetric(m, "serve.handler_p99_ms", serve.handler_p99_ms, "ms");
    AddMetric(m, "serve.outside_handler_ms",
              serve.client_mean_ms - serve.handler_mean_ms, "ms");
    AddMetric(m, "serve.bytes_per_query", serve.bytes_per_query, "bytes");
    AddMetric(m, "store.write_p50_ms", Quantile(writer.latency_ms, 0.50),
              "ms");
    AddMetric(m, "store.write_p99_ms", Quantile(writer.latency_ms, 0.99),
              "ms");
    AddMetric(m, "persist.fsyncs_per_write",
              acked > 0 ? static_cast<double>(ps.fsyncs) / acked : 0, "count");
    AddMetric(m, "persist.group_commit_batch", ps.avg_group_commit_batch,
              "count");
    AddMetric(m, "persist.wal_bytes_per_triple",
              acked > 0 ? static_cast<double>(ps.wal_bytes) /
                              (acked * static_cast<double>(slice.size()))
                        : 0,
              "bytes");
    AddMetric(m, "persist.reopen_ms", reopen_ms, "ms");
    AddMetric(m, "schema.load_ms", Median(loads) * 1000.0, "ms");
    AddMetric(m, "schema.spill_rows", static_cast<double>(SpillRows(lubm)),
              "count");
    AddMetric(m, "loadgen.lag_p99_ms", Quantile(lag_ms, 0.99), "ms");
    AddMetric(m, "trace.coverage", tracer.Coverage(), "ratio");
    // The traced copy on the handler's path (plan-cache misses pay the
    // front half) against the endpoint's own mean handler time.
    double traced = 0;
    const double miss = 1.0 - plan_cache.hit_rate();
    for (const LayerSample& s : samples) {
      traced += s.execute_decoded_ms + s.serialize_ms +
                miss * s.front_half_ms();
    }
    traced /= samples.empty() ? 1.0 : static_cast<double>(samples.size());
    AddMetric(m, "trace.overhead",
              serve.handler_mean_ms > 0 ? traced / serve.handler_mean_ms - 1
                                        : 0,
              "ratio");
    WriteTrace(config, tracer, out.record, out);
  }
  std::error_code ec;
  fs::remove_all(ep.dir, ec);
  return out;
}

}  // namespace perfbench
