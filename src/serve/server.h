#ifndef RDFREL_SERVE_SERVER_H_
#define RDFREL_SERVE_SERVER_H_

/// \file server.h
/// The SPARQL-protocol HTTP endpoint: a multi-threaded HTTP/1.1 server in
/// front of any SparqlStore. Deliberately a thin seam — all query semantics
/// live in the store's streaming `QueryWith`; this layer only speaks the
/// protocol:
///
///  - one acceptor thread + a bounded worker pool. Accepted connections
///    queue up to `max_pending`; beyond that the acceptor sheds load with
///    an immediate 503 instead of letting latency collapse (admission
///    control, not backpressure — a shed client can retry elsewhere).
///  - HTTP/1.1 keep-alive: a worker owns a connection for its lifetime and
///    serves requests back-to-back until close / idle timeout / error.
///  - per-query deadlines: `?timeout=<ms>` (clamped to `max_timeout`,
///    default `default_timeout`) becomes QueryOptions::deadline, which the
///    executor checks at batch boundaries; expiry answers 504.
///  - streaming results: each RowSink block is serialized (SPARQL JSON or
///    TSV) and written as an HTTP chunk, so first bytes hit the wire before
///    the scan finishes. Small results (under one flush threshold) are sent
///    as a plain Content-Length response instead; a failure after the 200
///    head went out can only abort the connection mid-chunk (counted in
///    metrics.streams_aborted).
///
/// Routes:
///   GET/POST /sparql  — query= (or form/application/sparql-query body),
///                       format=json|tsv (or Accept), timeout=<ms>
///   GET      /stats   — JSON: store caches, persistence, endpoint metrics
///   GET      /healthz — liveness probe
///
/// Stop() is graceful: the shutdown flag doubles as the cancel token wired
/// into every in-flight query, so long scans stop at the next batch
/// boundary and workers drain quickly.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/net.h"
#include "store/sparql_store.h"
#include "util/mutex.h"
#include "util/status.h"

namespace rdfrel::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port from port()
  int workers = 4;
  /// Accepted-but-unclaimed connections beyond which the acceptor sheds
  /// with 503. Bounds queueing delay under overload.
  size_t max_pending = 64;
  std::chrono::milliseconds default_timeout{30'000};
  std::chrono::milliseconds max_timeout{300'000};
  /// Keep-alive connections idle longer than this are closed.
  int idle_timeout_ms = 5'000;
  HttpLimits limits;
};

class SparqlServer {
 public:
  /// \p store is borrowed and must outlive the server.
  explicit SparqlServer(store::SparqlStore* store, ServerOptions options = {});
  ~SparqlServer();  ///< Stops if still running.

  SparqlServer(const SparqlServer&) = delete;
  SparqlServer& operator=(const SparqlServer&) = delete;

  /// Binds, listens and spawns the acceptor + workers. Call once.
  Status Start();

  /// Graceful shutdown: stops accepting, cancels in-flight queries at the
  /// next batch boundary, joins all threads. Idempotent.
  void Stop();

  /// The bound TCP port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  const ServerMetrics& metrics() const { return metrics_; }

  /// The /stats response body (exposed for tests and the demo).
  std::string StatsJson() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(UniqueFd conn);
  /// Dispatches one parsed request; returns false to close the connection.
  bool HandleRequest(int fd, const HttpRequest& req);
  bool HandleSparql(int fd, const HttpRequest& req);
  bool SendSimple(int fd, int code, std::string_view content_type,
                  std::string_view body, bool keep_alive);
  bool SendError(int fd, int code, std::string_view message, bool keep_alive);

  store::SparqlStore* store_;
  ServerOptions options_;
  ServerMetrics metrics_;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point started_at_{};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // kServer: the outermost rank — a worker still holds nothing when it
  // dequeues a connection, and query execution below takes the store,
  // cache and WAL locks in hierarchy order.
  util::Mutex mu_{"server-queue", util::lock_rank::kServer};
  util::CondVar cv_;
  /// Accepted connections awaiting a worker.
  std::deque<UniqueFd> pending_ RDFREL_GUARDED_BY(mu_);
};

}  // namespace rdfrel::serve

#endif  // RDFREL_SERVE_SERVER_H_
