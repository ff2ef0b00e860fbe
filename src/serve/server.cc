#include "serve/server.h"

#include <charconv>
#include <cstdio>
#include <utility>

#include "serve/result_writer.h"
#include "store/row_sink.h"

namespace rdfrel::serve {

namespace {

/// Once the buffered body crosses this, the response switches from a single
/// Content-Length message to chunked streaming. Small enough that big scans
/// stream early, big enough that the typical point query goes out in one
/// write with an exact length.
constexpr size_t kStreamThreshold = 32 * 1024;

/// Read granularity for the connection loop.
constexpr size_t kReadChunk = 16 * 1024;

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::string CacheStatsJson(const util::CacheStats& s) {
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f", s.hit_rate());
  return "{\"hits\":" + std::to_string(s.hits) +
         ",\"misses\":" + std::to_string(s.misses) +
         ",\"evictions\":" + std::to_string(s.evictions) +
         ",\"entries\":" + std::to_string(s.entries) +
         ",\"hit_rate\":" + rate + "}";
}

std::string PersistStatsJson(const persist::PersistStats& s) {
  return "{\"wal_records\":" + std::to_string(s.wal_records) +
         ",\"wal_bytes\":" + std::to_string(s.wal_bytes) +
         ",\"fsyncs\":" + std::to_string(s.fsyncs) +
         ",\"group_commit_batches\":" +
         std::to_string(s.group_commit_batches) +
         ",\"last_lsn\":" + std::to_string(s.last_lsn) +
         ",\"last_checkpoint_lsn\":" +
         std::to_string(s.last_checkpoint_lsn) +
         ",\"snapshots_written\":" + std::to_string(s.snapshots_written) +
         ",\"replayed_records\":" + std::to_string(s.replayed_records) + "}";
}

/// Streams query results onto one connection. Buffers until
/// kStreamThreshold: a small result goes out as one Content-Length
/// response (and an error before that point can still become a clean HTTP
/// error); past the threshold the 200 head + chunked encoding start and
/// the only failure mode left is aborting the connection.
class HttpStreamSink final : public store::RowSink {
 public:
  HttpStreamSink(int fd, ResultWriter* writer, bool keep_alive)
      : fd_(fd), writer_(writer), keep_alive_(keep_alive) {}

  Status Begin(const std::vector<std::string>& vars) override {
    writer_->Begin(vars, &buf_);
    return Status::OK();
  }

  Status OnRows(std::vector<store::Binding>&& rows) override {
    writer_->AppendRows(rows, &buf_);
    if (!head_sent_ && buf_.size() >= kStreamThreshold) {
      RDFREL_RETURN_NOT_OK(SendChunkedHead());
    }
    if (head_sent_) return FlushChunk();
    return Status::OK();
  }

  Status End() override {
    writer_->End(&buf_);
    if (head_sent_) {
      RDFREL_RETURN_NOT_OK(FlushChunk());
      return Write("0\r\n\r\n");
    }
    return Status::OK();  // still buffered; FinishBuffered sends it
  }

  /// Sends the fully buffered body as one Content-Length response.
  Status FinishBuffered() {
    std::string head = FormatResponseHead(
        200, {{"Content-Type", std::string(writer_->content_type())},
              {"Content-Length", std::to_string(buf_.size())},
              {"Connection", keep_alive_ ? "keep-alive" : "close"}});
    body_bytes_ += buf_.size();
    head += buf_;
    buf_.clear();
    return Write(head);
  }

  bool head_sent() const { return head_sent_; }
  bool io_failed() const { return io_failed_; }
  uint64_t body_bytes() const { return body_bytes_; }

 private:
  Status SendChunkedHead() {
    std::string head = FormatResponseHead(
        200, {{"Content-Type", std::string(writer_->content_type())},
              {"Transfer-Encoding", "chunked"},
              {"Connection", keep_alive_ ? "keep-alive" : "close"}});
    RDFREL_RETURN_NOT_OK(Write(head));
    head_sent_ = true;
    return Status::OK();
  }

  Status FlushChunk() {
    if (buf_.empty()) return Status::OK();
    char size_line[32];
    int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                          buf_.size());
    std::string chunk(size_line, static_cast<size_t>(n));
    chunk += buf_;
    chunk += "\r\n";
    body_bytes_ += buf_.size();
    buf_.clear();
    return Write(chunk);
  }

  Status Write(std::string_view data) {
    Status st = WriteAll(fd_, data);
    if (!st.ok()) io_failed_ = true;
    return st;
  }

  int fd_;
  ResultWriter* writer_;
  bool keep_alive_;
  std::string buf_;
  bool head_sent_ = false;
  bool io_failed_ = false;
  uint64_t body_bytes_ = 0;
};

/// Picks json/tsv from the explicit format= parameter, else Accept.
/// Empty string = unsupported explicit format (a 400).
std::string PickFormat(const HttpRequest& req) {
  if (auto f = req.QueryParam("format"); f.has_value()) {
    if (*f == "json" || *f == "tsv") return *f;
    return "";
  }
  if (auto a = req.Header("accept"); a.has_value()) {
    if (a->find("text/tab-separated-values") != std::string::npos) {
      return "tsv";
    }
  }
  return "json";
}

}  // namespace

SparqlServer::SparqlServer(store::SparqlStore* store, ServerOptions options)
    : store_(store), options_(std::move(options)) {}

SparqlServer::~SparqlServer() { Stop(); }

Status SparqlServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  RDFREL_ASSIGN_OR_RETURN(
      listen_fd_, ListenTcp(options_.host, options_.port,
                            /*backlog=*/128, &port_));
  started_ = true;
  started_at_ = std::chrono::steady_clock::now();
  stop_.store(false, std::memory_order_relaxed);

  int workers = options_.workers > 0 ? options_.workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SparqlServer::Stop() {
  if (!started_) return;
  // The flag is also every in-flight query's cancel token: long scans stop
  // at their next batch boundary and the worker answers 503.
  stop_.store(true, std::memory_order_seq_cst);
  {
    // Notify under the lock: a worker between its wait-loop check and the
    // block cannot miss the wakeup.
    util::MutexLock lock(&mu_);
    cv_.NotifyAll();
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    util::MutexLock lock(&mu_);
    pending_.clear();  // unclaimed connections just close
  }
  listen_fd_.reset();
  started_ = false;
}

void SparqlServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Short poll so Stop() is observed promptly without pipe tricks.
    Result<bool> ready = WaitReadable(listen_fd_.get(), 100);
    if (!ready.ok() || !*ready) continue;
    Result<UniqueFd> accepted = AcceptTcp(listen_fd_.get());
    if (!accepted.ok()) continue;
    UniqueFd conn = std::move(accepted).value();
    metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);

    {
      util::MutexLock lock(&mu_);
      if (pending_.size() < options_.max_pending) {
        pending_.push_back(std::move(conn));
        cv_.NotifyOne();
        continue;
      }
    }
    // Admission control: the queue is full, shed instead of queueing into
    // unbounded latency. The response is tiny; a blocking write to a
    // freshly accepted socket cannot stall.
    metrics_.connections_shed.fetch_add(1, std::memory_order_relaxed);
    std::string body = "{\"error\":\"server overloaded, retry later\"}\n";
    std::string resp = FormatResponseHead(
        503, {{"Content-Type", "application/json"},
              {"Content-Length", std::to_string(body.size())},
              {"Retry-After", "1"},
              {"Connection", "close"}});
    resp += body;
    IgnoreError(WriteAll(conn.get(), resp),
                "overload shed: the 503 is a courtesy, the close is the point");
  }
}

void SparqlServer::WorkerLoop() {
  for (;;) {
    UniqueFd conn;
    {
      util::MutexLock lock(&mu_);
      while (!stop_.load(std::memory_order_relaxed) && pending_.empty()) {
        cv_.Wait(mu_);
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    HandleConnection(std::move(conn));
  }
}

void SparqlServer::HandleConnection(UniqueFd conn) {
  std::string inbuf;
  char read_buf[kReadChunk];
  HttpParser parser(options_.limits);

  while (!stop_.load(std::memory_order_relaxed)) {
    // Assemble one request.
    while (!parser.complete()) {
      if (inbuf.empty()) {
        Result<bool> ready =
            WaitReadable(conn.get(), options_.idle_timeout_ms);
        if (!ready.ok() || !*ready) return;  // idle timeout / error
        if (stop_.load(std::memory_order_relaxed)) return;
        Result<size_t> n = ReadSome(conn.get(), read_buf, sizeof(read_buf));
        if (!n.ok() || *n == 0) return;  // peer closed
        inbuf.assign(read_buf, *n);
      }
      Result<size_t> consumed = parser.Feed(inbuf);
      if (!consumed.ok()) {
        metrics_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        int code = parser.http_error_code() != 0 ? parser.http_error_code()
                                                 : 400;
        SendError(conn.get(), code, consumed.status().message(),
                  /*keep_alive=*/false);
        return;  // framing is unrecoverable: close
      }
      inbuf.erase(0, *consumed);
    }

    HttpRequest& req = parser.request();
    bool keep = HandleRequest(conn.get(), req) && req.KeepAlive();
    if (!keep) return;
    parser.Reset();  // next request may already be pipelined in inbuf
  }
}

bool SparqlServer::HandleRequest(int fd, const HttpRequest& req) {
  bool keep_alive = req.KeepAlive();
  if (req.path == "/sparql") {
    if (req.method != "GET" && req.method != "POST") {
      std::string body = "{\"error\":\"method not allowed\"}\n";
      std::string resp = FormatResponseHead(
          405, {{"Content-Type", "application/json"},
                {"Content-Length", std::to_string(body.size())},
                {"Allow", "GET, POST"},
                {"Connection", keep_alive ? "keep-alive" : "close"}});
      resp += body;
      return WriteAll(fd, resp).ok() && keep_alive;
    }
    return HandleSparql(fd, req);
  }
  if (req.path == "/stats") {
    if (req.method != "GET") {
      return SendError(fd, 405, "method not allowed", keep_alive);
    }
    auto t0 = std::chrono::steady_clock::now();
    std::string body = StatsJson();
    body.push_back('\n');
    metrics_.stats.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.stats.bytes_out.fetch_add(body.size(),
                                       std::memory_order_relaxed);
    metrics_.stats.latency.Record(MicrosSince(t0));
    return SendSimple(fd, 200, "application/json", body, keep_alive);
  }
  if (req.path == "/healthz") {
    if (req.method != "GET") {
      return SendError(fd, 405, "method not allowed", keep_alive);
    }
    return SendSimple(fd, 200, "text/plain", "ok\n", keep_alive);
  }
  return SendError(fd, 404, "no such endpoint: " + req.path, keep_alive);
}

bool SparqlServer::HandleSparql(int fd, const HttpRequest& req) {
  auto t0 = std::chrono::steady_clock::now();
  bool keep_alive = req.KeepAlive();
  auto fail = [&](int code, const std::string& msg) {
    metrics_.sparql.errors.fetch_add(1, std::memory_order_relaxed);
    metrics_.sparql.latency.Record(MicrosSince(t0));
    return SendError(fd, code, msg, keep_alive);
  };

  // The query text: ?query= on GET; on POST either a form body or a raw
  // application/sparql-query body (SPARQL 1.1 Protocol's two POST modes).
  std::optional<std::string> query = req.QueryParam("query");
  if (req.method == "POST") {
    std::string ctype = req.Header("content-type").value_or("");
    // Strip any ;charset=... parameter.
    std::string media = ctype.substr(0, ctype.find(';'));
    while (!media.empty() && media.back() == ' ') media.pop_back();
    if (media == "application/x-www-form-urlencoded") {
      auto form = ParseQueryString(req.body);
      if (auto it = form.find("query"); it != form.end()) {
        query = it->second;
      }
    } else if (media == "application/sparql-query") {
      query = req.body;
    } else if (!req.body.empty()) {
      return fail(415, "unsupported content type: " + ctype);
    }
  }
  if (!query.has_value() || query->empty()) {
    return fail(400, "missing query parameter");
  }

  std::string format = PickFormat(req);
  if (format.empty()) {
    return fail(400, "unsupported format (expected json or tsv)");
  }

  auto timeout = options_.default_timeout;
  if (auto t = req.QueryParam("timeout"); t.has_value()) {
    int64_t ms = 0;
    auto [ptr, ec] =
        std::from_chars(t->data(), t->data() + t->size(), ms);
    if (ec != std::errc() || ptr != t->data() + t->size() || ms <= 0) {
      return fail(400, "timeout must be a positive integer (milliseconds)");
    }
    timeout = std::chrono::milliseconds(ms);
  }
  if (timeout > options_.max_timeout) timeout = options_.max_timeout;

  store::QueryOptions opts;
  opts.WithTimeout(timeout);
  opts.cancel = &stop_;  // shutdown cancels in-flight queries
  std::unique_ptr<ResultWriter> writer = MakeResultWriter(format);
  HttpStreamSink sink(fd, writer.get(), keep_alive);
  Status st = store_->QueryWith(*query, opts, sink);

  if (st.ok()) {
    // Count before the final write so a client that has read the response
    // observes its own request in /stats.
    metrics_.sparql.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.sparql.latency.Record(MicrosSince(t0));
    if (!sink.head_sent()) {
      st = sink.FinishBuffered();
    }
    metrics_.sparql.bytes_out.fetch_add(sink.body_bytes(),
                                        std::memory_order_relaxed);
    return st.ok();
  }

  if (sink.io_failed()) {
    // The client went away mid-stream; nothing left to answer.
    metrics_.cancelled.fetch_add(1, std::memory_order_relaxed);
    metrics_.sparql.latency.Record(MicrosSince(t0));
    return false;
  }
  if (sink.head_sent()) {
    // 200 + chunked already on the wire: the only honest signal left is a
    // truncated chunked body (no terminal chunk), so abort the connection.
    metrics_.streams_aborted.fetch_add(1, std::memory_order_relaxed);
    metrics_.sparql.errors.fetch_add(1, std::memory_order_relaxed);
    metrics_.sparql.latency.Record(MicrosSince(t0));
    return false;
  }

  switch (st.code()) {
    case StatusCode::kDeadlineExceeded:
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      return fail(504, st.message());
    case StatusCode::kCancelled:
      // Not an I/O failure, so the cancel came from shutdown.
      metrics_.cancelled.fetch_add(1, std::memory_order_relaxed);
      metrics_.sparql.latency.Record(MicrosSince(t0));
      SendError(fd, 503, "server shutting down", /*keep_alive=*/false);
      return false;
    case StatusCode::kParseError:
    case StatusCode::kInvalidQuery:
    case StatusCode::kInvalidArgument:
    case StatusCode::kUnsupported:
    case StatusCode::kNotFound:
      return fail(400, st.ToString());
    default:
      return fail(500, st.ToString());
  }
}

bool SparqlServer::SendSimple(int fd, int code, std::string_view content_type,
                              std::string_view body, bool keep_alive) {
  std::string resp = FormatResponseHead(
      code, {{"Content-Type", std::string(content_type)},
             {"Content-Length", std::to_string(body.size())},
             {"Connection", keep_alive ? "keep-alive" : "close"}});
  resp += body;
  return WriteAll(fd, resp).ok() && keep_alive;
}

bool SparqlServer::SendError(int fd, int code, std::string_view message,
                             bool keep_alive) {
  std::string body = "{\"error\":\"" + JsonEscape(message) +
                     "\",\"status\":" + std::to_string(code) + "}\n";
  return SendSimple(fd, code, "application/json", body, keep_alive);
}

std::string SparqlServer::StatsJson() const {
  auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::steady_clock::now() - started_at_)
                    .count();
  std::string out = "{";
  out += "\"store\":\"" + JsonEscape(store_->name()) + "\"";
  out += ",\"uptime_s\":" + std::to_string(uptime);
  out += ",\"plan_cache\":" + CacheStatsJson(store_->plan_cache_stats());
  out += ",\"persist\":" + PersistStatsJson(store_->persist_stats());
  out += ",\"server\":{";
  out += "\"connections_accepted\":" +
         std::to_string(
             metrics_.connections_accepted.load(std::memory_order_relaxed));
  out += ",\"connections_shed\":" +
         std::to_string(
             metrics_.connections_shed.load(std::memory_order_relaxed));
  out += ",\"requests_bad\":" +
         std::to_string(
             metrics_.requests_bad.load(std::memory_order_relaxed));
  out += ",\"deadline_exceeded\":" +
         std::to_string(
             metrics_.deadline_exceeded.load(std::memory_order_relaxed));
  out += ",\"cancelled\":" +
         std::to_string(metrics_.cancelled.load(std::memory_order_relaxed));
  out += ",\"streams_aborted\":" +
         std::to_string(
             metrics_.streams_aborted.load(std::memory_order_relaxed));
  out += "}";
  out += ",\"endpoints\":{\"sparql\":" + metrics_.sparql.ToJson();
  out += ",\"stats\":" + metrics_.stats.ToJson() + "}";
  out += "}";
  return out;
}

}  // namespace rdfrel::serve
