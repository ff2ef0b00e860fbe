/// Unit tests for the HTTP message layer: the incremental request parser
/// (including the malformed-request negatives the server answers with
/// specific 4xx/5xx codes), URL/query decoding, the streaming result
/// writers' batch-boundary independence, the latency histogram, and the
/// socket options of loopback connections.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/term.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/net.h"
#include "serve/result_writer.h"

namespace rdfrel::serve {
namespace {

// --- Parser: well-formed requests ---

TEST(ServeHttpTest, ParsesSimpleGet) {
  HttpParser p;
  std::string req =
      "GET /sparql?query=SELECT%20*&format=json HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Accept: application/sparql-results+json\r\n"
      "\r\n";
  auto consumed = p.Feed(req);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(*consumed, req.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().path, "/sparql");
  EXPECT_EQ(p.request().QueryParam("query").value_or(""), "SELECT *");
  EXPECT_EQ(p.request().QueryParam("format").value_or(""), "json");
  EXPECT_EQ(p.request().Header("host").value_or(""), "localhost");
  EXPECT_TRUE(p.request().KeepAlive());
}

TEST(ServeHttpTest, ParsesByteAtATime) {
  HttpParser p;
  std::string req =
      "POST /sparql HTTP/1.1\r\nContent-Length: 11\r\n\r\nquery=hello";
  for (char c : req) {
    auto consumed = p.Feed(std::string_view(&c, 1));
    ASSERT_TRUE(consumed.ok());
    ASSERT_EQ(*consumed, 1u);
  }
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().body, "query=hello");
}

TEST(ServeHttpTest, LeavesPipelinedBytesUnconsumed) {
  HttpParser p;
  std::string two =
      "GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n";
  auto consumed = p.Feed(two);
  ASSERT_TRUE(consumed.ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().path, "/healthz");
  // The second request's bytes must be left for the next parse.
  EXPECT_LT(*consumed, two.size());
  p.Reset();
  auto consumed2 = p.Feed(std::string_view(two).substr(*consumed));
  ASSERT_TRUE(consumed2.ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().path, "/stats");
}

TEST(ServeHttpTest, KeepAliveRules) {
  auto parse = [](const std::string& req) {
    HttpParser p;
    auto c = p.Feed(req);
    EXPECT_TRUE(c.ok() && p.complete()) << req;
    return p.request().KeepAlive();
  };
  // 1.1 defaults to keep-alive; explicit close wins.
  EXPECT_TRUE(parse("GET / HTTP/1.1\r\n\r\n"));
  EXPECT_FALSE(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  // 1.0 defaults to close; explicit keep-alive wins.
  EXPECT_FALSE(parse("GET / HTTP/1.0\r\n\r\n"));
  EXPECT_TRUE(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
}

TEST(ServeHttpTest, ToleratesBareLfAndLeadingBlankLines) {
  HttpParser p;
  auto consumed = p.Feed("\r\n\r\nGET /x HTTP/1.1\nHost: h\n\n");
  ASSERT_TRUE(consumed.ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().path, "/x");
  EXPECT_EQ(p.request().Header("host").value_or(""), "h");
}

// --- Parser: malformed-request negatives (the codes the server sends) ---

int FeedExpectError(const std::string& req) {
  HttpParser p;
  auto consumed = p.Feed(req);
  EXPECT_FALSE(consumed.ok()) << "parsed unexpectedly: " << req;
  return p.http_error_code();
}

TEST(ServeHttpTest, RejectsMalformedRequestLine) {
  EXPECT_EQ(FeedExpectError("GET\r\n\r\n"), 400);
  EXPECT_EQ(FeedExpectError("GET /\r\n\r\n"), 400);          // no version
  EXPECT_EQ(FeedExpectError("G@T / HTTP/1.1\r\n\r\n"), 400);  // bad method
  EXPECT_EQ(FeedExpectError("GET no-slash HTTP/1.1\r\n\r\n"), 400);
}

TEST(ServeHttpTest, RejectsUnsupportedVersion) {
  EXPECT_EQ(FeedExpectError("GET / HTTP/2.0\r\n\r\n"), 505);
  EXPECT_EQ(FeedExpectError("GET / FTP/1.1\r\n\r\n"), 400);
}

TEST(ServeHttpTest, RejectsMalformedHeader) {
  EXPECT_EQ(FeedExpectError("GET / HTTP/1.1\r\nno colon here\r\n\r\n"), 400);
  EXPECT_EQ(FeedExpectError("GET / HTTP/1.1\r\n: empty-name\r\n\r\n"), 400);
  EXPECT_EQ(
      FeedExpectError("GET / HTTP/1.1\r\nBad Name: x\r\n\r\n"), 400);
}

TEST(ServeHttpTest, RejectsMalformedContentLength) {
  EXPECT_EQ(
      FeedExpectError("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
      400);
  EXPECT_EQ(
      FeedExpectError("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
      400);
}

TEST(ServeHttpTest, RejectsChunkedRequestsWith501) {
  EXPECT_EQ(FeedExpectError(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            501);
}

TEST(ServeHttpTest, EnforcesSizeLimits) {
  HttpLimits tight;
  tight.max_request_line = 64;
  tight.max_header_bytes = 128;
  tight.max_body_bytes = 16;
  {
    HttpParser p(tight);
    std::string long_target(200, 'a');
    auto c = p.Feed("GET /" + long_target + " HTTP/1.1\r\n\r\n");
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(p.http_error_code(), 414);
  }
  {
    HttpParser p(tight);
    std::string big_header(300, 'v');
    auto c = p.Feed("GET / HTTP/1.1\r\nX-Big: " + big_header + "\r\n\r\n");
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(p.http_error_code(), 431);
  }
  {
    HttpParser p(tight);
    auto c = p.Feed("POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(p.http_error_code(), 413);
  }
}

TEST(ServeHttpTest, ErrorsAreSticky) {
  HttpParser p;
  EXPECT_FALSE(p.Feed("BROKEN\r\n\r\n").ok());
  EXPECT_FALSE(p.Feed("GET / HTTP/1.1\r\n\r\n").ok());
  p.Reset();
  EXPECT_TRUE(p.Feed("GET / HTTP/1.1\r\n\r\n").ok());
  EXPECT_TRUE(p.complete());
}

// --- URL / query-string decoding ---

TEST(ServeHttpTest, UrlDecodeAndQueryString) {
  EXPECT_EQ(UrlDecode("a%20b%2Fc", false), "a b/c");
  EXPECT_EQ(UrlDecode("a+b", true), "a b");
  EXPECT_EQ(UrlDecode("a+b", false), "a+b");
  EXPECT_EQ(UrlDecode("bad%zzescape", true), "bad%zzescape");

  auto params = ParseQueryString("query=SELECT+%3Fs&timeout=100&flag");
  EXPECT_EQ(params.find("query")->second, "SELECT ?s");
  EXPECT_EQ(params.find("timeout")->second, "100");
  EXPECT_EQ(params.find("flag")->second, "");

  // Round-trip through encode.
  std::string nasty = "SELECT ?s WHERE { ?s <http://x/p> \"a b&c=d\" }";
  auto round = ParseQueryString("q=" + UrlEncode(nasty));
  EXPECT_EQ(round.find("q")->second, nasty);
}

TEST(ServeHttpTest, JsonEscapeControlsAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

// --- Result writers: output must not depend on batch boundaries ---

std::vector<store::Binding> MakeRows() {
  using rdf::Term;
  std::vector<store::Binding> rows;
  rows.push_back({Term::Iri("http://x/s1"), Term::Literal("v1")});
  rows.push_back({Term::Iri("http://x/s2"), std::nullopt});  // unbound
  rows.push_back(
      {Term::TypedLiteral("ch\"ars",
                          "http://www.w3.org/2001/XMLSchema#string"),
       Term::LangLiteral("fr-val", "fr")});
  return rows;
}

TEST(ServeHttpTest, WritersAreBatchBoundaryIndependent) {
  std::vector<std::string> vars = {"s", "o"};
  auto rows = MakeRows();
  for (const char* format : {"json", "tsv"}) {
    // Reference: everything in one AppendRows call.
    auto one = MakeResultWriter(format);
    std::string whole;
    one->Begin(vars, &whole);
    one->AppendRows(rows, &whole);
    one->End(&whole);

    // Candidate: one row per call, plus empty blocks sprinkled in.
    auto many = MakeResultWriter(format);
    std::string split;
    many->Begin(vars, &split);
    many->AppendRows({}, &split);
    for (const auto& row : rows) {
      many->AppendRows({row}, &split);
      many->AppendRows({}, &split);
    }
    many->End(&split);

    EXPECT_EQ(whole, split) << format;
  }
}

TEST(ServeHttpTest, JsonWriterShape) {
  store::ResultSet rs;
  rs.vars = {"s", "o"};
  rs.rows = MakeRows();
  std::string json = SerializeResultSet(rs, "json");
  EXPECT_NE(json.find("{\"head\":{\"vars\":[\"s\",\"o\"]}"),
            std::string::npos);
  EXPECT_NE(json.find("\"results\":{\"bindings\":["), std::string::npos);
  EXPECT_NE(json.find("{\"type\":\"uri\",\"value\":\"http://x/s1\"}"),
            std::string::npos);
  // Unbound variables are omitted from the binding object.
  EXPECT_NE(json.find("{\"s\":{\"type\":\"uri\",\"value\":\"http://x/s2\"}}"),
            std::string::npos);
  // Language tag and escaped quote in a literal.
  EXPECT_NE(json.find("\"xml:lang\":\"fr\""), std::string::npos);
  EXPECT_NE(json.find("ch\\\"ars"), std::string::npos);
}

TEST(ServeHttpTest, TsvWriterShape) {
  store::ResultSet rs;
  rs.vars = {"s", "o"};
  rs.rows = MakeRows();
  std::string tsv = SerializeResultSet(rs, "tsv");
  ASSERT_FALSE(tsv.empty());
  EXPECT_EQ(tsv.substr(0, tsv.find('\n')), "?s\t?o");
  // Unbound cell serializes as empty between tabs.
  EXPECT_NE(tsv.find("<http://x/s2>\t\n"), std::string::npos);
}

TEST(ServeHttpTest, UnknownFormatRejected) {
  EXPECT_EQ(MakeResultWriter("xml"), nullptr);
}

// --- Latency histogram ---

TEST(ServeHttpTest, HistogramQuantilesApproximate) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);
  for (uint64_t us = 1; us <= 10'000; ++us) h.Record(us);
  EXPECT_EQ(h.count(), 10'000u);
  // The scheme guarantees <= ~19% relative error per bucket.
  EXPECT_NEAR(h.Quantile(0.50), 5'000, 5'000 * 0.25);
  EXPECT_NEAR(h.Quantile(0.99), 9'900, 9'900 * 0.25);
  EXPECT_NEAR(h.Mean(), 5'000.5, 1.0);
}

TEST(ServeHttpTest, HistogramOrdering) {
  LatencyHistogram h;
  for (int i = 0; i < 900; ++i) h.Record(100);
  for (int i = 0; i < 100; ++i) h.Record(50'000);
  EXPECT_LT(h.Quantile(0.5), 200);
  EXPECT_GT(h.Quantile(0.95), 10'000);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
}

// --- Sockets ---

int NoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(ServeHttpTest, LoopbackSocketsSetNoDelayOnBothSides) {
  // A chunked response written in pieces must not wait on the client's
  // delayed ACK, so the server side of an accepted connection disables
  // Nagle just like the client side.
  uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, /*backlog=*/1, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto client = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server_side = AcceptTcp(listener->get());
  ASSERT_TRUE(server_side.ok()) << server_side.status().ToString();
  EXPECT_EQ(NoDelay(server_side->get()), 1);
  EXPECT_EQ(NoDelay(client->get()), 1);
}

}  // namespace
}  // namespace rdfrel::serve
