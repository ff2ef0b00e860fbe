/// Seeded mutation fuzzing of serve::HttpParser, which reads raw bytes from
/// every client of the SPARQL endpoint. The corpus holds valid GET and POST
/// requests (query-string, form and sparql-query bodies, HTTP/1.0
/// keep-alive, bare-LF line ends) plus a chunked-looking request, two
/// pipelined requests, and requests whose request line, header section or
/// body exceeds the limits. Each is mutated with byte flips, deletions,
/// truncations, duplicated spans and splices of HTTP syntax under a fixed
/// seed, then fed to the parser the way the server does — feed, take a
/// complete request, Reset, feed the rest — three ways: whole, byte by
/// byte, and in random splits. All three must agree on every complete
/// request and on http_error_code(); after an error, further input must
/// fail with the same code (errors are sticky). Nothing may throw or
/// crash; the sanitizer builds run the same cases under ASan/UBSan.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http.h"
#include "util/random.h"

namespace rdfrel::serve {
namespace {

constexpr uint64_t kSeed = 20261019;
constexpr int kMutantsPerRequest = 3000;
constexpr int kRandomSplits = 2;

/// Small limits, so the oversized cases stay small inputs.
HttpLimits Limits() {
  HttpLimits l;
  l.max_request_line = 256;
  l.max_header_bytes = 1024;
  l.max_body_bytes = 2048;
  return l;
}

std::vector<std::string> BuildCorpus() {
  const std::string query =
      "PREFIX%20%3A%20%3Chttp%3A%2F%2Fex%2F%3E%20SELECT%20%3Fs%20WHERE%20%7B"
      "%3Fs%20%3Ap%20%3Fo%7D";
  const std::string form = "query=" + query + "&timeout=250";
  std::vector<std::string> corpus = {
      "GET /sparql?query=" + query + " HTTP/1.1\r\nHost: localhost\r\n"
      "Accept: text/tab-separated-values\r\n\r\n",
      "POST /sparql HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
      "application/x-www-form-urlencoded\r\nContent-Length: " +
          std::to_string(form.size()) + "\r\n\r\n" + form,
      "POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\n"
      "Content-Length: 31\r\n\r\nSELECT * WHERE { ?s ?p ?o }    ",
      "GET /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "GET /sparql?query=ASK%7B%7D HTTP/1.1\nHost: x\n\n",
      // Chunked-looking: rejected with 501 once the headers end.
      "POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "1b\r\nSELECT * WHERE { ?s ?p ?o }\r\n0\r\n\r\n",
      // Two pipelined requests on one connection.
      "GET /stats HTTP/1.1\r\n\r\nPOST /sparql HTTP/1.1\r\n"
      "Content-Length: 5\r\n\r\nquery",
      // Over the request-line, header-section and body limits.
      "GET /sparql?query=" + std::string(300, 'a') + " HTTP/1.1\r\n\r\n",
      "GET /stats HTTP/1.1\r\nX-Big: " + std::string(1100, 'b') +
          "\r\n\r\n",
      "GET /stats HTTP/1.1\r\n" + [] {
        std::string many;
        for (int i = 0; i < 40; ++i) {
          many += "X-H" + std::to_string(i) + ": " + std::string(20, 'h') +
                  "\r\n";
        }
        return many;
      }() + "\r\n",
      "POST /sparql HTTP/1.1\r\nContent-Length: 4096\r\n\r\nquery=",
  };
  return corpus;
}

/// Applies 1-4 stacked mutations to \p text.
std::string Mutate(Random& rng, std::string text) {
  static const char* const kSplices[] = {
      "\r\n",     "\n",          "\r\n\r\n",  " ",         ":",
      "%",        "%zz",         "%2",        "+",         "&",
      "?",        "HTTP/1.1",    "HTTP/2.0",  "HTTP/1.",   "GET ",
      "POST ",    "Content-Length: ",         "Content-Length: 99999999999"
                                              "999999999999\r\n",
      "Content-Length: -1\r\n",  "Transfer-Encoding: chunked\r\n",
      "Connection: close\r\n",   "0",         "\t",        "\x7f"};
  const int rounds = 1 + static_cast<int>(rng.Uniform(4));
  for (int r = 0; r < rounds; ++r) {
    const size_t pos = text.empty() ? 0 : rng.Uniform(text.size() + 1);
    const size_t at = text.empty() ? 0 : pos % text.size();
    switch (rng.Uniform(6)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[at] = static_cast<char>(text[at] ^ (1 << rng.Uniform(8)));
        }
        break;
      case 1:  // overwrite one byte with any value
        if (!text.empty()) text[at] = static_cast<char>(rng.Uniform(256));
        break;
      case 2:  // delete a span
        text.erase(pos, 1 + rng.Uniform(16));
        break;
      case 3:  // truncate
        text.resize(pos);
        break;
      case 4:  // duplicate a span
        if (!text.empty()) {
          text.insert(pos, text.substr(at, 1 + rng.Uniform(64)));
        }
        break;
      default:  // splice in HTTP syntax
        text.insert(pos, kSplices[rng.Uniform(std::size(kSplices))]);
        break;
    }
  }
  return text;
}

/// What a connection made of \p input: every complete request and the
/// error code (-1 when Feed left input unconsumed without completing).
struct Outcome {
  std::vector<HttpRequest> requests;
  int error = 0;
  bool sticky = true;  ///< after an error, more input failed the same way

  bool operator==(const Outcome& o) const {
    if (requests.size() != o.requests.size() || error != o.error) {
      return false;
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      const HttpRequest& a = requests[i];
      const HttpRequest& b = o.requests[i];
      if (a.method != b.method || a.target != b.target || a.path != b.path ||
          a.query_params != b.query_params ||
          a.version_minor != b.version_minor || a.headers != b.headers ||
          a.body != b.body) {
        return false;
      }
    }
    return true;
  }
};

/// Feeds \p input in pieces of the given \p sizes (the last piece takes
/// the rest), as the server does: a complete request is taken and the
/// parser Reset before the remaining bytes are fed.
Outcome Drive(const std::string& input, const std::vector<size_t>& sizes) {
  Outcome out;
  HttpParser parser(Limits());
  size_t pos = 0;
  for (size_t piece = 0; pos < input.size(); ++piece) {
    const size_t n = piece < sizes.size() ? sizes[piece] : input.size() - pos;
    std::string_view chunk = std::string_view(input).substr(pos, n);
    pos += chunk.size();
    while (!chunk.empty()) {
      Result<size_t> consumed = parser.Feed(chunk);
      if (!consumed.ok()) {
        out.error = parser.http_error_code();
        Result<size_t> again = parser.Feed("GET / HTTP/1.1\r\n\r\n");
        out.sticky = !again.ok() && parser.http_error_code() == out.error;
        return out;
      }
      chunk.remove_prefix(*consumed);
      if (parser.complete()) {
        out.requests.push_back(parser.request());
        parser.Reset();
      } else if (!chunk.empty()) {
        // An incomplete parser must consume everything it is given.
        out.error = -1;
        return out;
      }
    }
  }
  return out;
}

std::string Describe(const Outcome& o) {
  std::string s = std::to_string(o.requests.size()) + " requests, error " +
                  std::to_string(o.error);
  for (const auto& r : o.requests) {
    s += "\n  " + r.method + " " + r.target + " body=" +
         std::to_string(r.body.size());
  }
  return s;
}

TEST(HttpParserFuzzTest, SplitFeedsAgreeWithWholeFeed) {
  const std::vector<std::string> corpus = BuildCorpus();
  // The unmutated corpus parses as intended: 501 for the chunked request,
  // the size codes for the oversized ones, two requests when pipelined.
  const std::vector<int> expected_errors = {0, 0, 0, 0, 0, 501, 0,
                                            414, 431, 431, 413};
  ASSERT_EQ(corpus.size(), expected_errors.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(Drive(corpus[i], {}).error, expected_errors[i]) << corpus[i];
  }
  EXPECT_EQ(Drive(corpus[6], {}).requests.size(), 2u);

  Random rng(kSeed);
  int parsed = 0;
  int errors = 0;
  for (const auto& request : corpus) {
    for (int m = 0; m < kMutantsPerRequest; ++m) {
      const std::string mutant = Mutate(rng, request);
      try {
        const Outcome whole = Drive(mutant, {});
        ASSERT_NE(whole.error, -1) << mutant;
        EXPECT_TRUE(whole.sticky) << mutant;
        (whole.error != 0 ? errors : parsed) += 1;

        const Outcome bytes =
            Drive(mutant, std::vector<size_t>(mutant.size(), 1));
        EXPECT_TRUE(bytes == whole)
            << "byte-by-byte: " << Describe(bytes)
            << "\nwhole: " << Describe(whole) << "\non:\n" << mutant;
        for (int s = 0; s < kRandomSplits; ++s) {
          std::vector<size_t> sizes;
          for (size_t left = mutant.size(); left > 0;) {
            const size_t n = 1 + rng.Uniform(std::min<size_t>(left, 64));
            sizes.push_back(n);
            left -= n;
          }
          const Outcome split = Drive(mutant, sizes);
          EXPECT_TRUE(split == whole)
              << "split: " << Describe(split) << "\nwhole: "
              << Describe(whole) << "\non:\n" << mutant;
        }
      } catch (const std::exception& e) {
        FAIL() << "HttpParser threw " << e.what() << " on:\n" << mutant;
      }
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(errors, 0);
}

}  // namespace
}  // namespace rdfrel::serve
