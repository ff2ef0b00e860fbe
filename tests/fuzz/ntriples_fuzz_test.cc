/// Seeded mutation fuzzing of the N-Triples reader, which parses every
/// dataset file: rdf::ParseNTriplesLine per line and rdf::ParseNTriplesString
/// per document. The corpus is the WriteNTriples output of a LUBM graph plus
/// hand-written language-tagged, typed-literal, escaped and blank-node
/// lines. Each input is mutated with byte flips, deletions, truncations and
/// splices of escape, tag, datatype and blank-node syntax and of long digit
/// runs under a fixed seed. The parsers must return — ok or an error — and
/// never throw or crash; a line that parses must write back (ToNTriples) to
/// text that parses to the same triple. The iteration count is fixed so the
/// suite stays fast; the sanitizer builds run the same cases under
/// ASan/UBSan.

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdata/lubm.h"
#include "rdf/ntriples.h"
#include "util/random.h"

namespace rdfrel::rdf {
namespace {

constexpr uint64_t kSeed = 20261017;
constexpr int kMutantsPerLine = 25;
constexpr int kDocuments = 2000;
constexpr size_t kLinesPerDocument = 12;

/// One N-Triples line per element, no trailing newline.
std::vector<std::string> BuildCorpus() {
  std::vector<std::string> lines;
  auto decoded = benchdata::MakeLubm(1, 1).graph.DecodeAll();
  if (decoded.ok()) {
    std::ostringstream out;
    if (WriteNTriples(*decoded, out).ok()) {
      std::istringstream in(out.str());
      for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
  }
  for (const char* line : {
           R"(<http://ex/s> <http://ex/name> "chat"@en .)",
           R"(<http://ex/s> <http://ex/name> "Grüße"@de-CH .)",
           R"(<http://ex/s> <http://ex/age> "42")"
           R"(^^<http://www.w3.org/2001/XMLSchema#integer> .)",
           R"(<http://ex/s> <http://ex/ratio> "-1.5e3")"
           R"(^^<http://www.w3.org/2001/XMLSchema#double> .)",
           R"(_:b1 <http://ex/knows> _:b2 .)",
           R"(_:node42 <http://ex/label> "a\"b\nc\\d\te\r" .)",
           R"(<http://ex/s> <http://ex/empty> "" .)",
           "# a comment line",
       }) {
    lines.emplace_back(line);
  }
  return lines;
}

/// Applies 1-4 stacked mutations to \p text.
std::string Mutate(Random& rng, std::string text) {
  static const char* const kSplices[] = {
      "\\u",  "\\U", "\\uD800", "\\U0010FFFF", "\\", "^^", "^^<", "@",
      "@en",  "_:",  "_:.",     "\"",          "<",  ">",  " . ", "#"};
  const int rounds = 1 + static_cast<int>(rng.Uniform(4));
  for (int r = 0; r < rounds; ++r) {
    const size_t pos = text.empty() ? 0 : rng.Uniform(text.size() + 1);
    switch (rng.Uniform(6)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[pos % text.size()] = static_cast<char>(
              text[pos % text.size()] ^ (1 << rng.Uniform(8)));
        }
        break;
      case 1:  // overwrite one byte with any value
        if (!text.empty()) {
          text[pos % text.size()] = static_cast<char>(rng.Uniform(256));
        }
        break;
      case 2:  // delete a span
        text.erase(pos, rng.Uniform(16));
        break;
      case 3:  // truncate
        text.resize(pos);
        break;
      case 4:  // splice in escape, tag, datatype or blank-node syntax
        text.insert(pos, kSplices[rng.Uniform(std::size(kSplices))]);
        break;
      default: {  // a long digit run
        std::string digits;
        const size_t n = 19 + rng.Uniform(30);
        for (size_t i = 0; i < n; ++i) {
          digits.push_back(static_cast<char>('0' + rng.Uniform(10)));
        }
        text.insert(pos, digits);
        break;
      }
    }
  }
  return text;
}

TEST(NTriplesFuzzTest, LineParserNeverThrowsAndRoundTrips) {
  const std::vector<std::string> corpus = BuildCorpus();
  ASSERT_GT(corpus.size(), 1000u);
  Random rng(kSeed);
  int ok = 0;
  int errors = 0;
  for (const auto& line : corpus) {
    for (int i = 0; i < kMutantsPerLine; ++i) {
      const std::string mutant = Mutate(rng, line);
      try {
        Result<Triple> t = ParseNTriplesLine(mutant);
        if (!t.ok()) {
          ++errors;
          continue;
        }
        ++ok;
        const std::string written = t->ToNTriples();
        Result<Triple> again = ParseNTriplesLine(written);
        ASSERT_TRUE(again.ok()) << again.status().ToString() << " on "
                                << written << "\nwritten from:\n"
                                << mutant;
        EXPECT_EQ(again->subject, t->subject) << mutant;
        EXPECT_EQ(again->predicate, t->predicate) << mutant;
        EXPECT_EQ(again->object, t->object) << mutant;
      } catch (const std::exception& e) {
        FAIL() << "ParseNTriplesLine threw " << e.what() << " on:\n"
               << mutant;
      }
    }
  }
  // Both outcomes occur: the mutations neither always break the grammar
  // nor never do.
  EXPECT_GT(ok, 0);
  EXPECT_GT(errors, 0);
}

TEST(NTriplesFuzzTest, DocumentParserNeverThrows) {
  const std::vector<std::string> corpus = BuildCorpus();
  Random rng(kSeed + 1);
  int ok = 0;
  int errors = 0;
  for (int d = 0; d < kDocuments; ++d) {
    // A window of consecutive lines, some of them mutated, joined with
    // LF or CRLF.
    const size_t start = rng.Uniform(corpus.size());
    const char* eol = rng.Bernoulli(0.5) ? "\n" : "\r\n";
    std::string doc;
    for (size_t i = 0; i < kLinesPerDocument; ++i) {
      const std::string& line = corpus[(start + i) % corpus.size()];
      doc += rng.Bernoulli(0.1) ? Mutate(rng, line) : line;
      doc += eol;
    }
    if (rng.Bernoulli(0.5)) doc = Mutate(rng, doc);
    try {
      (ParseNTriplesString(doc).ok() ? ok : errors)++;
    } catch (const std::exception& e) {
      FAIL() << "ParseNTriplesString threw " << e.what() << " on:\n" << doc;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(errors, 0);
}

}  // namespace
}  // namespace rdfrel::rdf
