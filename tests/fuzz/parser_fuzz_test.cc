/// Seeded mutation fuzzing of the two parsers that read untrusted text:
/// sparql::ParseQuery (every HTTP request) and sql::ParseSelect (the
/// generated SQL). The corpus is every workload query (micro, LUBM,
/// SP2Bench, DBpedia, PRBench) plus the SQL the DB2RDF store generates for
/// it. Each input is mutated with byte flips, token splices and long digit
/// runs under a fixed seed; the parsers must return — ok or an error —
/// and never throw or crash. The iteration count is fixed so the suite
/// stays fast; the sanitizer builds run the same cases under ASan/UBSan.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "sparql/parser.h"
#include "sql/parser.h"
#include "store/rdf_store.h"
#include "util/random.h"

namespace rdfrel {
namespace {

constexpr uint64_t kSeed = 20261017;
constexpr int kMutantsPerInput = 250;

struct Corpus {
  std::vector<std::string> sparql;
  std::vector<std::string> sql;
};

Corpus BuildCorpus() {
  Corpus c;
  for (auto w : {benchdata::MakeMicro(200, 1), benchdata::MakeLubm(1, 1),
                 benchdata::MakeSp2Bench(2, 1),
                 benchdata::MakeDbpedia(200, 100, 1),
                 benchdata::MakePrbench(1, 1)}) {
    std::vector<std::string> texts;
    for (const auto& q : w.queries) texts.push_back(q.sparql);
    auto store = store::RdfStore::Load(std::move(w.graph));
    if (!store.ok()) continue;
    for (const auto& text : texts) {
      c.sparql.push_back(text);
      auto sql = (*store)->TranslateToSql(text);
      if (sql.ok()) c.sql.push_back(*sql);
    }
  }
  return c;
}

/// A random whitespace-delimited token of \p text.
std::string RandomToken(Random& rng, const std::string& text) {
  if (text.empty()) return "";
  size_t pos = rng.Uniform(text.size());
  size_t begin = text.rfind(' ', pos);
  begin = begin == std::string::npos ? 0 : begin + 1;
  size_t end = text.find(' ', pos);
  if (end == std::string::npos) end = text.size();
  return text.substr(begin, end - begin);
}

/// Applies 1-4 stacked mutations to \p text; \p pool supplies tokens.
std::string Mutate(Random& rng, std::string text,
                   const std::vector<std::string>& pool) {
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
      case 2:  // splice in a token from another input
        text.insert(pos, " " + RandomToken(rng, pool[rng.Uniform(
                                                  pool.size())]) +
                             " ");
        break;
      case 3:  // delete a span
        text.erase(pos, rng.Uniform(16));
        break;
      case 4: {  // grow a digit run past every integer type
        std::string digits;
        const size_t n = 19 + rng.Uniform(30);
        for (size_t i = 0; i < n; ++i) {
          digits.push_back(static_cast<char>('0' + rng.Uniform(10)));
        }
        const size_t at = text.find_first_of("0123456789", pos);
        text.insert(at == std::string::npos ? pos : at, digits);
        break;
      }
      default: {  // an exponent no double holds
        const size_t at = text.find_first_of("0123456789", pos);
        if (at != std::string::npos) {
          text.insert(at + 1, rng.Uniform(2) ? "e999" : ".5e-999");
        }
        break;
      }
    }
  }
  return text;
}

template <typename ParseFn>
void FuzzParser(const char* what, const std::vector<std::string>& inputs,
                uint64_t seed, const ParseFn& parse) {
  ASSERT_FALSE(inputs.empty());
  Random rng(seed);
  int ok = 0;
  int errors = 0;
  for (const auto& input : inputs) {
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string mutant = Mutate(rng, input, inputs);
      try {
        (parse(mutant) ? ok : errors)++;
      } catch (const std::exception& e) {
        FAIL() << what << " threw " << e.what() << " on:\n" << mutant;
      }
    }
  }
  // Both outcomes occur: the mutations neither always break the grammar
  // nor never do.
  EXPECT_GT(ok, 0) << what;
  EXPECT_GT(errors, 0) << what;
}

TEST(ParserFuzzTest, SparqlParserNeverThrowsOnMutatedWorkloadQueries) {
  const Corpus corpus = BuildCorpus();
  FuzzParser("sparql::ParseQuery", corpus.sparql, kSeed,
             [](const std::string& text) {
               return sparql::ParseQuery(text).ok();
             });
}

TEST(ParserFuzzTest, SqlParserNeverThrowsOnMutatedGeneratedSql) {
  const Corpus corpus = BuildCorpus();
  FuzzParser("sql::ParseSelect", corpus.sql, kSeed + 1,
             [](const std::string& text) {
               return sql::ParseSelect(text).ok();
             });
}

}  // namespace
}  // namespace rdfrel
