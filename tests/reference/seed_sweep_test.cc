/// The reference check of workload_reference_test.cc at the bench_summary
/// scales (LUBM 15, SP2Bench 40, DBpedia 12000/1500, PRBench 20), swept
/// over seven generator seeds: every query of every workload on all three
/// backends against the engine-independent evaluator. One test per
/// (workload, seed), so `ctest -j` spreads the sweep; the ctest label
/// `slow` selects or excludes it (`ctest -L slow`, `ctest -LE slow`).

#include <cstdint>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "reference/workload_check.h"

namespace rdfrel::reference {
namespace {

benchdata::Workload MakeAtBenchScale(const std::string& name,
                                     uint64_t seed) {
  if (name == "lubm") return benchdata::MakeLubm(15, seed);
  if (name == "sp2bench") return benchdata::MakeSp2Bench(40, seed);
  if (name == "dbpedia") return benchdata::MakeDbpedia(12000, 1500, seed);
  return benchdata::MakePrbench(20, seed);
}

class SeedSweepReferenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(SeedSweepReferenceTest, EveryQueryMatchesReferenceOnAllBackends) {
  const auto& [workload, seed] = GetParam();
  // DBpedia's 1500 predicates exceed the predicate store's UNION limit
  // for a variable predicate, which it declines as kUnsupported.
  ExpectWorkloadMatchesReference(MakeAtBenchScale(workload, seed),
                                 /*allow_unsupported=*/true);
}

// Seed 102 is the DBpedia graph in which two distinct triples once shared
// the baselines' 64-bit deduplication hash.
INSTANTIATE_TEST_SUITE_P(
    Sweep, SeedSweepReferenceTest,
    ::testing::Combine(::testing::Values<std::string>("lubm", "sp2bench",
                                                      "dbpedia", "prbench"),
                       ::testing::Values<uint64_t>(101, 102, 103, 104, 105,
                                                   106, 107)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace rdfrel::reference
