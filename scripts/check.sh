#!/usr/bin/env bash
# Static analysis + sanitizer + benchmark gate.
#
#   0.  Clang thread-safety analysis: -Werror=thread-safety over src/,
#       bench/, and tests/ against the capability annotations in
#       util/mutex.h (skipped with a notice when no clang is installed;
#       CI always runs it).
#   1.  Project lint (rdfrel-lint, DESIGN.md §15): fixture harness plus a
#       full sweep of the compile database enforcing blocking-under-lock,
#       borrowed-batch, and status-discipline.
#   2.  ThreadSanitizer build, running the concurrency + plan-cache tests
#       (the reader/writer stress test is the point of this build), the
#       Serve suite, so the endpoint's worker pool races fail it too, and
#       the WAL group-commit tests, whose committers wait for durability
#       outside the store lock.
#   3.  Debug + AddressSanitizer build, running the full ctest suite.
#   4.  UndefinedBehaviorSanitizer build with recovery disabled, running
#       the full suite: any UB (signed overflow, bad shifts, misaligned
#       or null access, ...) aborts the test instead of logging.
#   5.  Crash-recovery gate: the PersistTest suites (WAL framing, snapshot
#       CRCs, kill-at-any-point fault injection, snapshot fallback) run
#       explicitly under both Debug+ASan and UBSan, so a durability
#       regression is named in the output rather than buried in a full run.
#   6.  Serve smoke: the HTTP endpoint walkthrough (examples/serve_demo
#       --smoke) starts a real server, queries it over a socket, and shuts
#       it down cleanly — under ASan, so leaked fds/threads/buffers in the
#       serving path fail the gate.
#   7.  Release bench smoke: bench_micro_star, bench_serve and
#       bench_summary at a reduced scale must run to completion and emit
#       machine-readable BENCH_sql.json / BENCH_serve.json /
#       BENCH_summary.json; bench_engine's microbenchmarks must each run
#       (a short minimum time per benchmark).
#
# Build trees go to build-tsan/, build-asan/, build-ubsan/ and
# build-release/ so the default build/ stays untouched.
# Usage: scripts/check.sh [jobs] (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== [0/7] Clang thread-safety analysis =="
scripts/check_thread_safety.sh

echo
echo "== [1/7] Project lint: rdfrel-lint fixtures + src/ sweep =="
# lint.sh builds the tool from the default build tree; configure it first
# so the compile database exists even on a fresh checkout.
if [[ ! -f build/compile_commands.json ]]; then
  cmake -B build -S . > /dev/null
fi
scripts/lint.sh

echo
echo "== [2/7] ThreadSanitizer: concurrency + serve + group commit =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRDFREL_SANITIZE=thread > /dev/null
cmake --build build-tsan -j"${JOBS}" \
  --target concurrency_test util_test serve_test persist_test
# TSan aborts the process on a race, so a clean exit means no reports.
# Serve exercises the endpoint's acceptor/worker handoff and shutdown;
# GroupCommit the concurrent WAL committers.
(cd build-tsan && ctest --output-on-failure -j"${JOBS}" \
    -R 'ConcurrencyTest|PlanCacheTest|UniformInterfaceTest|LruCacheTest|Serve|GroupCommit')

echo
echo "== [3/7] Debug + AddressSanitizer: full suite =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DRDFREL_SANITIZE=address > /dev/null
cmake --build build-asan -j"${JOBS}"
(cd build-asan && ctest --output-on-failure -j"${JOBS}")

echo
echo "== [4/7] UndefinedBehaviorSanitizer: full suite =="
cmake -B build-ubsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DRDFREL_SANITIZE=undefined > /dev/null
cmake --build build-ubsan -j"${JOBS}"
# -fno-sanitize-recover=all makes any UBSan report fatal, so a green
# ctest run doubles as a zero-findings guarantee.
(cd build-ubsan && ctest --output-on-failure -j"${JOBS}")

echo
echo "== [5/7] Crash-recovery gate: PersistTest under ASan and UBSan =="
# The trees were built above; this re-runs just the persistence layer so
# durability failures surface as their own stage.
(cd build-asan && ctest --output-on-failure -j"${JOBS}" -R 'PersistTest')
(cd build-ubsan && ctest --output-on-failure -j"${JOBS}" -R 'PersistTest')

echo
echo "== [6/7] Serve smoke: HTTP endpoint under ASan =="
# serve_demo --smoke starts a server on an ephemeral port, runs GET/POST
# queries, a deadline query, a malformed query, and /stats over a real
# socket, then stops the server; ASan turns any leak in the serving path
# (threads, fds, stream buffers) into a failure.
cmake --build build-asan -j"${JOBS}" --target serve_demo
./build-asan/examples/serve_demo --smoke

echo
echo "== [7/7] Release bench smoke: BENCH_sql/serve/summary.json, bench_engine =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-release -j"${JOBS}" \
  --target bench_micro_star bench_serve bench_summary bench_engine
(cd build-release &&
  rm -f BENCH_sql.json &&
  RDFREL_BENCH_SCALE=0.1 ./bench/bench_micro_star &&
  test -s BENCH_sql.json &&
  echo "BENCH_sql.json ok")
(cd build-release &&
  rm -f BENCH_serve.json &&
  RDFREL_BENCH_SCALE=0.1 ./bench/bench_serve &&
  test -s BENCH_serve.json &&
  echo "BENCH_serve.json ok")
(cd build-release &&
  rm -f BENCH_summary.json &&
  RDFREL_BENCH_SCALE=0.1 ./bench/bench_summary > /dev/null &&
  test -s BENCH_summary.json &&
  echo "BENCH_summary.json ok")
(cd build-release &&
  ./bench/bench_engine --benchmark_min_time=0.01 > /dev/null &&
  echo "bench_engine ok")

echo
echo "All checks passed."
