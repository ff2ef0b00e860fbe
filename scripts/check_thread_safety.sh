#!/usr/bin/env bash
# Clang thread-safety analysis gate.
#
#   scripts/check_thread_safety.sh          # analyze every first-party TU
#
# Runs Clang's -Wthread-safety analysis (capability annotations from
# src/util/mutex.h: GUARDED_BY, REQUIRES, ACQUIRE/RELEASE, ...) over all of
# src/, bench/, and tests/ with -Werror=thread-safety, so any
# lock-discipline violation — a guarded field touched without its mutex, a
# REQUIRES function called unlocked, a lock leaked out of scope — fails the
# gate. tests/compilefail/ is excluded from the sweep: its fixtures violate
# the invariants on purpose and are asserted by the harness section below.
#
# The analysis is syntax-only (-fsyntax-only): no build tree or compile
# database is needed, just the clang frontend. When clang++ is not
# installed the stage is skipped with a notice and exit 0, mirroring
# tidy.sh, so the script is safe to call from gcc-only environments; CI
# installs clang and gets the full gate.

set -euo pipefail
cd "$(dirname "$0")/.."

CLANGXX="${CLANGXX:-clang++}"

if ! command -v "${CLANGXX}" > /dev/null 2>&1; then
  echo "check_thread_safety.sh: ${CLANGXX} not found; skipping" \
       "thread-safety analysis." >&2
  exit 0
fi

mapfile -t SOURCES < <(find src bench tests -name '*.cc' \
  -not -path 'tests/compilefail/*' | sort)

# bench/ and tests/ pull in gtest/benchmark (system include path) and
# repo-rooted headers ("bench/harness.h", "benchdata/lubm.h").
echo "== clang -Wthread-safety over ${#SOURCES[@]} sources =="
fail=0
for src in "${SOURCES[@]}"; do
  if ! "${CLANGXX}" -std=c++20 -fsyntax-only -Isrc -I. -Itests \
      -Wthread-safety -Wthread-safety-beta -Werror=thread-safety \
      "${src}"; then
    echo "thread-safety: FAILED ${src}" >&2
    fail=1
  fi
done

if [[ "${fail}" -ne 0 ]]; then
  echo "thread-safety analysis found violations." >&2
  exit 1
fi
echo "thread-safety clean."

echo "== compile-fail harness =="
# Positive control: the correctly locked twin must compile...
"${CLANGXX}" -std=c++20 -fsyntax-only -Isrc \
  -Wthread-safety -Werror=thread-safety \
  tests/compilefail/guarded_by_clean.cc
# ...and the GUARDED_BY violation must be rejected.
if "${CLANGXX}" -std=c++20 -fsyntax-only -Isrc \
    -Wthread-safety -Werror=thread-safety \
    tests/compilefail/guarded_by_violation.cc 2> /dev/null; then
  echo "compile-fail harness: guarded_by_violation.cc compiled, but" \
       "-Werror=thread-safety must reject it." >&2
  exit 1
fi
echo "compile-fail harness passed."
