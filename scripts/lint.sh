#!/usr/bin/env bash
# rdfrel-lint gate (DESIGN.md §15): project-invariant lint over the compile
# database.
#
#   scripts/lint.sh               # fixture harness + full src/ sweep
#
# Three stages:
#   1. Build the rdfrel-lint tool from the default build tree. If the tool
#      cannot be built here, skip with a notice and exit 0 (mirroring
#      tidy.sh); CI always builds it and gets the full gate.
#   2. Fixture harness: each tests/compilefail/<rule>_violation.cc must
#      make the lint exit non-zero, each <rule>_clean.cc twin must come
#      back silent — proving every rule both fires and knows when not to.
#      Forced to --engine=lite so the assertion is toolchain-independent.
#   3. Full sweep: every compile_commands.json entry under src/ plus the
#      headers beneath it, all three rules, suppressions honored. Any
#      diagnostic fails the gate.
#
# The tool auto-selects its engine for the sweep: the Clang libTooling
# frontend when this build linked against libclang, the built-in lexical
# engine otherwise (--verbose names the one in use).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"

if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  echo "lint.sh: ${BUILD_DIR}/compile_commands.json missing;" \
       "run: cmake -B ${BUILD_DIR} -S ." >&2
  exit 1
fi

if ! cmake --build "${BUILD_DIR}" -j"${JOBS}" --target rdfrel-lint \
    > /dev/null 2>&1; then
  echo "lint.sh: rdfrel-lint failed to build in ${BUILD_DIR};" \
       "skipping project lint." >&2
  exit 0
fi
LINT="${BUILD_DIR}/tools/lint/rdfrel-lint"

echo "== lint fixture harness =="
for rule in blocking_under_lock borrowed_batch status_discipline; do
  violation="tests/compilefail/${rule}_violation.cc"
  clean="tests/compilefail/${rule}_clean.cc"
  if "${LINT}" --engine=lite "${violation}" > /dev/null; then
    echo "lint.sh: ${violation} produced no diagnostics, but every" \
         "lint-expect line in it must fire." >&2
    exit 1
  fi
  if ! "${LINT}" --engine=lite "${clean}"; then
    echo "lint.sh: ${clean} must be clean." >&2
    exit 1
  fi
done
echo "fixture harness passed."

echo "== rdfrel-lint sweep over ${BUILD_DIR}/compile_commands.json =="
"${LINT}" -p "${BUILD_DIR}" --verbose
echo "project lint clean."
