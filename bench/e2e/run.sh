#!/bin/sh
# Build the end-to-end benchmark from source in this checkout (release
# profile), then run it with the given arguments. Run from the root of
# the repository:
#
#   sh bench/e2e/run.sh --workload underload --seed 1 --seconds 15 --trace 0
#   sh bench/e2e/run.sh --out run.json
#
# Build output goes to stderr, so stdout carries only the benchmark's.
# Everything the build writes stays inside the checkout: _build/ and
# .bench_build/ (the compiler's temporary files); the shared dune cache
# is off.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/e2e.ml ]; then
  echo "run.sh: run from the root of an rtlf checkout" >&2
  exit 2
fi

mkdir -p .bench_build/tmp
TMPDIR="$PWD/.bench_build/tmp"
DUNE_CACHE=disabled
export TMPDIR DUNE_CACHE

dune build --root . --profile release bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
