#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs it.
# The Go build cache is kept inside the checkout too, so a run reads and
# writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/dsmdist-bench" .)
cd "$root"
exec "$build/dsmdist-bench" "$@"
