#!/usr/bin/env bash
# Builds the benchmark (its own module, importing the repo's packages through
# a replace directive) and runs it. Everything the build leaves behind stays
# under <checkout>/.bench_build, including the Go build cache, so a run reads
# and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-modcacherw
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/bench" .)
exec "$out/bench" -root "$root" "$@"
