#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): build bench/relmperf from
# source inside the checkout, then run it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/ in the
# checkout root: the binary, Go's build cache and temp files, job ledgers.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# The module needs nothing but the standard library and the repo: never fetch.
export GOTOOLCHAIN=local GOPROXY=off

bin="$out/relmperf"
# Rebuild when the binary is missing or any Go source it is built from is
# newer (the root module is a replace target of bench/go.mod).
if [ ! -x "$bin" ] || [ -n "$(find "$root/go.mod" "$here/go.mod" "$root/relm" "$root/internal" "$here/relmperf" \
		-newer "$bin" \( -name '*.go' -o -name go.mod \) -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" ./relmperf)
fi
exec "$bin" -scratch "$out/run" "$@"
