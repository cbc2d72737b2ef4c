#!/usr/bin/env bash
# Builds headtalkd and the benchmark from the checkout in the current
# directory (the repository root), then runs one benchmark invocation
# with the given arguments. Every build and run artefact stays under
# .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

# With telemetry on (the default is "local"), every go command forks a
# detached sidecar that can outlive this script. Turning it off in the
# private config dir keeps the go commands to processes waited for here.
mkdir -p "$build/config/go/telemetry"
printf 'off\n' >"$build/config/go/telemetry/mode"

if [[ ! -f go.mod || ! -d cmd/headtalkd ]]; then
	echo "run.sh: no headtalk checkout in $root" >&2
	exit 1
fi

go build -o "$build/bin/headtalkd" ./cmd/headtalkd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@" -daemon "$build/bin/headtalkd" -workdir "$build/runs"
