#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the
# program (see README.md). Everything the build writes stays under
# bench/.build, so a checkout is read and written only inside itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"
export GOCACHE="$here/.build/gocache"
export GOMODCACHE="$here/.build/gomodcache"
export GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$here/.build/gridbench" .
exec "$here/.build/gridbench" "$@"
