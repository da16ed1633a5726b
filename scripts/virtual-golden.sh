#!/usr/bin/env bash
# Diffs `go run ./cmd/aapbench -exp all`, less its table1 section (the one
# real-engine, wall-clock report), against
# internal/harness/testdata/aapbench.golden. Every other section is
# virtual time, exact and replayable, so any difference is a change in
# what the engine or the simulator does. `-update` rewrites the golden; a
# change that moves it says why. Run from anywhere; ~100 s on 2 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."
golden=internal/harness/testdata/aapbench.golden
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go run ./cmd/aapbench -exp all | awk '/^==== / { skip = $2 == "table1" } !skip' >"$out"
if [ "${1:-}" = -update ]; then
	cp "$out" "$golden"
	exit
fi
diff -u "$golden" "$out"
