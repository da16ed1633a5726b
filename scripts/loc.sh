#!/usr/bin/env bash
# Non-test Go lines of the root module (wc -l, so comments and blanks
# count), per package directory and in total. benchmark/ is a module of
# its own and is left out. Run from anywhere; a collapse PR states its
# delta as the difference of two runs of this script.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -path ./benchmark -prune -o -path './.*' -prune -o \
	-name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); n[dir] += $1; total += $1
	}
	END {
		for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}'
