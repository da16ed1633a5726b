#!/usr/bin/env bash
# Independently settable values of the root module: the fields of each
# options struct a caller can set (core.Options and the three structs it
# nests, transport.Config, checkpoint.DurableOptions, sim.Config), the
# serve.With* options, the Config fields of the SSSP, PageRank and CF
# jobs, and the flag.* definitions of each binary, one line each and in
# total. Run from anywhere; a PR that
# touches an option states its delta as the difference of two runs of
# this script ("options and flags only go down").
set -euo pipefail
cd "$(dirname "$0")/.."

# fields FILE TYPE: the field count of `type TYPE struct` in FILE. A field
# line is `Name[, Name...] type`; comment and blank lines are skipped.
fields() {
	awk -v type="$2" '
		$1 == "type" && $2 == type && $3 == "struct" { body = 1; next }
		body && $1 == "}" { exit }
		body && NF && $1 !~ /^\/\// {
			n++
			for (i = 1; $i ~ /,$/; i++) n++
		}
		END { print n + 0 }' "$1"
}

# src DIR: the non-test Go source of DIR.
src() { find "$1" -name '*.go' ! -name '*_test.go' -exec cat {} +; }

total=0
row() {
	printf '%7d %s\n' "$1" "$2"
	total=$((total + $1))
}

row "$(fields internal/core/engine.go Options)" core.Options
row "$(fields internal/core/plane.go TransportOptions)" core.TransportOptions
row "$(fields internal/core/recover.go CheckpointOptions)" core.CheckpointOptions
row "$(fields internal/core/faults.go Faults)" core.Faults
row "$(fields internal/transport/tcp.go Config)" transport.Config
row "$(fields internal/checkpoint/durable.go DurableOptions)" checkpoint.DurableOptions
row "$(fields internal/sim/sim.go Config)" sim.Config
row "$(src internal/serve | grep -c '^func With')" 'serve.With*'
row "$(fields internal/algo/sssp/sssp.go Config)" sssp.Config
row "$(fields internal/algo/pagerank/pagerank.go Config)" pagerank.Config
row "$(fields internal/algo/cf/cf.go Config)" cf.Config
for d in cmd/*/; do
	row "$(src "$d" |
		grep -oE '\bflag\.[A-Z][A-Za-z0-9]*\(' |
		grep -cvE 'flag\.(Parse|Parsed|Arg|Args|NArg|NFlag|Usage|PrintDefaults|Lookup|Set|Visit|VisitAll|NewFlagSet)\(' || true)" "${d%/} flags"
done
printf '%7d total\n' "$total"
