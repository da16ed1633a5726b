package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// withShards runs fn under a forced par.Override, restoring the
// process-wide flag even if fn panics.
func withShards(shards int, fn func()) {
	prev := par.Override
	par.Override = shards
	defer func() { par.Override = prev }()
	fn()
}

// Ingest measures the streaming ingest pipeline end to end: file bytes
// → chunked parallel parse → partitioned fragments. It reports a
// forced-shard scaling row (cores 1/2/4/8 via par.Override — on a
// machine with fewer cores the extra rows measure fan-out overhead, not
// speedup) and the routing-table memory of a 16-fragment partition.
// With an empty inputPath it writes the friendster and
// traffic stand-ins to temp files first, so the run is self-contained;
// cmd/aapbench exposes it as -exp ingest [-input file].
func Ingest(inputPath string) (string, error) {
	type input struct {
		name string
		path string
	}
	var inputs []input
	if inputPath != "" {
		inputs = append(inputs, input{filepath.Base(inputPath), inputPath})
	} else {
		dir, err := os.MkdirTemp("", "aap-ingest")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		for _, ds := range []Dataset{FriendsterSim(Scale()), TrafficSim(Scale())} {
			path := filepath.Join(dir, ds.Name+".txt")
			f, err := os.Create(path)
			if err != nil {
				return "", err
			}
			err = graph.WriteEdgeList(f, ds.Graph)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return "", err
			}
			inputs = append(inputs, input{ds.Name, path})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "streaming ingest, GOMAXPROCS=%d (shard rows beyond the core count measure fan-out overhead, not speedup)\n",
		runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		st, err := os.Stat(in.path)
		if err != nil {
			return "", err
		}
		mb := float64(st.Size()) / (1 << 20)
		var g *graph.Graph
		fmt.Fprintf(&b, "%s: %.1f MB on disk\n", in.name, mb)
		for _, shards := range []int{1, 2, 4, 8} {
			var rerr error
			var secs float64
			withShards(shards, func() {
				secs = timeIt(func() { g, rerr = graph.ReadEdgeListFile(in.path) })
			})
			if rerr != nil {
				return "", rerr
			}
			fmt.Fprintf(&b, "  read shards=%d: %7.3fs  %s\n",
				shards, secs, graph.Throughput(st.Size(), g.NumEdges(), secs))
		}
		var p *partition.Partitioned
		var perr error
		secs := timeIt(func() { p, perr = partition.Build(g, 16, partition.BFSLocality{}) })
		if perr != nil {
			return "", perr
		}
		fmt.Fprintf(&b, "  partition m=16: %7.3fs  slot tables %8.3f MB  routing total %8.3f MB\n",
			secs, float64(p.SlotTableBytes())/(1<<20), float64(p.RoutingTableBytes())/(1<<20))
	}
	return b.String(), nil
}
