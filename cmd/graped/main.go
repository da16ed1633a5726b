// Command graped is the resident graph serving daemon: it loads (or
// generates) a graph once, builds the shared immutable plane, and hosts
// it behind the serving RPC plane so many clients can run queries
// against one Session concurrently — the serving-plane counterpart of
// grapecli's one-shot runs.
//
// Usage:
//
//	graped -graph g.txt -listen 127.0.0.1:7700
//	graped -gen powerlaw:5000:8:7 -listen 127.0.0.1:0 -addr-file /tmp/addr
//	graped -gen ratings:500:60:10:4:9 -cf-epochs 12   # SSSP + Recommend
//	graped -graph g.txt -max-inflight 4 -queue-depth 64
//
// The bound address is printed on stdout (and written to -addr-file
// when set) once the server is accepting queries; per-query serving
// metrics are logged to stderr. SIGINT/SIGTERM drains and exits 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aap/internal/algo/cf"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/serve"
)

func main() {
	graphPath := flag.String("graph", "", "edge-list graph file to serve")
	genSpec := flag.String("gen", "", "generate the served graph: powerlaw:N:avgdeg:seed, grid:rows:cols:seed, ratings:users:products:peruser:rank:seed")
	listen := flag.String("listen", "127.0.0.1:0", "TCP address to serve on (port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once serving")
	workers := flag.Int("workers", 4, "fragments of the shared plane")
	strategy := flag.String("partition", "hash", "partition strategy: hash, range, bfs")
	modeName := flag.String("mode", "aap", "engine mode for query runs: aap, bsp, ap, ssp, hsync")
	maxInflight := flag.Int("max-inflight", 4, "concurrent engine runs (queries sharing an SSSP run hold one)")
	queueDepth := flag.Int("queue-depth", 64, "queries allowed to wait beyond the in-flight cap")
	deadline := flag.Duration("deadline", 0, "per-query engine deadline (0: the engine's 5-minute bound)")
	pagerankTol := flag.Float64("pagerank-tol", 1e-8, "PageRank query tolerance")
	cfEpochs := flag.Int("cf-epochs", 10, "CF training epochs for -gen ratings graphs")
	flag.Parse()
	if err := checkScheduler(scheduler{
		maxInflight: *maxInflight, queueDepth: *queueDepth,
		deadline: *deadline, pagerankTol: *pagerankTol,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "graped:", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "graped ", log.LstdFlags|log.Lmicroseconds)

	g, cfCfg, err := loadGraph(*graphPath, *genSpec, *cfEpochs)
	if err != nil {
		fatal(err)
	}
	strat, err := partition.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	p, err := partition.Build(g, *workers, strat)
	if err != nil {
		fatal(err)
	}

	mode, err := core.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	opts := []serve.Option{
		serve.WithMaxInflight(*maxInflight),
		serve.WithQueueDepth(*queueDepth),
		serve.WithDeadline(*deadline),
		serve.WithMode(mode),
		serve.WithPageRankTol(*pagerankTol),
		serve.WithLogger(logger),
	}
	if cfCfg != nil {
		opts = append(opts, serve.WithCF(*cfCfg))
	}
	srv := serve.New(p, opts...)
	rs, err := serve.ListenRPC(srv, *listen, 0)
	if err != nil {
		fatal(err)
	}
	logger.Printf("serving %d vertices, %d edges, %d fragments on %s; resident graph %.2f MiB, routing %.2f MiB",
		g.NumVertices(), g.NumEdges(), *workers, rs.Addr(), float64(p.G.ResidentBytes())/(1<<20), float64(p.RoutingTableBytes())/(1<<20))
	fmt.Printf("graped: listening on %s\n", rs.Addr())
	if *addrFile != "" {
		// Write-then-rename so a polling client never reads a partial
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(rs.Addr()), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatal(err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	// Logged after Close, which answers the calls in flight first.
	if err := rs.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	st := srv.Stats()
	logger.Printf("shutting down: admitted=%d completed=%d failed=%d rejected=%d shared=%d max_batch=%d qps=%.2f",
		st.Admitted, st.Completed, st.Failed, st.Rejected, st.Shared, st.MaxBatch, st.QPS)
}

// scheduler holds the flags that serve's options would quietly replace
// with their defaults when out of range (a -max-inflight of -1 would
// serve with 4).
type scheduler struct {
	maxInflight, queueDepth int
	deadline                time.Duration
	pagerankTol             float64
}

// checkScheduler refuses such a value, naming its flag, so graped never
// serves with settings other than the ones it was given.
func checkScheduler(s scheduler) error {
	for _, c := range []struct {
		bad  bool
		flag string
		want string
		got  any
	}{
		{s.maxInflight <= 0, "-max-inflight", "a positive count", s.maxInflight},
		{s.queueDepth <= 0, "-queue-depth", "a positive count", s.queueDepth},
		{s.deadline < 0, "-deadline", "zero (the engine's 5-minute bound) or a positive duration", s.deadline},
		{!(s.pagerankTol > 0) || math.IsInf(s.pagerankTol, 1), "-pagerank-tol", "a positive finite number", s.pagerankTol},
	} {
		if c.bad {
			return fmt.Errorf("%s must be %s, got %v", c.flag, c.want, c.got)
		}
	}
	return nil
}

// loadGraph resolves -graph / -gen into the served graph, plus a CF
// config when the graph is a generated rating graph.
func loadGraph(path, spec string, cfEpochs int) (*graph.Graph, *cf.Config, error) {
	switch {
	case path != "" && spec != "":
		return nil, nil, fmt.Errorf("-graph and -gen are mutually exclusive")
	case path != "":
		g, err := graph.ReadEdgeListFile(path)
		return g, nil, err
	case spec == "":
		return nil, nil, fmt.Errorf("one of -graph or -gen is required")
	}
	parts := strings.Split(spec, ":")
	argN := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("-gen %q: missing field %d", spec, i)
		}
		return strconv.Atoi(parts[i])
	}
	switch parts[0] {
	case "powerlaw":
		n, err1 := argN(1)
		deg, err2 := argN(2)
		seed, err3 := argN(3)
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, nil, err
		}
		return gen.PowerLaw(n, float64(deg), 2.1, true, int64(seed)), nil, nil
	case "grid":
		rows, err1 := argN(1)
		cols, err2 := argN(2)
		seed, err3 := argN(3)
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, nil, err
		}
		return gen.Grid(rows, cols, int64(seed)), nil, nil
	case "ratings":
		users, err1 := argN(1)
		products, err2 := argN(2)
		perUser, err3 := argN(3)
		rank, err4 := argN(4)
		seed, err5 := argN(5)
		if err := firstErr(err1, err2, err3, err4, err5); err != nil {
			return nil, nil, err
		}
		r := gen.Bipartite(users, products, perUser, rank, 1.0, int64(seed))
		// Planted ratings are dot products plus noise and can dip to
		// zero or below; SSSP's weight validation (and any meaningful
		// shortest path) needs positive weights, so serving clamps them.
		// Recommendations are unaffected: training reads the same
		// clamped ratings every run, and serving equivalence is defined
		// over the graph as served.
		clampWeightsPositive(r.G)
		cfg := cf.Config{Users: users, Products: products, Rank: rank, Epochs: cfEpochs, Seed: int64(seed)}
		return r.G, &cfg, nil
	default:
		return nil, nil, fmt.Errorf("unknown -gen kind %q", parts[0])
	}
}

// clampWeightsPositive raises every edge weight to at least 0.01, in
// place, before the graph is shared. Only used at startup.
func clampWeightsPositive(g *graph.Graph) {
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		ws := g.OutWeights(v)
		for i, w := range ws {
			if !(w > 0.01) {
				ws[i] = 0.01
			}
		}
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graped:", err)
	os.Exit(1)
}
