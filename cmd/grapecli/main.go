// Command grapecli runs a PIE job over an edge-list graph file under a
// chosen parallel model, the end-user entry point of Fig 5's
// architecture.
//
// Usage:
//
//	grapecli -graph g.txt -algo sssp -source 0 -workers 8 -mode aap
//	grapecli -graph g.txt -algo cc -mode bsp -out cids.txt
//	grapecli -graph g.txt -algo pagerank -mode ap
//	grapecli -graph g.txt -algo sssp -checkpoint-every 1 -fault-seed 42
//	grapecli -graph g.txt -algo cc -transport tcp
//	grapecli -graph g.txt -algo sssp -checkpoint-dir /tmp/ckpt
//	grapecli -graph g.txt -algo sssp -checkpoint-dir /tmp/ckpt -resume
//	grapecli -graph g.txt -algo sssp -remote-workers 1,2 -max-restarts 2
//
// Client mode runs queries against a resident graped server instead of
// loading a graph locally (-graph is not needed; -out lines carry the
// same external vertex ids a local run writes):
//
//	grapecli -connect 127.0.0.1:7700 -algo sssp -source 3
//	grapecli -connect 127.0.0.1:7700 -algo recommend -user 2 -topk 5
//	grapecli -connect 127.0.0.1:7700 -algo stats
//
// Exit codes:
//
//	0  run completed (recovered runs included — restarts, failbacks and
//	   degraded durability are reported on stdout, not failures)
//	1  any other error (bad flags, unreadable graph, failed run/query)
//	3  -resume found no usable sealed epoch in -checkpoint-dir
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/checkpoint"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/serve"
	"aap/internal/supervise"
	"aap/internal/transport"
)

// serveCfg carries the internal -serve-worker child mode: when the
// supervisor re-execs grapecli as a worker host, execute serves the
// fragment over the plane instead of running the job.
var serveCfg struct {
	worker int
	addr   string
	inc    uint64
}

func main() {
	graphPath := flag.String("graph", "", "edge-list graph file (see graph.WriteEdgeList)")
	algo := flag.String("algo", "sssp", "algorithm: sssp, cc, pagerank")
	source := flag.Int64("source", 0, "SSSP source vertex id")
	workers := flag.Int("workers", 8, "number of virtual workers (fragments)")
	modeName := flag.String("mode", "aap", "parallel model: aap, bsp, ap, ssp, hsync")
	staleness := flag.Int("staleness", 2, "SSP staleness bound c")
	strategy := flag.String("partition", "bfs", "partition strategy: hash, range, bfs")
	out := flag.String("out", "", "write per-vertex results to this file (default stdout summary only)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "seal a Chandy-Lamport snapshot every N incremental rounds (0: checkpointing off, or every round with -checkpoint-dir, -fault-seed or -remote-workers)")
	faultSeed := flag.Int64("fault-seed", 0, "seeded chaos run: kill worker seed%workers at its first incremental round and recover (0: no faults; implies -checkpoint-every 1)")
	transportName := flag.String("transport", "inproc", "message plane: inproc, tcp (loopback TCP with codec-encoded batches)")
	checkpointDir := flag.String("checkpoint-dir", "", "tee sealed snapshots to durable records in this directory; a run without -resume first removes the records already there")
	resume := flag.Bool("resume", false, "restart from the newest sealed epoch in -checkpoint-dir instead of running from scratch")
	remoteWorkers := flag.String("remote-workers", "", "comma-separated worker ids hosted in supervised child processes (grapecli re-exec'd per host, loopback TCP)")
	maxRestarts := flag.Int("max-restarts", 2, "restart budget per supervised worker host before failing the worker back to a local Program")
	restartBackoff := flag.Duration("restart-backoff", 2*time.Millisecond, "base respawn backoff (capped exponential with jitter seeded from -fault-seed)")
	serveWorker := flag.Int("serve-worker", -1, "internal: host this worker's Program against -parent-addr instead of running the job")
	parentAddr := flag.String("parent-addr", "", "internal: parent listen address for -serve-worker")
	incarnation := flag.Uint64("incarnation", 1, "internal: link incarnation announced by -serve-worker")
	connect := flag.String("connect", "", "client mode: query a graped server at this address instead of running locally")
	clientID := flag.Int("client-id", 0, "client mode endpoint id, unique per client (0: derive from pid)")
	rpcTimeout := flag.Duration("rpc-timeout", 30*time.Second, "client mode per-call timeout")
	user := flag.Int("user", 0, "client mode: user id for -algo recommend")
	topk := flag.Int("topk", 5, "client mode: recommendations for -algo recommend")
	flag.Parse()
	serveCfg.worker, serveCfg.addr, serveCfg.inc = *serveWorker, *parentAddr, *incarnation

	if *connect != "" {
		runClient(*connect, *clientID, *rpcTimeout, *algo, graph.VertexID(*source), *user, *topk, *out)
		return
	}

	if *graphPath == "" {
		fatal(fmt.Errorf("-graph is required"))
	}
	st, err := os.Stat(*graphPath)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	g, err := graph.ReadEdgeListFile(*graphPath)
	if err != nil {
		fatal(err)
	}
	loadSecs := time.Since(t0).Seconds()
	loadRate := graph.Throughput(st.Size(), g.NumEdges(), loadSecs)

	strat, err := partition.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	t0 = time.Now()
	p, err := partition.Build(g, *workers, strat)
	if err != nil {
		fatal(err)
	}
	partSecs := time.Since(t0).Seconds()

	mode, err := core.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	// One TransportOptions for the run, filled by -transport and
	// -remote-workers alike; left empty it is the in-proc plane.
	opts := core.Options{Mode: mode, Staleness: *staleness, Transport: &core.TransportOptions{},
		Checkpoint: core.CheckpointOptions{EveryRounds: int32(*checkpointEvery), Dir: *checkpointDir}}
	if (*faultSeed != 0 || *remoteWorkers != "") && opts.Checkpoint.EveryRounds <= 0 {
		// A killed worker or a lost host with no sealed snapshot restarts
		// the run fresh; a snapshot every round lets recovery roll back
		// to the last round instead.
		opts.Checkpoint.EveryRounds = 1
	}
	if *faultSeed != 0 {
		w := int64(*workers)
		victim := int(((*faultSeed % w) + w) % w)
		opts.Faults = &core.Faults{
			Seed: *faultSeed,
			Kill: &core.KillSpec{Worker: victim, Round: 1},
		}
	}
	switch *transportName {
	case "inproc":
	case "tcp":
		opts.Transport.TCP = true
	default:
		fatal(fmt.Errorf("unknown transport %q", *transportName))
	}
	var sup *supervise.Supervisor
	if *remoteWorkers != "" && serveCfg.worker < 0 {
		ids, err := parseWorkerList(*remoteWorkers, *workers)
		if err != nil {
			fatal(err)
		}
		// Each host re-runs this same command line plus the serve-mode
		// flags; the supervisor substitutes the listen address and the
		// fencing incarnation at (re)spawn time.
		argv := append([]string{os.Args[0]}, os.Args[1:]...)
		argv = append(argv, "-serve-worker", "{worker}", "-parent-addr", "{addr}", "-incarnation", "{incarnation}")
		specs := make([]supervise.Spec, 0, len(ids))
		for _, w := range ids {
			specs = append(specs, supervise.Command(w, argv))
		}
		sup = supervise.New(supervise.Policy{
			MaxRestarts: *maxRestarts,
			Backoff:     transport.Backoff{Base: *restartBackoff, Seed: uint64(*faultSeed)},
		}, specs...)
		defer sup.Stop()
		opts.Transport.RemoteWorkers, opts.Transport.OnListen, opts.Transport.Supervisor = ids, sup.OnListen, sup
	}
	if *resume && *checkpointDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint-dir"))
	}

	var lines []string
	var stats core.RunStats
	switch *algo {
	case "sssp":
		if _, ok := p.G.IndexOf(graph.VertexID(*source)); !ok {
			fatal(fmt.Errorf("-source %d: no such vertex in %s", *source, *graphPath))
		}
		res := execute(p, sssp.Job(graph.VertexID(*source)), opts, *resume)
		stats = res.Stats
		for v, d := range res.Values {
			lines = append(lines, fmt.Sprintf("%d %g", p.G.IDOf(int32(v)), d))
		}
	case "cc":
		res := execute(p, cc.Job(), opts, *resume)
		stats = res.Stats
		for v, c := range res.Values {
			lines = append(lines, fmt.Sprintf("%d %d", p.G.IDOf(int32(v)), c))
		}
	case "pagerank":
		res := execute(p, pagerank.Job(pagerank.Config{}), opts, *resume)
		stats = res.Stats
		for v, s := range res.Values {
			lines = append(lines, fmt.Sprintf("%d %g", p.G.IDOf(int32(v)), s))
		}
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	fmt.Printf("%s/%s on %s: %d vertices, %d edges, %d workers\n",
		*algo, stats.Mode, *graphPath, p.G.NumVertices(), p.G.NumEdges(), *workers)
	fmt.Printf("ingest: load %.3fs (%s), partition(%s) %.3fs, resident graph %.2f MiB, routing %.2f MiB\n",
		loadSecs, loadRate, p.Strategy(), partSecs, float64(p.G.ResidentBytes())/(1<<20), float64(p.RoutingTableBytes())/(1<<20))
	fmt.Printf("time %.3fs, rounds max %d, messages %d, bytes %d\n",
		stats.Seconds, stats.MaxRound, stats.TotalMsgs, stats.TotalBytes)
	if stats.Checkpoints > 0 || stats.Recoveries > 0 {
		fmt.Printf("checkpoints %d (%d bytes), recoveries %d (%.3fms quiesced)\n",
			stats.Checkpoints, stats.CheckpointBytes, stats.Recoveries, stats.RecoverySeconds*1e3)
	}
	if *resume {
		fmt.Printf("resumed from epoch %d: %d bytes read in %.1fms\n",
			stats.ResumeEpoch, stats.ResumeBytes, stats.ResumeSeconds*1e3)
	}
	if stats.DurableBytes > 0 {
		fmt.Printf("durable: %d bytes written, %d fsyncs, %d seals superseded before their write\n", stats.DurableBytes, stats.FsyncCount, stats.DroppedSeals)
	}
	if stats.WireBytesOut > 0 || stats.WireBytesIn > 0 {
		fmt.Printf("wire: %d bytes out, %d bytes in, %d retries, %d heartbeat timeouts\n",
			stats.WireBytesOut, stats.WireBytesIn, stats.Retries, stats.HeartbeatTimeouts)
	}
	if stats.Restarts > 0 || stats.Failbacks > 0 || stats.FreshRestarts > 0 {
		fmt.Printf("supervision: %d restarts (rejoin %.1fms), %d failbacks, %d fresh restarts\n",
			stats.Restarts, stats.RejoinSeconds*1e3, stats.Failbacks, stats.FreshRestarts)
	}
	if sup != nil {
		for _, h := range sup.Report().Hosts {
			fmt.Printf("host worker=%d: incarnation %d, %d restarts%s\n",
				h.Worker, h.Incarnation, h.Restarts, map[bool]string{true: " (budget exhausted)", false: ""}[h.Exhausted])
		}
	}
	if stats.DurableDegraded != "" {
		fmt.Printf("warning: durable checkpoints degraded, run finished non-durable: %s\n", stats.DurableDegraded)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("results written to %s\n", *out)
	}
}

// runClient executes one query against a graped serving plane and
// prints a summary (plus the values to -out if set, one "externalID
// value" line per vertex — the format local -graph runs write).
func runClient(addr string, clientID int, timeout time.Duration, algo string, source graph.VertexID, user, topk int, out string) {
	id := int32(clientID)
	if id == 0 {
		id = int32(os.Getpid()&0x3fffffff) + 1
	}
	c, err := serve.DialRPC(addr, id, timeout)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	// External vertex identifiers: fetched once so -out lines carry the
	// same ids a local -graph run writes, regardless of the server's
	// internal vertex order.
	extID := func(v int) int64 { return int64(v) }
	if out != "" && algo != "recommend" {
		ids, err := c.IDs()
		if err != nil {
			fatal(err)
		}
		extID = func(v int) int64 { return ids[v] }
	}

	var lines []string
	var meta serve.QueryMeta
	switch algo {
	case "sssp":
		dist, m, err := c.SSSP(source)
		if err != nil {
			fatal(err)
		}
		meta = m
		reached := 0
		for v, d := range dist {
			if !math.IsInf(d, 1) {
				reached++
			}
			lines = append(lines, fmt.Sprintf("%d %g", extID(v), d))
		}
		fmt.Printf("sssp from %d via %s: %d vertices, %d reached\n", source, addr, len(dist), reached)
	case "cc":
		labels, m, err := c.CC()
		if err != nil {
			fatal(err)
		}
		meta = m
		comps := make(map[int64]bool)
		for v, l := range labels {
			comps[l] = true
			lines = append(lines, fmt.Sprintf("%d %d", extID(v), l))
		}
		fmt.Printf("cc via %s: %d vertices, %d components\n", addr, len(labels), len(comps))
	case "pagerank":
		ranks, m, err := c.PageRank()
		if err != nil {
			fatal(err)
		}
		meta = m
		for v, r := range ranks {
			lines = append(lines, fmt.Sprintf("%d %g", extID(v), r))
		}
		fmt.Printf("pagerank via %s: %d vertices\n", addr, len(ranks))
	case "recommend":
		recs, m, err := c.Recommend(user, topk)
		if err != nil {
			fatal(err)
		}
		meta = m
		fmt.Printf("top %d recommendations for user %d via %s:\n", len(recs), user, addr)
		for _, rec := range recs {
			fmt.Printf("  product %-6d predicted rating %.3f\n", rec.Product, rec.Score)
			lines = append(lines, fmt.Sprintf("%d %g", rec.Product, rec.Score))
		}
	case "stats":
		st, err := c.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("server %s: admitted %d, completed %d, failed %d, active %d, rejected %d\n",
			addr, st.Admitted, st.Completed, st.Failed, st.Active, st.Rejected)
		fmt.Printf("shared=%d max_batch=%d, queued now %d, qps %.2f, busy %.3fs over %.3fs\n",
			st.Shared, st.MaxBatch, st.QueuedNow, st.QPS, st.BusySeconds, st.UpSeconds)
		fmt.Printf("resident %d bytes, routing %d bytes, %d ready tasks, %d executors\n",
			st.ResidentBytes, st.RoutingBytes, st.ReadyTasks, st.Executors)
		return
	default:
		fatal(fmt.Errorf("unknown client algorithm %q (sssp, cc, pagerank, recommend, stats)", algo))
	}
	fmt.Printf("query %.3fs (queue wait %.3fs, batch %d, arena %d bytes, scanned %d edges)\n",
		meta.Seconds, meta.QueueWaitSeconds, meta.BatchSize, meta.ArenaBytes, meta.ScannedEdges)
	if out != "" {
		if err := os.WriteFile(out, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("results written to %s\n", out)
	}
}

// parseWorkerList parses a comma-separated list of worker ids, each in
// [0, workers).
func parseWorkerList(s string, workers int) ([]int, error) {
	var ids []int
	for _, f := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad worker id %q in -remote-workers", f)
		}
		if id < 0 || id >= workers {
			return nil, fmt.Errorf("-remote-workers id %d outside [0, %d)", id, workers)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// execute runs (or resumes) one job — or, in the internal -serve-worker
// child mode, hosts the worker's Program against the parent and exits.
// A resume against a directory with no decodable sealed record is its
// own failure mode — the operator should rerun without -resume — and
// gets a distinct message and exit code 3 so scripts can tell it apart
// from an ordinary failed run.
func execute[T any](p *partition.Partitioned, job core.Job[T], opts core.Options, resume bool) *core.Result[T] {
	if serveCfg.worker >= 0 {
		if serveCfg.addr == "" {
			fatal(fmt.Errorf("-serve-worker requires -parent-addr"))
		}
		topts := core.TransportOptions{Incarnation: serveCfg.inc}
		if err := core.ServeWorker(p, job, serveCfg.worker, serveCfg.addr, topts); err != nil {
			fatal(err)
		}
		os.Exit(0)
	}
	var res *core.Result[T]
	var err error
	if resume {
		res, err = core.Resume(p, job, opts)
	} else {
		res, err = core.Run(p, job, opts)
	}
	if err != nil {
		if errors.Is(err, checkpoint.ErrNoSealedEpoch) {
			fmt.Fprintf(os.Stderr, "grapecli: nothing to resume: no usable sealed epoch in %s (run without -resume to start fresh)\n",
				opts.Checkpoint.Dir)
			os.Exit(3)
		}
		fatal(err)
	}
	return res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grapecli:", err)
	os.Exit(1)
}
