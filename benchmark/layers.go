package main

import (
	"path/filepath"
	"runtime"
	"time"

	"aap/internal/checkpoint"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/serve"
)

// samples collects, per metric name, the values one run measured.
type samples map[string][]float64

func (s samples) add(name string, v ...float64) { s[name] = append(s[name], v...) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanSeconds sums the spans of one name in one rep.
func spanSeconds(spans []span, rep int, name string) float64 {
	var t float64
	for _, sp := range spans {
		if sp.Rep == rep && sp.Name == name {
			t += sp.End - sp.Start
		}
	}
	return t
}

// tracedRep turns one traced rep into per-layer samples: times from its
// spans, counts from the stats its calls returned.
func (w *workload) tracedRep(s samples, spans []span, rep int, r repResult) {
	wall, self, residual := account(spans, r.root)
	s.add("trace.answer_s", wall)
	s.add("trace.residual_s", residual)
	for _, layer := range []string{"graph", "partition", "core", "serve"} {
		s.add(layer+".self_s", self[layer])
	}
	read := spanSeconds(spans, rep, "graph.ReadEdgeListFile")
	s.add("graph.read_s", read)
	s.add("graph.mb_per_s", ratio(float64(w.fileBytes)/mb, read))
	s.add("graph.allocs", r.graphAllocs)
	s.add("partition.build_s", spanSeconds(spans, rep, "partition.Build"))
	s.add("core.session_s", spanSeconds(spans, rep, "core.NewSession"))
	s.add("core.query_s", spanSeconds(spans, rep, "core.Query"))
	if w.plan == nil {
		engineCounters(s, r.stats)
		return
	}
	// Every query of a batch reports the batch's size and scan, so
	// summing 1/size and scan/size over the queries counts each engine
	// run once.
	var runs, scanned float64
	for i, m := range r.metas {
		s.add("serve.queue_wait_p50_ms", m.QueueWaitSeconds*1e3)
		s.add("serve.engine_p50_ms", m.Seconds*1e3)
		s.add("serve.rpc_overhead_p50_ms", (r.lat[i]-m.Seconds)*1e3)
		runs += ratio(1, float64(m.BatchSize))
		scanned += ratio(float64(m.ScannedEdges), float64(m.BatchSize))
	}
	s.add("serve.scanned_edges_per_query", ratio(scanned, float64(len(r.metas))))
	s.add("serve.mean_batch", ratio(float64(len(r.metas)), runs))
	s.add("serve.max_batch", float64(r.served.MaxBatch))
	s.add("serve.rejected", float64(r.served.Rejected))
}

// engineCounters adds what the engine reported for one pass over the
// workload's queries: sums over the queries, except the two maxima.
func engineCounters(s samples, stats []core.RunStats) {
	var t core.RunStats
	for _, st := range stats {
		t.MaxRound = max(t.MaxRound, st.MaxRound)
		t.ArenaBytes = max(t.ArenaBytes, st.ArenaBytes)
		t.SumRounds += st.SumRounds
		t.TotalMsgs += st.TotalMsgs
		t.TotalBytes += st.TotalBytes
		t.TotalBusy += st.TotalBusy
		t.TotalIdle += st.TotalIdle
		t.TotalWork += st.TotalWork
		t.ScannedEdges += st.ScannedEdges
		t.WireBytesOut += st.WireBytesOut
		t.Retries += st.Retries
		t.HeartbeatTimeouts += st.HeartbeatTimeouts
		t.Checkpoints += st.Checkpoints
		t.CheckpointBytes += st.CheckpointBytes
	}
	s.add("core.rounds_max", float64(t.MaxRound))
	s.add("core.rounds_sum", float64(t.SumRounds))
	s.add("core.msgs", float64(t.TotalMsgs))
	s.add("core.msg_bytes", float64(t.TotalBytes))
	s.add("core.busy_s", t.TotalBusy)
	s.add("core.idle_s", t.TotalIdle)
	s.add("core.idle_ratio", ratio(t.TotalIdle, t.TotalBusy+t.TotalIdle))
	s.add("core.arena_bytes", float64(t.ArenaBytes))
	s.add("algo.scanned_edges", float64(t.ScannedEdges))
	s.add("algo.work", float64(t.TotalWork))
	s.add("transport.wire_bytes_out", float64(t.WireBytesOut))
	s.add("transport.wire_bytes_per_msg", ratio(float64(t.WireBytesOut), float64(t.TotalMsgs)))
	s.add("transport.retries", float64(t.Retries))
	s.add("transport.heartbeat_timeouts", float64(t.HeartbeatTimeouts))
	s.add("checkpoint.sealed", float64(t.Checkpoints))
	s.add("checkpoint.bytes", float64(t.CheckpointBytes))
}

// layerPasses are the runs only the traced run makes, once each, after
// its reps: the workload's queries on a ready in-proc Session under
// every mode, on one core, and on one fragment; on wire_sssp_powerlaw
// the TCP plane without checkpoints and the codec and durable-store
// measurements; on serve_sssp_rpc the client loop without RPC. Their
// answers are checked like any other.
func (w *workload) layerPasses(dir string, s samples) (attempted, failed int, err error) {
	p, _, err := w.load(scope{})
	if err != nil {
		return 0, 0, err
	}
	s.add("partition.skew", p.Skew())
	s.add("partition.slot_table_bytes", float64(p.SlotTableBytes()))
	s.add("partition.routing_table_bytes", float64(p.RoutingTableBytes()))

	t := time.Now()
	if _, err := graph.ReadEdgeListFileMmap(w.path); err != nil {
		return 0, 0, err
	}
	s.add("graph.mmap_read_s", time.Since(t).Seconds())

	pass := func(p *partition.Partitioned, opts core.Options) (float64, []core.RunStats) {
		t := time.Now()
		outs := runQueries(scope{}, core.NewSession(p), w.queries, opts)
		wall := time.Since(t).Seconds()
		stats := make([]core.RunStats, len(outs))
		for i, o := range outs {
			stats[i] = o.stats
			attempted++
			if o.err != nil || !matches(p, o.values, w.queries[i].want, w.queries[i].tol) {
				failed++
			}
		}
		return wall, stats
	}

	var aap float64
	for _, m := range []struct {
		name string
		mode core.Mode
	}{{"aap", core.AAP}, {"bsp", core.BSP}, {"ap", core.AP}, {"ssp", core.SSP}} {
		opts := w.inproc
		opts.Mode = m.mode
		if m.mode == core.SSP {
			opts.Staleness = 2 // grapecli's -staleness default
		}
		wall, stats := pass(p, opts)
		s.add("core.mode_s."+m.name, wall)
		if m.mode == core.AAP {
			aap = wall
			if w.plan != nil { // the reps saw the engine only through RPC replies
				engineCounters(s, stats)
			}
		}
	}

	procs := runtime.GOMAXPROCS(1)
	one, _ := pass(p, w.inproc)
	runtime.GOMAXPROCS(procs)
	s.add("core.procs1_over_procsN", ratio(one, aap))

	p1, err := partition.Build(p.G, 1, w.strategy)
	if err != nil {
		return attempted, failed, err
	}
	kernel, _ := pass(p1, w.inproc)
	s.add("algo.kernel_1frag_s", kernel)

	if w.opts.Transport != nil {
		plain := w.opts
		plain.Checkpoint = core.CheckpointOptions{}
		tcp, _ := pass(p, plain)
		s.add("transport.tcp_minus_inproc_s", tcp-aap)
		s.add("checkpoint.ckpt_minus_plain_s", summarize(s["core.query_s"], "").Value-tcp)
		codecPass(s, w.sz.codecMsgs)
		if err := durablePass(s, filepath.Join(dir, "epochs"), w.sz); err != nil {
			return attempted, failed, err
		}
	}

	if w.plan != nil {
		srv := serve.New(p, grapedDefaults...)
		calls := make([]ssspCall, serveClients)
		for c := range calls {
			calls[c] = func(src graph.VertexID) ([]float64, serve.QueryMeta, error) {
				dist, _, err := srv.SSSP(src)
				return dist, serve.QueryMeta{}, err
			}
		}
		for _, rp := range w.closedLoop(scope{}, "", p, calls, w.sz.serveWarm, w.sz.serveWarm+w.sz.inprocQueries) {
			s.add("serve.inproc_p50_ms", rp.lat*1e3)
			attempted++
			if !rp.ok {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

// codecPass times n (int32, float64) messages, the shape of an SSSP or
// PageRank update on the wire, through the codec's public functions.
func codecPass(s samples, n int) {
	buf := make([]byte, 0, 12*n)
	t := time.Now()
	for i := 0; i < n; i++ {
		buf = codec.AppendInt32(buf, int32(i))
		buf = codec.AppendFloat64(buf, float64(i))
	}
	s.add("codec.encode_ns_per_msg", float64(time.Since(t).Nanoseconds())/float64(n))
	s.add("codec.bytes_per_msg", float64(len(buf))/float64(n))
	r := codec.NewReader(buf)
	var check float64
	t = time.Now()
	for i := 0; i < n; i++ {
		check += float64(r.Int32()) + r.Float64()
	}
	ns := float64(time.Since(t).Nanoseconds()) / float64(n)
	if r.Err() != nil || check != float64(n)*float64(n-1) {
		ns = 0 // a decode that lost data has no speed
	}
	s.add("codec.decode_ns_per_msg", ns)
}

// durablePass times direct DurableStore.WriteEpoch calls in dir. The
// numbers are this sandbox's disk, not a property of the code alone.
func durablePass(s samples, dir string, sz sizes) error {
	store, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		return err
	}
	payload := make([]byte, sz.epochBytes)
	for e := 1; e <= sz.epochs; e++ {
		t := time.Now()
		if err := store.WriteEpoch(int32(e), payload); err != nil {
			return err
		}
		s.add("checkpoint.write_epoch_ms", time.Since(t).Seconds()*1e3)
	}
	s.add("checkpoint.fsyncs", float64(store.FsyncCount()))
	s.add("checkpoint.bytes_written", float64(store.BytesWritten()))
	return nil
}
