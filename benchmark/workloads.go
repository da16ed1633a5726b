package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/serve"
)

// sizes are the input sizes of one -scale. "full" is what the metrics
// in BENCHMARK.json are bounded on; "tiny" only smoke-tests the code.
type sizes struct {
	ingestN       int // vertices of ingest_sssp_powerlaw
	roadSide      int // rounds_pagerank_road is a roadSide x roadSide lattice
	wireN         int // vertices of wire_sssp_powerlaw
	wireQueries   int // SSSP queries per rep of wire_sssp_powerlaw
	serveN        int // vertices of serve_sssp_rpc
	serveWarm     int // warm-up queries per client, per rep
	serveQueries  int // measured queries per client, per rep
	serveChecked  int // distinct sources whose replies are compared to ref.SSSP
	inprocQueries int // queries per client of the traced run's loop without RPC
	codecMsgs     int // messages of the codec measurement
	epochs        int // WriteEpoch calls of the durable-store measurement
	epochBytes    int // payload of each
}

var scales = map[string]sizes{
	"full": {ingestN: 600_000, roadSide: 700, wireN: 300_000, wireQueries: 8,
		serveN: 50_000, serveWarm: 10, serveQueries: 50, serveChecked: 40, inprocQueries: 50,
		codecMsgs: 1_000_000, epochs: 8, epochBytes: 32 << 20},
	"tiny": {ingestN: 3000, roadSide: 30, wireN: 2000, wireQueries: 3,
		serveN: 1000, serveWarm: 2, serveQueries: 15, serveChecked: 8, inprocQueries: 5,
		codecMsgs: 10_000, epochs: 2, epochBytes: 64 << 10},
}

var workloadNames = []string{"ingest_sssp_powerlaw", "rounds_pagerank_road", "wire_sssp_powerlaw", "serve_sssp_rpc"}

// serveClients is the number of closed-loop clients of serve_sssp_rpc,
// each on its own loopback connection: 2 = the cores the workloads are
// sized for.
const serveClients = 2

// query is one engine job with the sequential oracle's answer.
type query struct {
	job  core.Job[float64]
	want []float64 // by external vertex id
	tol  float64   // relative; 0 compares exactly
}

// workload is one set of generated inputs. The program under test sees
// the edge-list file and the queries, never the generator.
type workload struct {
	sz        sizes
	path      string // the generated edge-list file
	fileBytes int64
	n         int // vertices

	// The pipeline, mirroring the grapecli defaults (-workers 8
	// -partition bfs -mode aap -staleness 2) or, on serve_sssp_rpc, the
	// graped defaults (-workers 4 -partition hash, staleness 0).
	frags    int
	strategy partition.Strategy
	inproc   core.Options // mode and staleness only
	opts     core.Options // what the measured run adds: the TCP plane and checkpoints on wire_sssp_powerlaw

	// morePasses is how often a rep of a batch workload runs its queries
	// again after the answer: ingest_sssp_powerlaw answers one query of
	// half a second per set-up, too few to give run_s a steady median.
	morePasses int

	// queries are the jobs of one rep on the batch workloads. On
	// serve_sssp_rpc they are a few of the served sources, run directly
	// on the Session by the traced run's per-layer passes.
	queries []query

	// serve_sssp_rpc only: each client's sources, warm-up first, and
	// the oracle answers of the checked sample.
	plan    [][]graph.VertexID
	checked map[graph.VertexID][]float64
}

// prepare generates the workload's inputs from the seed into dir and
// computes the oracle answers, all untimed.
func prepare(name string, seed int64, sz sizes, dir string) (*workload, error) {
	w := &workload{sz: sz, frags: 8, strategy: partition.BFSLocality{},
		inproc: core.Options{Mode: core.AAP, Staleness: 2}}
	w.opts = w.inproc
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	var g *graph.Graph
	switch name {
	case "ingest_sssp_powerlaw":
		g = gen.PowerLaw(sz.ingestN, 8, 2.1, true, seed)
		w.ssspQueries(g, rng, 1)
		w.morePasses = 3
	case "rounds_pagerank_road":
		g = gen.RoadNet(sz.roadSide, sz.roadSide, seed)
		w.queries = []query{{job: pagerank.Job(pagerank.Config{}), want: byID(g, ref.PageRank(g, 0.85, 1e-6, 1000)), tol: 1e-4}}
	case "wire_sssp_powerlaw":
		g = gen.PowerLaw(sz.wireN, 8, 2.1, true, seed)
		w.strategy = partition.Hash{}
		w.opts.Transport = &core.TransportOptions{TCP: true}
		w.opts.Checkpoint = core.CheckpointOptions{EveryRounds: 2}
		w.ssspQueries(g, rng, sz.wireQueries)
	case "serve_sssp_rpc":
		g = gen.PowerLaw(sz.serveN, 8, 2.1, true, seed)
		w.frags, w.strategy = 4, partition.Hash{}
		w.inproc = core.Options{Mode: core.AAP}
		w.opts = w.inproc
		w.servePlan(g, seed, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.n = g.NumVertices()
	w.path = filepath.Join(dir, name+".txt")
	f, err := os.Create(w.path)
	if err != nil {
		return nil, err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil { // setup_s is defined from a file on disk
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	st, err := os.Stat(w.path)
	if err != nil {
		return nil, err
	}
	w.fileBytes = st.Size()
	return w, nil
}

// byID re-indexes an oracle answer, which follows g's vertex order, by
// external vertex id; the generators hand out the ids 0..n-1.
func byID(g *graph.Graph, values []float64) []float64 {
	out := make([]float64, len(values))
	for v, x := range values {
		out[g.IDOf(int32(v))] = x
	}
	return out
}

func ssspQuery(g *graph.Graph, src graph.VertexID) query {
	return query{job: sssp.Job(src), want: byID(g, ref.SSSP(g, src))}
}

// ssspQueries draws k sources, one from each run of 8 ids among the 8k
// lowest: the generator hands out ids in order of expected degree, so
// these are the busiest vertices. A query's work follows its source,
// from nothing for a vertex with no way out to twice the messages of a
// hub's, and varies from run to run for an ordinary source; from a hub
// it repeats, which is what lets ten seeds agree on run_s.
func (w *workload) ssspQueries(g *graph.Graph, rng *rand.Rand, k int) {
	for i := 0; i < k; i++ {
		w.queries = append(w.queries, ssspQuery(g, graph.VertexID(8*i+rng.Intn(8))))
	}
}

// servePlan draws every client's sources from a Zipf(s=1.2, v=8) over
// the vertices that have out-edges, in id order, so that the hubs are
// the hot sources and concurrent queries overlap and batch.
func (w *workload) servePlan(g *graph.Graph, seed int64, rng *rand.Rand) {
	var eligible []graph.VertexID
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.OutDegree(v) >= 1 {
			eligible = append(eligible, g.IDOf(v))
		}
	}
	var distinct []graph.VertexID
	seen := make(map[graph.VertexID]bool)
	for c := 0; c < serveClients; c++ {
		crng := rand.New(rand.NewSource(seed*7919 + 100 + int64(c)))
		zipf := rand.NewZipf(crng, 1.2, 8, uint64(len(eligible)-1))
		srcs := make([]graph.VertexID, w.sz.serveWarm+w.sz.serveQueries)
		for i := range srcs {
			srcs[i] = eligible[zipf.Uint64()]
			if i >= w.sz.serveWarm && !seen[srcs[i]] {
				seen[srcs[i]] = true
				distinct = append(distinct, srcs[i])
			}
		}
		w.plan = append(w.plan, srcs)
	}
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	distinct = distinct[:min(len(distinct), w.sz.serveChecked)]
	w.checked = make(map[graph.VertexID][]float64)
	for i, src := range distinct {
		q := ssspQuery(g, src)
		w.checked[src] = q.want
		if i < 8 {
			w.queries = append(w.queries, q)
		}
	}
}

// matches compares an answer, which follows the partitioned graph's
// vertex order, with the oracle's.
func matches(p *partition.Partitioned, got, want []float64, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for v, x := range got {
		y := want[p.G.IDOf(int32(v))]
		if x != y && !(tol > 0 && math.Abs(x-y) <= tol*math.Max(1, math.Abs(y))) {
			return false
		}
	}
	return true
}

// pass is one run of the workload's queries against a ready pipeline.
type pass struct {
	wall              float64
	attempted, failed int
}

// repResult is what one rep (one set-up and the runs against it)
// measured.
type repResult struct {
	root        int // the rep's "answer" span
	setup       float64
	answer      float64 // set-up and first run timed as one interval
	spent       float64 // answer and the further runs
	passes      []pass
	lat         []float64
	residentMB  float64           // warm-up rep only
	graphAllocs float64           // traced reps only
	stats       []core.RunStats   // batch workloads: one per query
	metas       []serve.QueryMeta // serve_sssp_rpc: one per measured query
	served      serve.Stats       // serve_sssp_rpc: the server's counters after the run
}

const mb = 1 << 20

// liveHeap collects twice, so that what the first collection only
// queued (finalizers, pool victims) is gone too.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// load is the part of set-up every pipeline shares: edge-list file to
// partitioned graph. When traced it also counts the reader's mallocs.
func (w *workload) load(sc scope) (p *partition.Partitioned, readAllocs float64, err error) {
	var before, after runtime.MemStats
	if sc.tr != nil {
		runtime.ReadMemStats(&before)
	}
	end := sc.begin("graph.ReadEdgeListFile")
	g, err := graph.ReadEdgeListFile(w.path)
	end()
	if err != nil {
		return nil, 0, err
	}
	if sc.tr != nil {
		runtime.ReadMemStats(&after)
		readAllocs = float64(after.Mallocs - before.Mallocs)
	}
	end = sc.begin("partition.Build")
	p, err = partition.Build(g, w.frags, w.strategy)
	end()
	return p, readAllocs, err
}

// rep sets the pipeline up from the file and runs the workload's
// queries, checking every answer after the clock has stopped. The
// warm-up rep also measures the heap the set-up leaves live, with a
// collection that the timed reps do without; on serve_sssp_rpc it
// stops after the warm-up queries.
func (w *workload) rep(sc scope, warm bool) (repResult, error) {
	var r repResult
	heap0 := liveHeap() // every rep starts from a collected heap
	asc, endAnswer := sc.enter("answer")
	r.root = asc.parent
	t0 := time.Now()
	ssc, endSetup := asc.enter("setup")
	p, allocs, err := w.load(ssc)
	if err != nil {
		return r, err
	}
	r.graphAllocs = allocs
	var sess *core.Session
	var srv *serve.Server
	var calls []ssspCall
	if w.plan == nil {
		end := ssc.begin("core.NewSession")
		sess = core.NewSession(p)
		end()
	} else {
		var closeAll func()
		srv, calls, closeAll, err = serveSetup(ssc, p)
		if err != nil {
			return r, err
		}
		defer closeAll()
	}
	endSetup()
	r.setup = time.Since(t0).Seconds()
	if warm {
		r.residentMB = (liveHeap() - heap0) / mb
	}

	rsc, endRun := asc.enter("run")
	if w.plan == nil {
		record := func(outs []outcome, wall float64) {
			ps := pass{wall: wall, attempted: len(outs)}
			for i, o := range outs {
				r.lat = append(r.lat, o.lat)
				if o.err != nil || !matches(p, o.values, w.queries[i].want, w.queries[i].tol) {
					ps.failed++
				}
			}
			r.passes = append(r.passes, ps)
		}
		tRun := time.Now()
		outs := runQueries(rsc, sess, w.queries, w.opts)
		wall := time.Since(tRun).Seconds()
		endRun()
		r.answer = time.Since(t0).Seconds()
		endAnswer()
		for _, o := range outs {
			r.stats = append(r.stats, o.stats)
		}
		record(outs, wall)
		for i := 0; i < w.morePasses && !warm; i++ {
			tRun := time.Now()
			outs := runQueries(scope{}, sess, w.queries, w.opts)
			record(outs, time.Since(tRun).Seconds())
		}
		r.spent = time.Since(t0).Seconds()
		return r, nil
	}
	w.closedLoop(rsc, "serve.Client.SSSP", p, calls, 0, w.sz.serveWarm)
	if !warm {
		tRun := time.Now()
		replies := w.closedLoop(rsc, "serve.Client.SSSP", p, calls, w.sz.serveWarm, w.sz.serveWarm+w.sz.serveQueries)
		ps := pass{wall: time.Since(tRun).Seconds(), attempted: len(replies)}
		for _, rp := range replies {
			r.lat = append(r.lat, rp.lat)
			r.metas = append(r.metas, rp.meta)
			if !rp.ok {
				ps.failed++
			}
		}
		r.passes = append(r.passes, ps)
	}
	endRun()
	r.answer = time.Since(t0).Seconds()
	r.spent = r.answer
	endAnswer()
	r.served = srv.Stats()
	return r, nil
}

// outcome is one engine query as the caller saw it.
type outcome struct {
	lat    float64
	values []float64
	stats  core.RunStats
	err    error
}

// runQueries runs the queries back to back against a ready Session.
func runQueries(sc scope, sess *core.Session, queries []query, opts core.Options) []outcome {
	outs := make([]outcome, len(queries))
	for i, q := range queries {
		t := time.Now()
		end := sc.begin("core.Query")
		res, err := core.Query(sess, q.job, opts)
		end()
		outs[i] = outcome{lat: time.Since(t).Seconds(), err: err}
		if res != nil && err == nil {
			outs[i].values, outs[i].stats = res.Values, res.Stats
		}
	}
	return outs
}

// ssspCall is one client's way to the server: over RPC, or straight
// into Server.SSSP for the traced run's loop without RPC.
type ssspCall func(src graph.VertexID) ([]float64, serve.QueryMeta, error)

// grapedDefaults are the scheduler settings graped starts with
// (-max-inflight 4 -queue-depth 64 -batch-window 2ms -batch-max 8 -mode
// aap), without its per-query log line.
var grapedDefaults = []serve.Option{serve.WithMaxInflight(4), serve.WithQueueDepth(64),
	serve.WithBatchWindow(2 * time.Millisecond), serve.WithBatchMax(8), serve.WithMode(core.AAP)}

// serveSetup is the graped half of set-up: the server behind its RPC
// plane and one connection per client.
func serveSetup(sc scope, p *partition.Partitioned) (*serve.Server, []ssspCall, func(), error) {
	end := sc.begin("serve.New")
	srv := serve.New(p, grapedDefaults...)
	end()
	end = sc.begin("serve.ListenRPC")
	rs, err := serve.ListenRPC(srv, "127.0.0.1:0", 0)
	end()
	if err != nil {
		return nil, nil, nil, err
	}
	closers := []func() error{rs.Close}
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]() // the run is over and every reply is in; nothing to report
		}
	}
	var calls []ssspCall
	for c := 0; c < serveClients; c++ {
		end = sc.begin("serve.DialRPC")
		cl, err := serve.DialRPC(rs.Addr(), int32(c+1), 30*time.Second)
		end()
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		closers = append(closers, cl.Close)
		calls = append(calls, cl.SSSP)
	}
	return srv, calls, closeAll, nil
}

// reply is one served query as its client saw it.
type reply struct {
	lat  float64
	meta serve.QueryMeta
	ok   bool // no error, full length, and equal to the oracle where the source is in the checked sample
}

// closedLoop has every client send plan[from:to] one query at a time,
// each waiting for its reply before the next, and returns all replies
// once the last client is done. Client 0's spans go under sc; the other
// clients run beside it, so each gets a root span of its own and stays
// out of the accounting of the rep's wall time.
func (w *workload) closedLoop(sc scope, spanName string, p *partition.Partitioned, calls []ssspCall, from, to int) []reply {
	perClient := make([][]reply, len(calls))
	var wg sync.WaitGroup
	for c, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			csc := sc
			if c > 0 {
				var end func()
				csc, end = scope{tr: sc.tr, rep: sc.rep}.enter(fmt.Sprintf("client%d", c))
				defer end()
			}
			for _, src := range w.plan[c][from:to] {
				t := time.Now()
				end := csc.begin(spanName)
				dist, meta, err := call(src)
				end()
				rp := reply{lat: time.Since(t).Seconds(), meta: meta, ok: err == nil && len(dist) == w.n}
				if want := w.checked[src]; rp.ok && want != nil {
					rp.ok = matches(p, dist, want, 0)
				}
				perClient[c] = append(perClient[c], rp)
			}
		}()
	}
	wg.Wait()
	var all []reply
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all
}
