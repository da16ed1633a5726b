package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/cf"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// ErrOverloaded is returned when a query arrives while the wait queue
// is already at WithQueueDepth capacity — the admission controller's
// fail-fast signal to shed load instead of queueing unboundedly.
var ErrOverloaded = errors.New("serve: server overloaded, query rejected")

// ErrNoCF is returned by Recommend when the server was built without
// WithCF.
var ErrNoCF = errors.New("serve: recommendation path not configured (WithCF)")

// Server schedules concurrent queries onto one resident core.Session.
// All methods are safe for concurrent use; the underlying shared plane
// is read-only, so queries never contend on data, only on the admission
// semaphore.
type Server struct {
	sess *core.Session
	cfg  config

	sem     chan struct{} // in-flight permits
	waiting atomic.Int64  // queries admitted but not yet holding a permit

	// SSSP batcher: pending sources collect until the window expires or
	// batchMax is reached; the cut batch then runs each distinct source
	// once, concurrently, and queries for one source share its run.
	mu      sync.Mutex
	pending []*ssspReq
	timer   *time.Timer

	// CF factors, trained on first Recommend.
	cfOnce sync.Once
	cfErr  error
	userF  [][]float64
	prodF  [][]float64

	rejected       atomic.Int64
	batches        atomic.Int64
	batchedQueries atomic.Int64
	maxBatch       atomic.Int64
}

// New builds a Server hosting p behind a fresh resident Session.
func New(p *partition.Partitioned, opts ...Option) *Server {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	cfg = cfg.withDefaults()
	return &Server{
		sess: core.NewSession(p),
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.maxInflight),
	}
}

// Session exposes the resident session (stats, shared plane).
func (s *Server) Session() *core.Session { return s.sess }

// Stats is a point-in-time snapshot of the scheduling plane.
type Stats struct {
	core.SessionStats
	Rejected       int64 // queries shed by admission control
	Batches        int64 // SSSP batches cut
	BatchedQueries int64 // SSSP queries in those batches
	MaxBatch       int64 // largest batch cut so far
	QueuedNow      int64 // queries currently waiting for a permit
}

// Stats snapshots the server and session counters.
func (s *Server) Stats() Stats {
	return Stats{
		SessionStats:   s.sess.Stats(),
		Rejected:       s.rejected.Load(),
		Batches:        s.batches.Load(),
		BatchedQueries: s.batchedQueries.Load(),
		MaxBatch:       s.maxBatch.Load(),
		QueuedNow:      s.waiting.Load(),
	}
}

// runOpts is the engine option set every query runs with.
func (s *Server) runOpts() core.Options {
	return core.Options{
		Mode:            s.cfg.mode,
		PhysicalWorkers: s.cfg.njobs,
		Deadline:        s.cfg.deadline,
	}
}

// acquire admits one unit of work: reject if the wait queue is full,
// otherwise wait for an in-flight permit. Returns the release func and
// the time spent queued.
func (s *Server) acquire() (release func(), wait time.Duration, err error) {
	if s.waiting.Add(1) > int64(s.cfg.queueDepth) {
		s.waiting.Add(-1)
		s.rejected.Add(1)
		return nil, 0, ErrOverloaded
	}
	t0 := time.Now()
	s.sem <- struct{}{}
	s.waiting.Add(-1)
	return func() { <-s.sem }, time.Since(t0), nil
}

// logQuery emits the per-query serving line when a logger is set.
func (s *Server) logQuery(name string, seconds float64, st *core.RunStats, err error) {
	if s.cfg.logger == nil {
		return
	}
	status := "ok"
	if err != nil {
		status = "err=" + err.Error()
	}
	s.cfg.logger.Printf(
		"query=%s %s seconds=%.4f queue_wait=%.4f batch=%d arena_bytes=%d scanned_edges=%d",
		name, status, seconds, st.QueueWaitSeconds, st.BatchSize, st.ArenaBytes, st.ScannedEdges)
}

// ssspReq is one queued SSSP source waiting for its batch to be cut.
type ssspReq struct {
	src  graph.VertexID
	enq  time.Time
	done chan ssspResp
}

type ssspResp struct {
	dist  []float64
	stats core.RunStats
	err   error
}

// SSSP answers a single-source shortest-paths query. With a batch
// window configured, queries for the same source queued within one
// window share one engine run; the returned distances are bit-identical
// to a dedicated run either way, and are the caller's own slice.
func (s *Server) SSSP(source graph.VertexID) ([]float64, core.RunStats, error) {
	// Fail closed before admission: a source the graph does not have would
	// take a queue slot, an engine run and an 8·n-byte reply to say +Inf.
	if _, ok := s.sess.Partitioned().G.IndexOf(source); !ok {
		return nil, core.RunStats{}, fmt.Errorf("serve: sssp: no vertex %d in the graph", source)
	}
	// Admission is per query, before batching: a shed query must fail
	// fast, not wait out a batch window.
	if s.waiting.Add(1) > int64(s.cfg.queueDepth) {
		s.waiting.Add(-1)
		s.rejected.Add(1)
		return nil, core.RunStats{}, ErrOverloaded
	}
	req := &ssspReq{src: source, enq: time.Now(), done: make(chan ssspResp, 1)}
	s.mu.Lock()
	s.pending = append(s.pending, req)
	n := len(s.pending)
	if n >= s.cfg.batchMax || s.cfg.batchWindow == 0 {
		if s.timer != nil {
			s.timer.Stop()
			s.timer = nil
		}
		batch := s.pending
		s.pending = nil
		s.mu.Unlock()
		s.runBatch(batch)
	} else {
		if n == 1 {
			s.timer = time.AfterFunc(s.cfg.batchWindow, s.cutBatch)
		}
		s.mu.Unlock()
	}
	resp := <-req.done
	return resp.dist, resp.stats, resp.err
}

// cutBatch fires when the batch window expires.
func (s *Server) cutBatch() {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.timer = nil
	s.mu.Unlock()
	if len(batch) > 0 {
		s.runBatch(batch)
	}
}

// runBatch dispatches a cut batch without waiting for it: one engine run
// per distinct source, each on its own goroutine, all concurrent up to
// the in-flight cap.
func (s *Server) runBatch(batch []*ssspReq) {
	s.batches.Add(1)
	s.batchedQueries.Add(int64(len(batch)))
	for {
		cur := s.maxBatch.Load()
		if int64(len(batch)) <= cur || s.maxBatch.CompareAndSwap(cur, int64(len(batch))) {
			break
		}
	}
	bySource := make(map[graph.VertexID][]*ssspReq, len(batch))
	for _, r := range batch {
		bySource[r.src] = append(bySource[r.src], r)
	}
	for _, reqs := range bySource {
		go s.runSource(reqs)
	}
}

// runSource answers every request for one source with one sssp.Job run
// under one in-flight permit. The requests wait (and count as queued)
// until the permit is theirs. The first gets the run's result vector and
// every further one a copy, so no two callers share a slice.
func (s *Server) runSource(reqs []*ssspReq) {
	s.sem <- struct{}{}
	s.waiting.Add(int64(-len(reqs)))
	start := time.Now()
	res, err := core.Query(s.sess, sssp.Job(reqs[0].src), s.runOpts())
	<-s.sem
	seconds := time.Since(start).Seconds()

	var dist []float64
	var st core.RunStats
	if res != nil {
		dist, st = res.Values, res.Stats
	}
	st.BatchSize = len(reqs)
	for i, r := range reqs {
		resp := ssspResp{dist: dist, stats: st, err: err}
		if i > 0 {
			resp.dist = slices.Clone(dist)
		}
		resp.stats.QueueWaitSeconds = start.Sub(r.enq).Seconds()
		s.logQuery("sssp", seconds, &resp.stats, err)
		r.done <- resp
	}
}

// CC answers a connected-components query (labels over the hosted
// graph's edges as partitioned; undirected graphs give the classic
// components).
func (s *Server) CC() ([]int64, core.RunStats, error) {
	return direct(s, "cc", cc.Job())
}

// PageRank answers a PageRank query at the server's configured
// tolerance.
func (s *Server) PageRank() ([]float64, core.RunStats, error) {
	return direct(s, "pagerank", pagerank.Job(pagerank.Config{Tol: s.cfg.pagerankTol}))
}

// direct runs one job as one engine run, through admission control.
func direct[T any](s *Server, name string, job core.Job[T]) ([]T, core.RunStats, error) {
	release, wait, err := s.acquire()
	if err != nil {
		return nil, core.RunStats{}, err
	}
	defer release()
	t0 := time.Now()
	res, err := core.Query(s.sess, job, s.runOpts())
	seconds := time.Since(t0).Seconds()
	var vals []T
	var st core.RunStats
	if res != nil {
		vals = res.Values
		st = res.Stats
	}
	st.QueueWaitSeconds = wait.Seconds()
	st.BatchSize = 1
	s.logQuery(name, seconds, &st, err)
	return vals, st, err
}

// Rec is one recommendation: a product index (0-based, before the user
// offset) and its predicted rating.
type Rec struct {
	Product int
	Score   float64
}

// Recommend returns the top-k unrated products for a user by predicted
// rating. The first call trains the latent factors with one engine run
// (bounded-staleness SGD); later calls only read the trained model and
// the user's adjacency, so they are admission-free.
func (s *Server) Recommend(user, k int) ([]Rec, core.RunStats, error) {
	if s.cfg.cfConfig == nil {
		return nil, core.RunStats{}, ErrNoCF
	}
	var trainStats core.RunStats
	s.cfOnce.Do(func() {
		release, wait, err := s.acquire()
		if err != nil {
			s.cfErr = err
			// Leave cfOnce spent: an overloaded server stays untrained
			// only for this process; retraining on retry would need a
			// fresh Once, which a rejected training run does not merit.
			return
		}
		defer release()
		t0 := time.Now()
		opts := s.runOpts()
		opts.Staleness = 4 // distributed SGD wants bounded staleness under AAP
		res, err := core.Query(s.sess, cf.Job(*s.cfg.cfConfig), opts)
		seconds := time.Since(t0).Seconds()
		if err != nil {
			s.cfErr = err
			return
		}
		trainStats = res.Stats
		trainStats.QueueWaitSeconds = wait.Seconds()
		trainStats.BatchSize = 1
		s.logQuery("cf-train", seconds, &trainStats, nil)
		s.userF, s.prodF = cf.Factors(s.sess.Partitioned(), res.Values, *s.cfg.cfConfig)
	})
	if s.cfErr != nil {
		return nil, core.RunStats{}, s.cfErr
	}
	if user < 0 || user >= len(s.userF) {
		return nil, trainStats, errors.New("serve: unknown user")
	}

	// Rated products are the user's out-neighbors in the rating graph
	// (products sit after the users in the bipartite id layout).
	users := s.cfg.cfConfig.Users
	p := s.sess.Partitioned()
	rated := make(map[int]bool)
	if idx, ok := p.G.IndexOf(graph.VertexID(user)); ok {
		for _, u := range p.G.Out(idx) {
			if pid := int(p.G.IDOf(u)) - users; pid >= 0 {
				rated[pid] = true
			}
		}
	}
	uf := s.userF[user]
	recs := make([]Rec, 0, len(s.prodF))
	for pid, pf := range s.prodF {
		if rated[pid] || pf == nil {
			continue
		}
		var dot float64
		for i := range uf {
			dot += uf[i] * pf[i]
		}
		recs = append(recs, Rec{Product: pid, Score: dot})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Score != recs[j].Score {
			return recs[i].Score > recs[j].Score
		}
		return recs[i].Product < recs[j].Product
	})
	if k > 0 && k < len(recs) {
		recs = recs[:k]
	}
	return recs, trainStats, nil
}
