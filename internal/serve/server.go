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
// semaphore and, briefly, on the lock of the SSSP join map.
type Server struct {
	sess *core.Session
	cfg  config

	sem     chan struct{} // in-flight permits
	waiting atomic.Int64  // queries admitted but not yet holding a permit

	// SSSP runs by source, from the query that starts one until its
	// answers go out; a query for a source in the map joins its run.
	mu   sync.Mutex
	runs map[graph.VertexID]*ssspRun

	// CF factors, trained by the first Recommend that succeeds; cfMu
	// serializes training and guards the pair.
	cfMu  sync.Mutex
	userF [][]float64
	prodF [][]float64

	rejected atomic.Int64
	shared   atomic.Int64
	maxBatch atomic.Int64
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
		runs: make(map[graph.VertexID]*ssspRun),
	}
}

// Stats is a point-in-time snapshot of the scheduling plane.
type Stats struct {
	core.SessionStats
	Rejected  int64 // queries shed by admission control
	Shared    int64 // SSSP queries answered by a run another query started
	MaxBatch  int64 // most SSSP queries one run answered
	QueuedNow int64 // queries currently waiting for a permit
}

// Stats snapshots the server and session counters.
func (s *Server) Stats() Stats {
	return Stats{
		SessionStats: s.sess.Stats(),
		Rejected:     s.rejected.Load(),
		Shared:       s.shared.Load(),
		MaxBatch:     s.maxBatch.Load(),
		QueuedNow:    s.waiting.Load(),
	}
}

// runOpts is the engine option set every query runs with.
func (s *Server) runOpts() core.Options {
	return core.Options{
		Mode:     s.cfg.mode,
		Deadline: s.cfg.deadline,
	}
}

// admit is the one admission rule: a query joins the wait queue, or, if
// the queue is full, is shed with ErrOverloaded.
func (s *Server) admit() error {
	if s.waiting.Add(1) > int64(s.cfg.queueDepth) {
		s.waiting.Add(-1)
		s.rejected.Add(1)
		return ErrOverloaded
	}
	return nil
}

// acquire admits one unit of work, then waits for an in-flight permit.
// Returns the release func and the time spent queued.
func (s *Server) acquire() (release func(), wait time.Duration, err error) {
	if err := s.admit(); err != nil {
		return nil, 0, err
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

// ssspJoin is a query waiting on a run another query started.
type ssspJoin struct {
	enq  time.Time
	done chan ssspResp
}

type ssspResp struct {
	dist  []float64
	stats core.RunStats
	err   error
}

// ssspRun is one engine run for one source, queued or running, and the
// queries that joined it. Its fields are guarded by Server.mu.
type ssspRun struct {
	started bool
	joins   []ssspJoin
}

// SSSP answers a single-source shortest-paths query. A query for a source
// whose run is queued or running joins that run instead of starting its
// own: the answer is a function of the source alone, so the shared run's
// distances are bit-identical to a dedicated run's, and every caller gets
// a slice of its own.
func (s *Server) SSSP(source graph.VertexID) ([]float64, core.RunStats, error) {
	// Fail closed before admission: a source the graph does not have would
	// take a queue slot, an engine run and an 8·n-byte reply to say +Inf.
	if _, ok := s.sess.Partitioned().G.IndexOf(source); !ok {
		return nil, core.RunStats{}, fmt.Errorf("serve: sssp: no vertex %d in the graph", source)
	}
	// Admission is per query, joiners included: a shed query fails fast.
	if err := s.admit(); err != nil {
		return nil, core.RunStats{}, err
	}
	enq := time.Now()
	s.mu.Lock()
	if run := s.runs[source]; run != nil {
		done := make(chan ssspResp, 1)
		run.joins = append(run.joins, ssspJoin{enq: enq, done: done})
		if run.started { // nothing left to wait for but the answer
			s.waiting.Add(-1)
		}
		s.mu.Unlock()
		resp := <-done
		return resp.dist, resp.stats, resp.err
	}
	run := &ssspRun{}
	s.runs[source] = run
	s.mu.Unlock()

	// The run holds one in-flight permit; its queries count as queued
	// until it does.
	s.sem <- struct{}{}
	s.mu.Lock()
	run.started = true
	s.waiting.Add(-int64(1 + len(run.joins)))
	s.mu.Unlock()
	start := time.Now()
	res, err := core.Query(s.sess, sssp.Job(source), s.runOpts())
	<-s.sem
	seconds := time.Since(start).Seconds()

	// Leave the map before reading the joiners: a query that finds no
	// entry from here on starts a fresh run, and none can join this one
	// after its list is read.
	s.mu.Lock()
	delete(s.runs, source)
	joins := run.joins
	s.mu.Unlock()

	var dist []float64
	var st core.RunStats
	if res != nil {
		dist, st = res.Values, res.Stats
	}
	st.BatchSize = 1 + len(joins)
	s.shared.Add(int64(len(joins)))
	for cur := s.maxBatch.Load(); int64(st.BatchSize) > cur && !s.maxBatch.CompareAndSwap(cur, int64(st.BatchSize)); {
		cur = s.maxBatch.Load()
	}
	for _, j := range joins {
		jst := st
		jst.QueueWaitSeconds = max(0, start.Sub(j.enq).Seconds())
		s.logQuery("sssp", seconds, &jst, err)
		j.done <- ssspResp{dist: slices.Clone(dist), stats: jst, err: err}
	}
	st.QueueWaitSeconds = start.Sub(enq).Seconds()
	s.logQuery("sssp", seconds, &st, err)
	return dist, st, err
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
// rating. Until a model exists a call trains the latent factors with one
// engine run (bounded-staleness SGD) through admission control; a failed
// training (shed, deadline, engine error) is returned and the next call
// trains again. Once trained, calls only read the model and the user's
// adjacency, so they are admission-free.
func (s *Server) Recommend(user, k int) ([]Rec, core.RunStats, error) {
	if s.cfg.cfConfig == nil {
		return nil, core.RunStats{}, ErrNoCF
	}
	userF, prodF, trainStats, err := s.trainCF()
	if err != nil {
		return nil, core.RunStats{}, err
	}
	if user < 0 || user >= len(userF) {
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
	uf := userF[user]
	recs := make([]Rec, 0, len(prodF))
	for pid, pf := range prodF {
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

// trainCF returns the trained factors, training them first if no call has
// yet succeeded; trainStats is the training run's, when this call ran it.
func (s *Server) trainCF() (userF, prodF [][]float64, trainStats core.RunStats, err error) {
	s.cfMu.Lock()
	defer s.cfMu.Unlock()
	if s.userF != nil {
		return s.userF, s.prodF, trainStats, nil
	}
	release, wait, err := s.acquire()
	if err != nil {
		return nil, nil, trainStats, err
	}
	defer release()
	t0 := time.Now()
	opts := s.runOpts()
	opts.Staleness = 4 // distributed SGD wants bounded staleness under AAP
	res, err := core.Query(s.sess, cf.Job(*s.cfg.cfConfig), opts)
	if err != nil {
		return nil, nil, trainStats, err
	}
	trainStats = res.Stats
	trainStats.QueueWaitSeconds = wait.Seconds()
	trainStats.BatchSize = 1
	s.logQuery("cf-train", time.Since(t0).Seconds(), &trainStats, nil)
	s.userF, s.prodF = cf.Factors(s.sess.Partitioned(), res.Values, *s.cfg.cfConfig)
	return s.userF, s.prodF, trainStats, nil
}
