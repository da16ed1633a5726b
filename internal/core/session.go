package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aap/internal/partition"
)

// Session is the resident half of the serving plane: it owns the shared
// read-only state of a loaded graph — the partitioned fragments, their
// CSR rows, F.O sets and the slot tables the routing index is read off —
// and executes any number of queries over it, concurrently or in
// sequence. The state split is strict:
//
//	shared, immutable   partition.Partitioned (graph CSR, Ranges, owner
//	                    table), every Fragment (F.O, slot table)
//	per query           the engine built by Query: Programs and their
//	                    vertex-state arenas, Contexts, Folders, inboxes,
//	                    the coordinator, the Result
//	session lifetime    recycled message slices (one pool per value
//	                    type) and each job's Validate verdict — caches
//	                    that hold no query state — and the compute
//	                    budget below
//
// Nothing in the engine or the kernels writes to the shared plane after
// partition.Build returns — queries against one Session are data-race
// free by construction, which TestSessionConcurrentQueries pins under
// the race detector. A Session keeps serving counters; admission
// control and deadlines live one layer up, in internal/serve.
//
// The Session's compute budget (cores) runs every concurrent query's
// workers on at most GOMAXPROCS executors, so at most GOMAXPROCS worker
// steps run at once and a kernel fans out only onto cores no query is
// using. serve.WithMaxInflight bounds the runs; the Session bounds the cores.
type Session struct {
	p       *partition.Partitioned
	started time.Time
	cores   cores

	// pools maps poolKey[T]{} to the *msgPool[T] every query of value
	// type T draws its outbox and inbox slices from, so a query starts
	// with the capacity earlier ones grew instead of regrowing from 16.
	pools sync.Map
	// verdicts maps Job.Name to the error its Validate returned (nil
	// when valid): the graph is immutable, so one scan settles it.
	verdicts sync.Map

	admitted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	active    atomic.Int64
	busyNanos atomic.Int64
}

// NewSession wraps an already partitioned graph as a resident session.
// The caller must not mutate p (or its graph) afterwards; partition
// produces no mutating operations on a built Partitioned and exports no
// array of it but Ranges.
func NewSession(p *partition.Partitioned) *Session {
	return &Session{p: p, started: time.Now(), cores: cores{procs: runtime.GOMAXPROCS(0)}}
}

// cores is a Session's compute budget: the tasks of its queries that
// are ready to step and at most procs (GOMAXPROCS at NewSession)
// executor goroutines running them. An executor exits once no task is
// ready, so an idle Session holds no goroutine. A round computes on the
// executor that took its task and nowhere else: the executors are the
// only compute pool.
type cores struct {
	procs int

	mu        sync.Mutex
	tasks     []task // ready, oldest first
	last      any    // the owner of the task taken last
	executors int
}

// task is a woken worker of one of the Session's runs, its owner. turn
// runs one step of it and reports whether it is due again.
type task interface {
	turn() bool
	owner() any
}

// submit appends t to the ready tasks, and starts an executor unless
// procs of them are running.
func (c *cores) submit(t task) {
	c.mu.Lock()
	c.tasks = append(c.tasks, t)
	spawn := c.executors < c.procs
	if spawn {
		c.executors++
	}
	c.mu.Unlock()
	if spawn {
		go c.executor()
	}
}

// executor runs ready tasks until none is left. It takes the oldest of a
// run other than the one last taken, if there is one, else the oldest,
// so concurrent queries take turns on the executors; a task due again
// goes back behind the ready ones.
func (c *cores) executor() {
	c.mu.Lock()
	for len(c.tasks) > 0 {
		i := max(0, slices.IndexFunc(c.tasks, func(t task) bool { return t.owner() != c.last }))
		t := c.tasks[i]
		c.tasks, c.last = slices.Delete(c.tasks, i, i+1), t.owner()
		c.mu.Unlock()
		again := t.turn()
		c.mu.Lock()
		if again {
			c.tasks = append(c.tasks, t)
		}
	}
	c.last = nil // keeps no finished run reachable
	c.executors--
	c.mu.Unlock()
}

// Partitioned returns the shared read-only partitioned graph.
func (s *Session) Partitioned() *partition.Partitioned { return s.p }

// SessionStats is a point-in-time snapshot of a Session's serving
// counters.
type SessionStats struct {
	Admitted    int64   // queries started
	Completed   int64   // queries finished without error
	Failed      int64   // queries finished with an error
	Active      int64   // queries currently inside the engine
	BusySeconds float64 // cumulative wall time inside engine runs
	UpSeconds   float64 // session age
	QPS         float64 // Completed / UpSeconds

	// The resident plane, read at the call.
	ResidentBytes int64 // the graph's own tables (graph.Graph.ResidentBytes)
	RoutingBytes  int64 // owner index and slot tables (Partitioned.RoutingTableBytes)
	ReadyTasks    int64 // workers of any query waiting for an executor
	Executors     int64 // executor goroutines running
}

// Stats snapshots the serving counters and the resident plane.
func (s *Session) Stats() SessionStats {
	up := time.Since(s.started).Seconds()
	st := SessionStats{
		Admitted:    s.admitted.Load(),
		Completed:   s.completed.Load(),
		Failed:      s.failed.Load(),
		Active:      s.active.Load(),
		BusySeconds: float64(s.busyNanos.Load()) / 1e9,
		UpSeconds:   up,

		ResidentBytes: s.p.G.ResidentBytes(),
		RoutingBytes:  s.p.RoutingTableBytes(),
	}
	s.cores.mu.Lock()
	st.ReadyTasks, st.Executors = int64(len(s.cores.tasks)), int64(s.cores.executors)
	s.cores.mu.Unlock()
	if up > 0 {
		st.QPS = float64(st.Completed) / up
	}
	return st
}

// Query executes one job over the session's resident graph — the
// Session.Run of the serving plane, a package-level function because Go
// methods cannot introduce the job's value type parameter. It is safe
// to call from any number of goroutines at once; each call builds an
// independent engine whose only shared inputs are the session's
// immutable fragments. The one-shot core.Run is a thin wrapper that
// builds a throwaway Session around this.
func Query[T any](s *Session, job Job[T], opts Options) (*Result[T], error) {
	s.admitted.Add(1)
	s.active.Add(1)
	t0 := time.Now()
	res, err := run(s, job, opts, nil, nil)
	s.busyNanos.Add(time.Since(t0).Nanoseconds())
	s.active.Add(-1)
	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	return res, err
}

// poolKey is the pools key of value type T: distinct instantiations are
// distinct comparable types.
type poolKey[T any] struct{}

// sessionPool returns the session's message pool for value type T.
func sessionPool[T any](s *Session) *msgPool[T] {
	v, ok := s.pools.Load(poolKey[T]{})
	if !ok {
		v, _ = s.pools.LoadOrStore(poolKey[T]{}, &msgPool[T]{})
	}
	return v.(*msgPool[T])
}

// validate runs job.Validate against the session's graph the first time
// a job of that name is queried and returns the remembered verdict from
// then on.
func validate[T any](s *Session, job *Job[T]) error {
	if job.Validate == nil {
		return nil
	}
	v, ok := s.verdicts.Load(job.Name)
	if !ok {
		v, _ = s.verdicts.LoadOrStore(job.Name, verdict{job.Validate(s.p)})
	}
	return v.(verdict).err
}

type verdict struct{ err error }

// ScanCounter is implemented by kernels that count the raw edges their
// sweeps scanned (each CSR row read costs its length). The engine sums
// it across workers into RunStats.ScannedEdges: what a query cost in
// edge reads, independent of how the run was scheduled.
type ScanCounter interface {
	ScannedEdges() int64
}

// arenaBytes estimates the per-query vertex-state arena footprint of a
// run: one value per local slot (owned vertices + border copies, the
// only per-job memory the kernels allocate per vertex) plus the
// assembled global result vector, priced at the job's wire size for the
// zero value. An estimate — kernels are free to keep denser or
// fatter state — but proportional to the real footprint, and what the
// serving plane reports per query.
func arenaBytes[T any](p *partition.Partitioned, job *Job[T]) int64 {
	per := 8
	if job.Bytes != nil {
		var zero T
		per = job.Bytes(zero)
	}
	nSlots := 0
	for _, f := range p.Frags {
		nSlots += f.Slots()
	}
	return int64(per) * int64(nSlots+p.G.NumVertices())
}
