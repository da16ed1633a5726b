// Package serve is the concurrent-query scheduling plane over a
// resident core.Session: admission control (bounded in-flight engine
// runs plus a bounded wait queue), SSSP batching (a batch cut from the
// queue runs each distinct source once as sssp.Job, the runs concurrent
// under the in-flight cap, and queries for the same source share one
// run), per-query deadlines through the engine's existing
// Options.Deadline, and a trained-once collaborative-filtering
// recommendation path.
//
// The package splits responsibilities with core cleanly: core.Session
// owns the shared immutable plane (fragments, slot tables, routing) and
// the per-query engine runs; serve decides WHEN and in WHAT SHAPE those
// runs happen.
package serve

import (
	"log"
	"math"
	"time"

	"aap/internal/algo/cf"
	"aap/internal/core"
)

// config collects the scheduler knobs; zero values resolve in
// withDefaults. Construction is via functional options so new knobs
// never break callers.
type config struct {
	maxInflight int           // concurrent engine runs
	queueDepth  int           // queries allowed to wait beyond the in-flight cap
	batchWindow time.Duration // how long the first queued SSSP source waits for company
	batchMax    int           // queries per batch; reaching it cuts the batch early
	njobs       int           // engine compute parallelism (core.Options.PhysicalWorkers)
	deadline    time.Duration // per-query engine deadline (core.Options.Deadline)
	mode        core.Mode
	pagerankTol float64 // PageRank query convergence tolerance
	cfConfig    *cf.Config
	logger      *log.Logger
}

func (c config) withDefaults() config {
	if c.maxInflight <= 0 {
		c.maxInflight = 4
	}
	if c.queueDepth <= 0 {
		c.queueDepth = 64
	}
	if c.batchWindow < 0 {
		c.batchWindow = 0
	}
	if c.batchMax <= 0 {
		c.batchMax = 8
	}
	if !(c.pagerankTol > 0) || math.IsInf(c.pagerankTol, 1) { // NaN too
		c.pagerankTol = 1e-8
	}
	return c
}

// Option configures a Server.
type Option func(*config)

// WithMaxInflight bounds how many engine runs may execute at once (each
// distinct source of an SSSP batch is one run); further admitted queries
// wait in the queue. Default 4.
func WithMaxInflight(n int) Option { return func(c *config) { c.maxInflight = n } }

// WithQueueDepth bounds how many queries may wait for an in-flight
// slot; beyond it queries fail fast with ErrOverloaded. Default 64.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithBatchWindow sets how long the first queued SSSP query waits for
// company before its batch is cut. A cut batch runs each distinct source
// once, so what the window buys is coalescing: queries for the same
// source within it share one engine run (and pay the wait). Zero (the
// default) disables it: every SSSP runs immediately as its own run.
func WithBatchWindow(d time.Duration) Option { return func(c *config) { c.batchWindow = d } }

// WithBatchMax caps the queries per batch; a batch reaching the cap is
// cut before the window expires. Its distinct sources still run as
// separate engine runs, each under its own in-flight permit. Default 8.
func WithBatchMax(n int) Option { return func(c *config) { c.batchMax = n } }

// WithNJobs sets the engine's compute parallelism per run
// (core.Options.PhysicalWorkers); 0 uses GOMAXPROCS.
func WithNJobs(n int) Option { return func(c *config) { c.njobs = n } }

// WithDeadline force-finishes each query's engine run after d,
// returning the partial result with a context.DeadlineExceeded error
// (core.Options.Deadline semantics). Zero disables.
func WithDeadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// WithMode selects the engine's parallel model; default AAP.
func WithMode(m core.Mode) Option { return func(c *config) { c.mode = m } }

// WithPageRankTol sets the PageRank query convergence tolerance;
// default 1e-8, also taken for a value that is not positive and finite.
func WithPageRankTol(tol float64) Option { return func(c *config) { c.pagerankTol = tol } }

// WithCF enables the recommendation path: the Server's graph is a
// bipartite rating graph (users then products, gen.Bipartite layout)
// and the first Recommend call trains latent factors once with cfg.
func WithCF(cfg cf.Config) Option { return func(c *config) { c.cfConfig = &cfg } }

// WithLogger makes the Server log one line per completed query (name,
// latency, queue wait, batch size, arena bytes, scanned edges).
func WithLogger(l *log.Logger) Option { return func(c *config) { c.logger = l } }
