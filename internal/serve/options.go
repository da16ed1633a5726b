// Package serve is the concurrent-query scheduling plane over a
// resident core.Session: admission control (bounded in-flight engine
// runs plus a bounded wait queue), shared SSSP runs (each query starts
// its sssp.Job at once, under one in-flight permit, unless a run for its
// source is already queued or running, which it then joins: the answer
// is a function of the source alone), per-query deadlines through the
// engine's existing Options.Deadline, and a trained-once
// collaborative-filtering recommendation path.
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
	if !(c.pagerankTol > 0) || math.IsInf(c.pagerankTol, 1) { // NaN too
		c.pagerankTol = 1e-8
	}
	return c
}

// Option configures a Server.
type Option func(*config)

// WithMaxInflight bounds how many engine runs may execute at once (the
// queries that share an SSSP run hold one permit); further admitted
// queries wait in the queue. Default 4.
func WithMaxInflight(n int) Option { return func(c *config) { c.maxInflight = n } }

// WithQueueDepth bounds how many queries may wait for an in-flight
// slot; beyond it queries fail fast with ErrOverloaded. Default 64.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithBatchWindow does nothing: queries for one source share a run
// without waiting for each other.
//
// Deprecated: kept only for existing callers; pass nothing instead.
func WithBatchWindow(time.Duration) Option { return func(*config) {} }

// WithBatchMax does nothing: a shared SSSP run answers every query that
// joins it.
//
// Deprecated: kept only for existing callers; pass nothing instead.
func WithBatchMax(int) Option { return func(*config) {} }

// WithDeadline force-finishes each query's engine run after d,
// returning the partial result with a context.DeadlineExceeded error
// (core.Options.Deadline semantics). Zero keeps the engine's 5-minute
// bound.
func WithDeadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// WithMode selects the engine's parallel model; default AAP.
func WithMode(m core.Mode) Option { return func(c *config) { c.mode = m } }

// WithPageRankTol sets the PageRank query convergence tolerance;
// default 1e-8, also taken for a value that is not positive and finite.
func WithPageRankTol(tol float64) Option { return func(c *config) { c.pagerankTol = tol } }

// WithCF enables the recommendation path: the Server's graph is a
// bipartite rating graph (users then products, gen.Bipartite layout)
// and the first Recommend call whose training succeeds trains latent
// factors once with cfg.
func WithCF(cfg cf.Config) Option { return func(c *config) { c.cfConfig = &cfg } }

// WithLogger makes the Server log one line per completed query (name,
// latency, queue wait, batch size, arena bytes, scanned edges).
func WithLogger(l *log.Logger) Option { return func(c *config) { c.logger = l } }
