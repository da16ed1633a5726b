// Package par holds two small toolboxes. Procs and Do are the fan-out
// of the ingest pipeline's parallel stages (graph CSR construction,
// partition border sweeps), which run before any Session exists: pick a
// worker count proportional to the work, run a function across workers,
// wait. Frontier and Buckets are the worklists of the kernels, which run
// one round at a time on one goroutine and never fan out.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Override forces the worker count returned by Procs when nonzero.
// Tests use it to exercise multi-worker ingest paths on single-core
// machines; production code leaves it zero.
var Override int

// Procs returns the worker count for `work` units of sharded work,
// adding a worker only per `grain` units so tiny inputs stay
// single-threaded, capped at GOMAXPROCS.
func Procs(work int64, grain int) int {
	if Override > 0 {
		return Override
	}
	p := runtime.GOMAXPROCS(0)
	if lim := 1 + int(work/int64(grain)); p > lim {
		p = lim
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Do runs fn(0), …, fn(p-1) concurrently and waits for all of them.
// Shard 0 runs on the calling goroutine, so a phase costs p-1 spawns.
// A panic in any shard is re-raised on the caller once every shard has
// returned: the caller's recover sees it, and no shard is left running
// over state the caller unwinds.
func Do(p int, fn func(worker int)) {
	if p <= 1 {
		fn(0)
		return
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any] // first shard panic, if any
	)
	shard := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &r)
			}
		}()
		fn(w)
	}
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			shard(w)
		}(w)
	}
	shard(0)
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}
