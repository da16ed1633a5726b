package core

// Staged sends: the lock-free path a parallel kernel uses to emit
// designated messages from several goroutines at once.
//
// Context.Send and friends are single-goroutine by contract (the engine
// invokes a Program from one worker at a time). A kernel that sweeps a
// fragment with k shards instead asks for k Stages, hands stage w to
// shard w, and calls MergeStages after the sweep's barrier. Each Stage
// buffers messages per destination privately — no lock, no atomic, no
// sharing — and MergeStages splices the stage buffers into the context's
// outgoing buffers in stage order.
//
// Determinism contract: when a kernel partitions its work into
// contiguous chunks and assigns chunk w to stage w, the merged
// per-destination message order equals the order a sequential pass over
// the same items would have produced, for any stage count. Kernels
// whose aggregate function is order-sensitive (sum) rely on this;
// min-folded kernels get it for free.

// Stage is a single-goroutine view of a Context's send side. A Stage is
// owned by exactly one goroutine between Stages and MergeStages.
type Stage[T any] struct {
	c    *Context[T]
	out  [][]VMsg[T]
	work int64
}

// Stages returns k reusable stages, one per kernel shard. The returned
// stages are valid until the next MergeStages call. Not safe
// concurrently with Send or MergeStages.
func (c *Context[T]) Stages(k int) []*Stage[T] {
	for len(c.stages) < k {
		c.stages = append(c.stages, &Stage[T]{c: c, out: make([][]VMsg[T], len(c.out))})
	}
	return c.stages[:k]
}

// push appends one message to destination j's stage buffer, drawing
// recycled slices from the shared pool (sync.Pool is safe for
// concurrent use, so stages never contend with each other).
func (s *Stage[T]) push(j int, m VMsg[T]) {
	if s.out[j] == nil {
		s.out[j] = s.c.pool.get()
	}
	s.out[j] = append(s.out[j], m)
}

// Send stages the value of update parameter v for the worker owning v,
// exactly like Context.Send but callable from the stage's goroutine.
func (s *Stage[T]) Send(v int32, val T) {
	c := s.c
	s.push(c.part.Owner(v), VMsg[T]{V: v, Val: val})
}

// SendToHolders stages val for every fragment holding a copy of owned
// vertex v.
func (s *Stage[T]) SendToHolders(v int32, val T) {
	c := s.c
	for _, j := range c.part.Holders(v) {
		if int(j) == c.frag.ID {
			continue
		}
		s.push(int(j), VMsg[T]{V: v, Val: val})
	}
}

// AddWork reports work units from the stage's goroutine; MergeStages
// folds them into the context's counter.
func (s *Stage[T]) AddWork(n int) { s.work += int64(n) }

// MergeStages splices every stage's buffered messages into the
// context's outgoing buffers in stage order and resets the stages. The
// first stage to hit an empty destination donates its slice wholesale;
// later stages append and recycle. Must be called from the context's
// owning goroutine after the parallel section's barrier.
func (c *Context[T]) MergeStages() {
	for _, s := range c.stages {
		for j, msgs := range s.out {
			if len(msgs) == 0 {
				if msgs != nil {
					c.pool.put(msgs)
					s.out[j] = nil
				}
				continue
			}
			if c.out[j] == nil {
				c.out[j] = msgs // adopt: no copy on the common single-writer path
			} else {
				c.out[j] = append(c.out[j], msgs...)
				c.pool.put(msgs)
			}
			s.out[j] = nil
		}
		c.work += s.work
		s.work = 0
	}
}
