package core

// Staged sends: the lock-free path a kernel uses to emit designated
// messages from one or several goroutines at once.
//
// A Stage is a single-goroutine send side: per-destination buffers and a
// work counter. A Context's own send side is its stage 0 — Context.Send,
// SendToHolders and AddWork are stage 0's — so a kernel that sweeps a
// fragment with k shards asks for k Stages, hands stage w to shard w, and
// calls MergeStages after the sweep's barrier, whatever k is. Each stage
// buffers messages per destination privately — no lock, no atomic, no
// sharing — and MergeStages appends stages 1..k-1 to the context's
// buffers in stage order. At k = 1 the one shard writes the context's
// buffers directly and MergeStages has nothing to do.
//
// Determinism contract: when a kernel partitions its work into
// contiguous chunks and assigns chunk w to stage w, the merged
// per-destination message order equals the order a sequential pass over
// the same items would have produced, for any stage count, and follows
// whatever the context sent earlier in the round. Kernels whose
// aggregate function is order-sensitive (sum) rely on this; min-folded
// kernels get it for free.

// Stage is a single-goroutine view of a Context's send side. A Stage is
// owned by exactly one goroutine between Stages and MergeStages; stage 0
// is the context itself.
type Stage[T any] struct {
	c    *Context[T]
	out  [][]VMsg[T]
	work int64
}

// Stages returns k reusable stages, one per kernel shard, the context's
// own stage 0 first. The returned stages are valid until the next
// MergeStages call. Not safe concurrently with MergeStages.
func (c *Context[T]) Stages(k int) []*Stage[T] {
	if len(c.stages) == 0 {
		c.stages = append(c.stages, &c.Stage)
	}
	for len(c.stages) < k {
		c.stages = append(c.stages, &Stage[T]{c: c, out: make([][]VMsg[T], len(c.out))})
	}
	c.staged = k
	return c.stages[:k]
}

// push appends one message to destination j's stage buffer, lazily
// drawing a recycled slice from the shared pool on the first send of the
// round (sync.Pool is safe for concurrent use, so stages never contend
// with each other).
func (s *Stage[T]) push(j int, m VMsg[T]) {
	if s.out[j] == nil {
		s.out[j] = s.c.pool.get()
	}
	s.out[j] = append(s.out[j], m)
}

// Send ships the value of update parameter v to the worker owning v. It
// corresponds to including v in the designated message M(i, j) of the
// current round. Sending to the local fragment is allowed and delivered
// through the local buffer like any other message; a program uses it to
// wake itself for work it left for a later round (Program.IncEval). The
// ledger counts a self-send like any batch, so termination waits for it,
// and it must depend only on the program's state, never on the shard
// count.
func (s *Stage[T]) Send(v int32, val T) {
	s.push(s.c.part.Owner(v), VMsg[T]{V: v, Val: val})
}

// SendToHolders ships val to every fragment holding a copy of owned
// vertex v (the owner-to-copies direction used by collaborative
// filtering, routed through the index I_i). I_i is read off the
// fragments' F.O bitmaps, in ascending fragment id.
func (s *Stage[T]) SendToHolders(v int32, val T) {
	c := s.c
	for j, f := range c.part.Frags {
		if j != c.frag.ID && f.OutSlot(v) >= 0 {
			s.push(j, VMsg[T]{V: v, Val: val})
		}
	}
}

// AddWork reports n units of work (vertices touched, edges relaxed) for
// the cost model and the stale-computation metric.
func (s *Stage[T]) AddWork(n int) { s.work += int64(n) }

// MergeStages appends the buffered messages of stages 1..k-1 of the last
// Stages call to the context's outgoing buffers in stage order and
// resets them; stage 0 is already there. The first stage to hit an empty
// destination donates its slice wholesale; later stages append and
// recycle. Must be called from the context's owning goroutine after the
// parallel section's barrier.
func (c *Context[T]) MergeStages() {
	for i := 1; i < c.staged; i++ {
		s := c.stages[i]
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
	c.staged = 0
}
