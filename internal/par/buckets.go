// Bucketed (delta-stepping) frontier for priority-ordered kernels.
//
// Buckets extends the Frontier worklist with a priority dimension: slots
// are staged into distance-range buckets of width delta and drained in
// bucket order, so a kernel processes "almost smallest first" instead of
// re-relaxing in arbitrary (Bellman-Ford) order. The structure is
// deliberately lazy — it never deletes an entry eagerly:
//
//   - where[slot] holds the lowest bucket the slot is currently staged
//     in. An Add that does not lower it is a duplicate and stages
//     nothing.
//   - An entry whose bucket no longer matches where[slot] is stale (the
//     slot was re-staged into a lower bucket when its priority improved)
//     and is dropped when its bucket is taken.
//   - A taken slot stays staged until its consumer calls Unstage, just
//     before it reads the slot's priority: an improvement that reaches a
//     slot between its take and its expansion is seen by that expansion
//     and must not stage the slot again, or the kernel expands it a
//     second time at the same priority.
//   - Priorities only decrease (the kernels relax with exact mins), so a
//     slot's live entry can only move to lower buckets, and a drained
//     bucket never needs revisiting within a sweep.
//
// The drain order cannot change the result of an exact-min fixpoint
// kernel — only how much work it wastes. Like Frontier, Buckets has one
// writer, the goroutine running the kernel's round.
package par

import "math"

// bucketRing is the number of directly addressable buckets: entries
// within [base, base+bucketRing) land in a cyclic ring slot, entries
// beyond it spill to an overflow list and redistribute when the window
// catches up (the classic cyclic-bucket-array trick, so a tiny delta
// cannot force an unbounded bucket array).
const bucketRing = 512

// unstagedBucket marks a slot not currently staged in any bucket.
const unstagedBucket = math.MaxInt32

// overEntry is one spilled staging: the slot and the bucket it was
// bound for when staged.
type overEntry struct {
	slot   int32
	bucket int32
}

// Buckets is a bucketed worklist over dense int32 slots in [0, n) with
// float64 priorities.
type Buckets struct {
	delta float64
	where []int32     // lowest staged bucket per slot; unstagedBucket when idle
	ring  [][]int32   // bucket%bucketRing -> staged slots
	over  []overEntry // far entries (bucket outside the ring window)
	base  int         // current (lowest undrained) bucket index
}

// NewBuckets returns an empty bucketed frontier over slots [0, n) with
// bucket width delta (must be positive).
func NewBuckets(n int, delta float64) *Buckets {
	bk := &Buckets{
		delta: delta,
		where: make([]int32, n),
		ring:  make([][]int32, bucketRing),
	}
	for i := range bk.where {
		bk.where[i] = unstagedBucket
	}
	return bk
}

// Cur returns the current bucket index.
func (bk *Buckets) Cur() int { return bk.base }

// BucketFor maps a priority to its bucket index. Priorities at or below
// zero map to bucket 0; indexes clamp below the unstaged sentinel, so a
// huge priority/delta ratio degrades to coarser ordering, never to a
// wrong result.
func (bk *Buckets) BucketFor(pri float64) int {
	if !(pri > 0) {
		return 0
	}
	b := pri / bk.delta
	if b >= unstagedBucket-1 {
		return unstagedBucket - 1
	}
	return int(b)
}

// Add stages slot with the given priority and reports whether it was
// staged (false: the slot is already staged at the same or a lower
// bucket). Buckets below the current one clamp to it — with
// monotonically decreasing priorities that only happens for seeds, and
// processing a slot early never changes an exact-min fixpoint.
func (bk *Buckets) Add(slot int32, pri float64) bool {
	b := max(bk.BucketFor(pri), bk.base)
	if bk.where[slot] <= int32(b) {
		return false
	}
	bk.where[slot] = int32(b)
	if b-bk.base >= bucketRing {
		bk.over = append(bk.over, overEntry{slot: slot, bucket: int32(b)})
		return true
	}
	lst := &bk.ring[b%bucketRing]
	*lst = append(*lst, slot)
	return true
}

// TakeCur drains the current bucket's staged slots into dst (reused when
// it has capacity), dropping stale entries. The slots stay staged: the
// consumer must Unstage each one before reading its priority. An empty
// result means the bucket is drained; expanding the taken slots can
// re-fill it (a relaxation that lands inside the current distance
// range).
func (bk *Buckets) TakeCur(dst []int32) []int32 {
	dst = dst[:0]
	cur := int32(bk.base)
	lst := bk.ring[bk.base%bucketRing]
	for _, s := range lst {
		if bk.where[s] == cur {
			dst = append(dst, s)
		}
	}
	bk.ring[bk.base%bucketRing] = lst[:0]
	return dst
}

// Unstage marks a taken slot as about to be expanded: an Add that lowers
// its priority from here on stages it again.
func (bk *Buckets) Unstage(slot int32) { bk.where[slot] = unstagedBucket }

// Advance moves to the next nonempty bucket and reports whether one
// exists; false means the structure is empty (stale entries count until
// their bucket is taken, so a true return can still yield an empty
// TakeCur — callers just advance again). When the ring window is
// exhausted it redistributes the overflow list: base jumps to the
// lowest live spilled bucket and every spilled entry now inside the
// window moves into the ring.
func (bk *Buckets) Advance() bool {
	for i := bk.base + 1; i < bk.base+bucketRing; i++ {
		if len(bk.ring[i%bucketRing]) > 0 {
			bk.base = i
			return true
		}
	}
	minb := -1
	keep := bk.over[:0]
	for _, e := range bk.over {
		if bk.where[e.slot] != e.bucket {
			continue // re-staged lower and already drained: stale
		}
		keep = append(keep, e)
		if minb < 0 || int(e.bucket) < minb {
			minb = int(e.bucket)
		}
	}
	bk.over = keep
	if minb < 0 {
		return false
	}
	bk.base = minb
	keep = bk.over[:0]
	for _, e := range bk.over {
		if int(e.bucket)-bk.base >= bucketRing {
			keep = append(keep, e)
			continue
		}
		r := int(e.bucket) % bucketRing
		bk.ring[r] = append(bk.ring[r], e.slot)
	}
	bk.over = keep
	return true
}

// Restart re-aims the window at the bucket of minPri so a drained
// structure can be re-seeded below the old base (incremental rounds
// re-seed from message distances). It must only be called when the
// structure is empty.
func (bk *Buckets) Restart(minPri float64) { bk.base = bk.BucketFor(minPri) }
