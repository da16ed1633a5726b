// Bucketed (delta-stepping) frontier for priority-ordered kernels.
//
// Buckets extends the Frontier worklist machinery with a priority
// dimension: slots are staged into distance-range buckets of width delta
// and drained in bucket order, so a kernel processes "almost smallest
// first" at full shard parallelism instead of re-relaxing in arbitrary
// (Bellman-Ford) order. The structure is deliberately lazy — it never
// deletes an entry eagerly:
//
//   - where[slot] holds the lowest bucket the slot is currently staged
//     in (a min, like the kernels' distance mins). An Add that does not
//     lower it is a duplicate and stages nothing.
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
// TakeCur splices per-shard staging lists in shard order (deterministic
// for a fixed shard count), and the drain order cannot change the result
// of an exact-min fixpoint kernel — only how much work it wastes. A phase
// of k producers begins with EnsureShards(k); at k ≥ 2 Add and Unstage
// are safe for concurrent calls (Add with distinct shard indexes), at
// k = 1 they are plain. TakeCur, Advance and Restart are phase boundaries
// and must run single-threaded. Like Frontier's bitmap, where is
// therefore a plain []int32, accessed atomically only inside a phase of
// several shards, with Do's barrier ordering the two kinds of access — so
// staging a slot costs an append plus one CAS (what Frontier.Add costs)
// or a plain store, and nothing else is shared between shards (a bucket
// is nonempty when one of its lists is).
package par

import (
	"math"
	"sync/atomic"
)

// bucketRing is the number of directly addressable buckets: entries
// within [base, base+bucketRing) land in a cyclic ring slot, entries
// beyond it spill to per-shard overflow lists and redistribute when the
// window catches up (the classic cyclic-bucket-array trick, so a tiny
// delta cannot force an unbounded bucket array).
const bucketRing = 512

// unstagedBucket marks a slot not currently staged in any bucket.
const unstagedBucket = math.MaxInt32

// overEntry is one spilled staging: the slot and the bucket it was
// bound for when staged.
type overEntry struct {
	slot   int32
	bucket int32
}

// Buckets is a sharded bucketed worklist over dense int32 slots in
// [0, n) with float64 priorities.
type Buckets struct {
	delta  float64
	where  []int32       // lowest staged bucket per slot; unstagedBucket when idle
	ring   [][]int32     // (bucket%bucketRing)*stride + shard -> staged slots
	over   [][]overEntry // per-shard far entries (bucket outside the ring window)
	stride int           // shard capacity of the ring rows
	base   int           // current (lowest undrained) bucket index
	shared bool          // the current phase has several producers: Add and Unstage are atomic
}

// NewBuckets returns an empty bucketed frontier over slots [0, n) with
// bucket width delta (must be positive) and staging capacity for up to
// `shards` concurrent producers, ready for a phase of that many.
func NewBuckets(n, shards int, delta float64) *Buckets {
	if shards < 1 {
		shards = 1
	}
	bk := &Buckets{
		delta:  delta,
		where:  make([]int32, n),
		ring:   make([][]int32, bucketRing*shards),
		over:   make([][]overEntry, shards),
		stride: shards,
		shared: shards > 1,
	}
	for i := range bk.where {
		bk.where[i] = unstagedBucket
	}
	return bk
}

// Cur returns the current bucket index.
func (bk *Buckets) Cur() int { return bk.base }

// EnsureShards begins a phase of k producers: it grows the staging
// arrays so shards [0, k) are valid, and makes Add and Unstage atomic
// when k ≥ 2 and plain when k = 1. Not safe concurrently with Add.
func (bk *Buckets) EnsureShards(k int) {
	bk.shared = k > 1
	if k <= bk.stride {
		return
	}
	ring := make([][]int32, bucketRing*k)
	for b := 0; b < bucketRing; b++ {
		copy(ring[b*k:], bk.ring[b*bk.stride:(b+1)*bk.stride])
	}
	bk.ring = ring
	for len(bk.over) < k {
		bk.over = append(bk.over, nil)
	}
	bk.stride = k
}

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

// Add stages slot with the given priority on shard w's lists and reports
// whether it was staged (false: the slot is already staged at the same
// or a lower bucket). Buckets below the current one clamp to it — with
// monotonically decreasing priorities that only happens for seeds, and
// processing a slot early never changes an exact-min fixpoint. Safe for
// concurrent calls with distinct w in a phase of several producers.
func (bk *Buckets) Add(w int, slot int32, pri float64) bool {
	b := max(bk.BucketFor(pri), bk.base)
	at := &bk.where[slot]
	if !bk.shared {
		if *at <= int32(b) {
			return false
		}
		*at = int32(b)
	} else {
		for {
			old := atomic.LoadInt32(at)
			if old <= int32(b) {
				return false
			}
			if atomic.CompareAndSwapInt32(at, old, int32(b)) {
				break
			}
		}
	}
	if b-bk.base >= bucketRing {
		bk.over[w] = append(bk.over[w], overEntry{slot: slot, bucket: int32(b)})
		return true
	}
	lst := &bk.ring[(b%bucketRing)*bk.stride+w]
	*lst = append(*lst, slot)
	return true
}

// TakeCur drains the current bucket's staged slots into dst (reused when
// it has capacity), dropping stale entries. The slots stay staged: the
// consumer must Unstage each one before reading its priority. An empty
// result means the bucket is drained; staging into it during a
// subsequent parallel phase re-fills it (a relaxation that lands inside
// the current distance range). Not safe concurrently with Add.
func (bk *Buckets) TakeCur(dst []int32) []int32 {
	dst = dst[:0]
	cur := int32(bk.base)
	row := bk.ring[bk.base%bucketRing*bk.stride:][:bk.stride]
	for w, lst := range row {
		for _, s := range lst {
			if bk.where[s] == cur {
				dst = append(dst, s)
			}
		}
		row[w] = lst[:0]
	}
	return dst
}

// Unstage marks a taken slot as about to be expanded: an Add that lowers
// its priority from here on stages it again. The caller must read the
// slot's priority after this call — the store and that load, against an
// improver's priority store and Add, are what guarantees that every
// improvement is either read by this expansion or staged for the next.
// Safe concurrently with Add in a phase of several producers.
func (bk *Buckets) Unstage(slot int32) {
	if bk.shared {
		atomic.StoreInt32(&bk.where[slot], unstagedBucket)
	} else {
		bk.where[slot] = unstagedBucket
	}
}

// staged reports whether ring bucket r holds an entry, live or stale.
func (bk *Buckets) staged(r int) bool {
	for _, lst := range bk.ring[r*bk.stride:][:bk.stride] {
		if len(lst) > 0 {
			return true
		}
	}
	return false
}

// Advance moves to the next nonempty bucket and reports whether one
// exists; false means the structure is empty (stale entries count until
// their bucket is taken, so a true return can still yield an empty
// TakeCur — callers just advance again). When the ring window is
// exhausted it redistributes the overflow lists: base jumps to the
// lowest live spilled bucket and every spilled entry now inside the
// window moves into the ring. Not safe concurrently with Add.
func (bk *Buckets) Advance() bool {
	for i := bk.base + 1; i < bk.base+bucketRing; i++ {
		if bk.staged(i % bucketRing) {
			bk.base = i
			return true
		}
	}
	minb := -1
	for w := range bk.over {
		keep := bk.over[w][:0]
		for _, e := range bk.over[w] {
			if bk.where[e.slot] != e.bucket {
				continue // re-staged lower and already drained: stale
			}
			keep = append(keep, e)
			if minb < 0 || int(e.bucket) < minb {
				minb = int(e.bucket)
			}
		}
		bk.over[w] = keep
	}
	if minb < 0 {
		return false
	}
	bk.base = minb
	for w := range bk.over {
		keep := bk.over[w][:0]
		for _, e := range bk.over[w] {
			if int(e.bucket)-bk.base >= bucketRing {
				keep = append(keep, e)
				continue
			}
			r := int(e.bucket) % bucketRing
			bk.ring[r*bk.stride+w] = append(bk.ring[r*bk.stride+w], e.slot)
		}
		bk.over[w] = keep
	}
	return true
}

// Restart re-aims the window at the bucket of minPri so a drained
// structure can be re-seeded below the old base (incremental rounds
// re-seed from message distances). It must only be called when the
// structure is empty.
func (bk *Buckets) Restart(minPri float64) { bk.base = bk.BucketFor(minPri) }
