package par

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// TestMarksDedupConcurrent: many goroutines racing TryMark on the same
// slots must elect exactly one winner per slot per generation.
func TestMarksDedupConcurrent(t *testing.T) {
	const n, workers, trials = 256, 8, 50
	m := NewMarks(n)
	for trial := 0; trial < trials; trial++ {
		var wins atomic.Int64
		Do(workers, func(int) {
			for v := int32(0); v < n; v++ {
				if m.TryMark(v) {
					wins.Add(1)
				}
			}
		})
		if wins.Load() != n {
			t.Fatalf("trial %d: %d wins, want %d", trial, wins.Load(), n)
		}
		m.Reset()
	}
}

// TestMarksReset: Reset clears membership in O(1), Unmark clears one
// slot, and marks survive until the next Reset.
func TestMarksReset(t *testing.T) {
	m := NewMarks(4)
	if !m.TryMark(2) || m.TryMark(2) {
		t.Fatal("first mark should win, second should not")
	}
	if !m.Marked(2) || m.Marked(1) {
		t.Fatal("membership wrong")
	}
	m.Unmark(2)
	if m.Marked(2) {
		t.Fatal("unmark did not clear")
	}
	if !m.TryMark(2) {
		t.Fatal("remark after unmark should win")
	}
	m.Reset()
	if m.Marked(2) {
		t.Fatal("reset did not clear")
	}
}

// TestMarksGenerationWrap: force the generation counter to wrap and
// check stale stamps cannot masquerade as current marks.
func TestMarksGenerationWrap(t *testing.T) {
	m := NewMarks(2)
	m.TryMark(0)
	m.cur = math.MaxUint32 // jump to the wrap boundary
	m.gen[1].Store(math.MaxUint32)
	m.Reset()
	if m.Marked(0) || m.Marked(1) {
		t.Fatal("wrap leaked a stale mark")
	}
	if !m.TryMark(1) {
		t.Fatal("mark after wrap failed")
	}
}

// TestFrontierDeterministicAdvance: whatever order slots are added in,
// Advance returns them once each in ascending order, and leaves the
// frontier empty and every slot re-addable.
func TestFrontierDeterministicAdvance(t *testing.T) {
	f := NewFrontier(100)
	f.Add(7)
	f.Add(42)
	f.Add(3)
	if f.Add(7) { // duplicate: must dedup
		t.Fatal("second Add of slot 7 reported it newly staged")
	}
	if got, want := f.Advance(), []int32{3, 7, 42}; !slices.Equal(got, want) {
		t.Fatalf("advance = %v, want %v", got, want)
	}
	f.Add(7)
	f.Add(3)
	if got, want := f.Advance(), []int32{3, 7}; !slices.Equal(got, want) {
		t.Fatalf("second advance = %v, want %v", got, want)
	}
	if len(f.Advance()) != 0 {
		t.Fatal("empty advance should drain")
	}
}

// TestFrontierConcurrentAdd: racing adds across shards never lose or
// duplicate slots, and exactly one of the racers sees each slot newly
// staged.
func TestFrontierConcurrentAdd(t *testing.T) {
	const n, shards = 2000, 7
	f := NewFrontier(n)
	rng := rand.New(rand.NewSource(9))
	universe := make([]int32, n)
	for i := range universe {
		universe[i] = int32(i)
	}
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(n, func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
		var fresh atomic.Int64
		Do(shards, func(w int) {
			// Every shard tries to add an overlapping slice of the
			// universe; dedup must keep exactly one copy of each.
			for _, v := range universe[:n/2+w*100] {
				if f.Add(v) {
					fresh.Add(1)
				}
			}
		})
		got := f.Advance()
		want := n/2 + (shards-1)*100
		if len(got) != want || fresh.Load() != int64(want) {
			t.Fatalf("trial %d: %d staged, %d newly staged, want %d", trial, len(got), fresh.Load(), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("trial %d: slot %d after %d", trial, got[i], got[i-1])
			}
		}
	}
}

// TestFrontierOrderedAdvance: Advance is the ascending sort of the
// staged set on sparse and dense fills alike, over slot counts that are
// not a multiple of 64, through either adder, and leaves the bitmap
// clear so the frontier is reusable round after round.
func TestFrontierOrderedAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 63, 64, 65, 130, 1000, 4097, 70001} {
		f := NewFrontier(n)
		for round := 0; round < 12; round++ {
			// Fill density sweeps from a handful of slots to nearly all.
			fill := 1 + rng.Intn(4)
			if round%3 == 1 {
				fill = 1 + n/8
			} else if round%3 == 2 {
				fill = n
			}
			seen := make(map[int32]bool, fill)
			for i := 0; i < fill; i++ {
				v := int32(rng.Intn(n))
				if round%2 == 0 {
					if fresh := f.Add(v); fresh == seen[v] {
						t.Fatalf("n=%d round %d: Add(%d) newly staged = %v, already seen = %v", n, round, v, fresh, seen[v])
					}
					seen[v] = true
				} else {
					// A false condition must leave the slot (and its
					// word's other bits) alone.
					stage := rng.Intn(3) > 0
					f.AddOwned(v, stage)
					seen[v] = seen[v] || stage
				}
			}
			want := make([]int32, 0, len(seen))
			for v, staged := range seen {
				if staged {
					want = append(want, v)
				}
			}
			slices.Sort(want)
			if got := f.Advance(); !slices.Equal(got, want) {
				t.Fatalf("n=%d round %d fill %d: ordered advance differs from sorted staged set\n got %v\nwant %v", n, round, fill, got, want)
			}
			for i, word := range f.bits {
				if word != 0 {
					t.Fatalf("n=%d round %d: bitmap word %d = %#x after Advance", n, round, i, word)
				}
			}
		}
		if len(f.Advance()) != 0 {
			t.Fatalf("n=%d: drained frontier advanced to a non-empty one", n)
		}
	}
}

// TestFrontierUnorderedAdvanceClears: slots added out of order, a few
// or every one, all come back from Advance, which leaves the bitmap
// clear.
func TestFrontierUnorderedAdvanceClears(t *testing.T) {
	const n = 64*40 + 7
	f := NewFrontier(n)
	for _, fill := range []int{3, n} {
		for v := 0; v < fill; v++ {
			f.Add(int32((v * 37) % n))
		}
		if got := len(f.Advance()); got != fill {
			t.Fatalf("fill %d: advanced %d slots", fill, got)
		}
		for i, word := range f.bits {
			if word != 0 {
				t.Fatalf("fill %d: bitmap word %d = %#x after Advance", fill, i, word)
			}
		}
	}
}

// TestSnapChunksOwnership: snapped boundaries stay monotone, keep their
// ends, and never fall inside a group of 2^shift slots — so k shards each
// staging the slots of their chunk through the non-atomic AddOwned write
// disjoint bitmap words (the race detector checks the claim) and
// together stage every item exactly once. Sparse item lists leave whole
// groups out; more shards than groups leaves chunks empty.
func TestSnapChunksOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 64, 100, 1000, 64*9 + 1, 5000} {
		for _, keep := range []int{1, 3} { // every item, or one in three
			var items []int32
			for s := int32(0); s < int32(n); s++ {
				if keep == 1 || rng.Intn(keep) == 0 {
					items = append(items, s)
				}
			}
			for _, shift := range []uint{6, 8} {
				for _, k := range []int{1, 2, 3, 8, 17} {
					b := ChunksByWork(items, k, int64(len(items)), nil, func(int32) int64 { return 1 })
					SnapChunks(items, b, shift)
					if len(b) != k+1 || b[0] != 0 || b[k] != len(items) {
						t.Fatalf("n=%d k=%d shift=%d: bad boundaries %v", n, k, shift, b)
					}
					for j := 1; j <= k; j++ {
						if b[j] < b[j-1] {
							t.Fatalf("n=%d k=%d shift=%d: non-monotone boundaries %v", n, k, shift, b)
						}
						if i := b[j]; i > 0 && i < len(items) && items[i]>>shift == items[i-1]>>shift {
							t.Fatalf("n=%d k=%d shift=%d: boundary %d splits group %d", n, k, shift, i, items[i]>>shift)
						}
					}
					f := NewFrontier(n)
					Do(k, func(w int) {
						for _, s := range items[b[w]:b[w+1]] {
							f.AddOwned(s, true)
							f.AddOwned(s, true)  // duplicate: must dedup
							f.AddOwned(s, false) // declined: must not unstage
						}
					})
					if got := f.Advance(); !slices.Equal(got, items) {
						t.Fatalf("n=%d k=%d shift=%d: staged %d slots, want the %d items", n, k, shift, len(got), len(items))
					}
				}
			}
		}
	}
}

// TestDoPanic: a panic in any shard — spawned or the caller's own
// shard 0 — surfaces on the calling goroutine after every other shard
// has run to completion.
func TestDoPanic(t *testing.T) {
	for _, bad := range []int{0, 2} {
		var finished atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("shard %d panicked: recovered %v, want boom", bad, r)
				}
			}()
			Do(4, func(w int) {
				if w == bad {
					panic("boom")
				}
				finished.Add(1)
			})
			t.Errorf("shard %d panicked: Do returned normally", bad)
		}()
		if finished.Load() != 3 {
			t.Errorf("shard %d panicked: %d other shards finished before the re-raise, want 3", bad, finished.Load())
		}
	}
}

// TestChunksByWork: boundaries cover the items, chunks are contiguous,
// and weights balance within one max-item of even.
func TestChunksByWork(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		p := 1 + rng.Intn(9)
		items := make([]int32, n)
		w := make([]int64, n)
		var total int64
		for i := range items {
			items[i] = int32(i)
			w[i] = int64(rng.Intn(20))
			total += w[i]
		}
		b := ChunksByWork(items, p, total, nil, func(v int32) int64 { return w[v] })
		if len(b) != p+1 || b[0] != 0 || b[p] != n {
			t.Fatalf("trial %d: bad boundaries %v (n=%d p=%d)", trial, b, n, p)
		}
		for i := 1; i <= p; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("trial %d: non-monotone boundaries %v", trial, b)
			}
		}
		// Each chunk's weight stays under an even share plus one item.
		var maxItem int64
		for _, x := range w {
			maxItem = max(maxItem, x)
		}
		for i := 0; i < p; i++ {
			var cw int64
			for _, it := range items[b[i]:b[i+1]] {
				cw += w[it]
			}
			if cw > total/int64(p)+maxItem {
				t.Fatalf("trial %d: chunk %d weight %d exceeds share %d + max %d",
					trial, i, cw, total/int64(p), maxItem)
			}
		}
	}
}

// TestAtomicMins: the hooks install exact operands and report strict
// decreases only.
func TestAtomicMins(t *testing.T) {
	var i64 atomic.Int64
	i64.Store(10)
	if !MinInt64(&i64, 3) || MinInt64(&i64, 3) || MinInt64(&i64, 5) || i64.Load() != 3 {
		t.Fatal("MinInt64 semantics wrong")
	}
	var i32 atomic.Int32
	i32.Store(7)
	if !MinInt32(&i32, -2) || MinInt32(&i32, 0) || i32.Load() != -2 {
		t.Fatal("MinInt32 semantics wrong")
	}
	var f atomic.Uint64
	f.Store(math.Float64bits(math.Inf(1)))
	if !MinFloat64Bits(&f, 1.5) || MinFloat64Bits(&f, 1.5) || MinFloat64Bits(&f, 2.0) {
		t.Fatal("MinFloat64Bits decrease reporting wrong")
	}
	if math.Float64frombits(f.Load()) != 1.5 {
		t.Fatal("MinFloat64Bits did not install the operand exactly")
	}
	// Concurrent torture: the final value is the global min.
	var g atomic.Uint64
	g.Store(math.Float64bits(math.Inf(1)))
	Do(8, func(w int) {
		for k := 0; k < 1000; k++ {
			MinFloat64Bits(&g, float64((w*1000+k)%997)+0.25)
		}
	})
	if math.Float64frombits(g.Load()) != 0.25 {
		t.Fatalf("concurrent min = %v, want 0.25", math.Float64frombits(g.Load()))
	}
}
