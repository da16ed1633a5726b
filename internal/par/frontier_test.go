package par

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// TestFrontierDeterministicAdvance: whatever order slots are added in,
// Advance returns them once each in ascending order, and leaves the
// frontier empty and every slot re-addable.
func TestFrontierDeterministicAdvance(t *testing.T) {
	f := NewFrontier(100)
	f.Add(7, true)
	f.Add(42, true)
	f.Add(3, true)
	f.Add(7, true) // duplicate: must dedup
	if got, want := f.Advance(), []int32{3, 7, 42}; !slices.Equal(got, want) {
		t.Fatalf("advance = %v, want %v", got, want)
	}
	f.Add(7, true)
	f.Add(3, true)
	if got, want := f.Advance(), []int32{3, 7}; !slices.Equal(got, want) {
		t.Fatalf("second advance = %v, want %v", got, want)
	}
	if len(f.Advance()) != 0 {
		t.Fatal("empty advance should drain")
	}
}

// TestFrontierOrderedAdvance: Advance is the ascending sort of the
// staged set on sparse and dense fills alike, over slot counts that are
// not a multiple of 64, and leaves the bitmap clear so the frontier is
// reusable round after round.
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
				// A false condition must leave the slot (and its
				// word's other bits) alone.
				v, stage := int32(rng.Intn(n)), rng.Intn(3) > 0
				f.Add(v, stage)
				seen[v] = seen[v] || stage
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
			f.Add(int32((v*37)%n), true)
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
