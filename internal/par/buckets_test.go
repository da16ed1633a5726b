package par

import (
	"math"
	"slices"
	"testing"
)

// drainAll drains bk completely, returning the slots of every taken
// batch in order, asserting bucket indexes never decrease.
func drainAll(t *testing.T, bk *Buckets) [][]int32 {
	t.Helper()
	var out [][]int32
	last := -1
	var items []int32
	for {
		for {
			items = bk.TakeCur(items)
			if len(items) == 0 {
				break
			}
			if bk.Cur() < last {
				t.Fatalf("bucket order regressed: %d after %d", bk.Cur(), last)
			}
			last = bk.Cur()
			out = append(out, append([]int32(nil), items...))
		}
		if !bk.Advance() {
			return out
		}
	}
}

func TestBucketsBucketFor(t *testing.T) {
	bk := NewBuckets(4, 2.5)
	cases := []struct {
		pri  float64
		want int
	}{
		{0, 0}, {-3, 0}, {math.NaN(), 0}, {1.2, 0}, {2.4, 0}, {2.5, 1}, {7.6, 3},
	}
	for _, c := range cases {
		if got := bk.BucketFor(c.pri); got != c.want {
			t.Fatalf("BucketFor(%v) = %d, want %d", c.pri, got, c.want)
		}
	}
	if got := bk.BucketFor(1e300); got != unstagedBucket-1 {
		t.Fatalf("huge priority bucket = %d, want clamp %d", got, unstagedBucket-1)
	}
}

// TestBucketsDrainOrder stages slots with scattered priorities and
// checks they come back grouped by bucket, lowest bucket first, each
// slot exactly once.
func TestBucketsDrainOrder(t *testing.T) {
	bk := NewBuckets(10, 1)
	pris := []float64{7.2, 0.1, 3.3, 3.9, 0.8, 12.0, 7.9, 0.5, 3.0, 12.9}
	for s, p := range pris {
		bk.Add(int32(s), p)
	}
	var got []int32
	for _, batch := range drainAll(t, bk) {
		got = append(got, batch...)
	}
	if len(got) != len(pris) {
		t.Fatalf("drained %d slots, want %d", len(got), len(pris))
	}
	// Buckets must come out in priority-bucket order.
	for i := 1; i < len(got); i++ {
		if int(pris[got[i-1]]) > int(pris[got[i]]) {
			t.Fatalf("slot %d (bucket %d) drained before slot %d (bucket %d)",
				got[i-1], int(pris[got[i-1]]), got[i], int(pris[got[i]]))
		}
	}
	sorted := append([]int32(nil), got...)
	slices.Sort(sorted)
	for i, s := range sorted {
		if s != int32(i) {
			t.Fatalf("slot %d missing or duplicated: %v", i, got)
		}
	}
}

// TestBucketsDedupAndStale re-stages a slot at a lower bucket and checks
// the higher entry is dropped, and duplicate same-bucket adds stage once.
func TestBucketsDedupAndStale(t *testing.T) {
	bk := NewBuckets(4, 1)
	if !bk.Add(1, 9.5) {
		t.Fatal("first add rejected")
	}
	if bk.Add(1, 9.7) {
		t.Fatal("same-bucket duplicate staged")
	}
	if !bk.Add(1, 2.5) {
		t.Fatal("improving add rejected")
	}
	if bk.Add(1, 4.0) {
		t.Fatal("worse-bucket add staged")
	}
	bk.Add(2, 0.5)
	batches := drainAll(t, bk)
	var flat []int32
	for _, b := range batches {
		flat = append(flat, b...)
	}
	want := []int32{2, 1} // bucket 0 then bucket 2; the bucket-9 entry is stale
	if !slices.Equal(flat, want) {
		t.Fatalf("drained %v, want %v", flat, want)
	}
}

// TestBucketsReinsertCurrent mimics a relaxation landing inside the
// range being drained. While a taken slot waits for its expansion it is
// still staged — the expansion will read the improved priority, so the
// Add is refused; once Unstage announces the expansion, an improvement
// re-stages the slot into the same bucket and it must be taken again
// before the bucket counts as drained.
func TestBucketsReinsertCurrent(t *testing.T) {
	bk := NewBuckets(4, 10)
	bk.Add(0, 1)
	items := bk.TakeCur(nil)
	if len(items) != 1 || items[0] != 0 {
		t.Fatalf("first take = %v", items)
	}
	if bk.Add(0, 3) {
		t.Fatal("a slot still waiting for its expansion was staged a second time")
	}
	bk.Unstage(0)
	if !bk.Add(0, 2) { // still bucket 0: re-insertion after improvement
		t.Fatal("re-insertion rejected")
	}
	items = bk.TakeCur(items)
	if len(items) != 1 || items[0] != 0 {
		t.Fatalf("re-take = %v", items)
	}
	if items = bk.TakeCur(items); len(items) != 0 {
		t.Fatalf("drained bucket returned %v", items)
	}
	if bk.Advance() {
		t.Fatal("empty structure advanced")
	}
}

// TestBucketsOverflow stages priorities far beyond the ring window so
// entries spill and redistribute, including a spilled entry that went
// stale before redistribution.
func TestBucketsOverflow(t *testing.T) {
	bk := NewBuckets(6, 1)
	far := float64(bucketRing) * 40
	bk.Add(0, 0.5)
	bk.Add(1, far)      // spills
	bk.Add(2, 3*far)    // spills further
	bk.Add(3, far+0.25) // same spilled bucket region
	bk.Add(4, 2.5)      // in window
	if got := len(bk.over); got != 3 {
		t.Fatalf("overflow holds %d entries, want 3", got)
	}
	bk.Add(2, 1.5) // improves the far slot into the window: spill goes stale

	batches := drainAll(t, bk)
	var flat []int32
	for _, b := range batches {
		flat = append(flat, b...)
	}
	want := []int32{0, 2, 4, 1, 3} // buckets 0, 1, 2, far, far
	if !slices.Equal(flat, want) {
		t.Fatalf("drained %v, want %v", flat, want)
	}
}

// TestBucketsRestart drains, then re-seeds below the old base like an
// incremental round does.
func TestBucketsRestart(t *testing.T) {
	bk := NewBuckets(4, 1)
	bk.Add(3, 100)
	drainAll(t, bk)
	bk.Restart(5)
	if bk.Cur() != 5 {
		t.Fatalf("base after restart = %d, want 5", bk.Cur())
	}
	bk.Add(1, 5.5)
	bk.Add(2, 7.5)
	var flat []int32
	for _, b := range drainAll(t, bk) {
		flat = append(flat, b...)
	}
	if !slices.Equal(flat, []int32{1, 2}) {
		t.Fatalf("post-restart drain %v", flat)
	}
}

// TestBucketsSeedBelowBase clamps a seed below the current base into the
// base bucket instead of losing it.
func TestBucketsSeedBelowBase(t *testing.T) {
	bk := NewBuckets(4, 1)
	bk.Restart(50)
	bk.Add(0, 3) // bucket 3 < base 50: clamps to 50
	var flat []int32
	for _, b := range drainAll(t, bk) {
		flat = append(flat, b...)
	}
	if !slices.Equal(flat, []int32{0}) {
		t.Fatalf("clamped seed drain %v", flat)
	}
}

// TestBucketsAdvanceReadsLists: a bucket is nonempty when its list is —
// there is no per-bucket counter. Advance must see a staged entry, keep
// counting a stale entry until its bucket is taken, and report empty
// once every list is.
func TestBucketsAdvanceReadsLists(t *testing.T) {
	bk := NewBuckets(4, 1)
	bk.Add(0, 7.5) // bucket 7 holds one entry
	bk.Add(1, 9.5)
	bk.Add(1, 3.5) // re-staged lower: the bucket-9 entry is now stale
	if items := bk.TakeCur(nil); len(items) != 0 {
		t.Fatalf("empty bucket 0 returned %v", items)
	}
	for _, want := range []struct {
		bucket int
		slots  []int32
	}{{3, []int32{1}}, {7, []int32{0}}, {9, nil}} {
		if !bk.Advance() || bk.Cur() != want.bucket {
			t.Fatalf("advanced to bucket %d, want %d", bk.Cur(), want.bucket)
		}
		if items := bk.TakeCur(nil); !slices.Equal(items, want.slots) {
			t.Fatalf("bucket %d returned %v, want %v", want.bucket, items, want.slots)
		}
	}
	if bk.Advance() {
		t.Fatalf("drained structure advanced to bucket %d", bk.Cur())
	}
}
