package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aap/internal/partition"
)

// foldEqual reports whether two fold outputs are bit-identical.
func foldEqual(a, b []VMsg[float64]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.V != y.V {
			return false
		}
		// Compare values bitwise so ±0 and NaN differences surface.
		if math.Float64bits(x.Val) != math.Float64bits(y.Val) {
			return false
		}
	}
	return true
}

// mustFold is Fold on a buffer whose every vertex has a local slot.
func mustFold(t testing.TB, fd *Folder[float64], buf []VMsg[float64], agg func(a, b float64) float64) []VMsg[float64] {
	t.Helper()
	out, err := fd.Fold(buf, agg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randomFoldBuffer draws msgs messages over the fragment's slot domain
// with heavy duplication.
func randomFoldBuffer(frag *partition.Fragment, rng *rand.Rand, msgs int) []VMsg[float64] {
	owned := frag.NumOwned()
	buf := make([]VMsg[float64], msgs)
	for i := range buf {
		var v int32
		if nOut := len(frag.Out); nOut > 0 && rng.Intn(3) == 0 {
			v = frag.Out[rng.Intn(nOut)]
		} else {
			v = frag.Lo + int32(rng.Intn(owned))
		}
		buf[i] = VMsg[float64]{
			V:   v,
			Val: math.Floor(rng.Float64()*1000) / 8, // exact in binary
		}
	}
	return buf
}

// TestFolderMatchesGeneric is the differential fuzz test of the dense
// fold: on thousands of random buffers (duplicates, varying sizes) the
// Folder must produce output bit-identical to the map-based reference.
func TestFolderMatchesGeneric(t *testing.T) {
	p := buildPartition(t, 4)
	rng := rand.New(rand.NewSource(99))
	for _, frag := range p.Frags {
		folder := NewFolder[float64](frag)
		for trial := 0; trial < 500; trial++ {
			n := rng.Intn(200)
			buf := randomFoldBuffer(frag, rng, n)
			want := FoldMessages(buf, math.Min)
			got := mustFold(t, folder, buf, math.Min)
			if !foldEqual(got, want) {
				t.Fatalf("frag %d trial %d: dense fold diverged\n got %+v\nwant %+v",
					frag.ID, trial, got, want)
			}
		}
	}
}

// TestFolderAggregationOrder pins the exact fold semantics: values are
// aggregated in buffer order.
func TestFolderAggregationOrder(t *testing.T) {
	p := buildPartition(t, 2)
	frag := p.Frags[0]
	v := frag.Lo
	buf := []VMsg[float64]{
		{V: v, Val: 5},
		{V: v, Val: 3},
		{V: v, Val: 7},
	}
	folder := NewFolder[float64](frag)
	out := mustFold(t, folder, buf, math.Min)
	if len(out) != 1 {
		t.Fatalf("folded to %d entries", len(out))
	}
	if out[0].Val != 3 {
		t.Fatalf("got %+v, want Val 3", out[0])
	}
	if !foldEqual(out, FoldMessages(buf, math.Min)) {
		t.Fatal("dense and generic folds disagree on the pinned case")
	}
}

// TestFolderEmptyAndReuse checks the nil-on-empty contract and that
// scratch reuse across rounds does not leak folded state.
func TestFolderEmptyAndReuse(t *testing.T) {
	p := buildPartition(t, 2)
	frag := p.Frags[0]
	folder := NewFolder[float64](frag)
	if mustFold(t, folder, nil, math.Min) != nil {
		t.Fatal("empty fold should be nil")
	}
	v := frag.Lo
	first := mustFold(t, folder, []VMsg[float64]{{V: v, Val: 1}}, math.Min)
	if len(first) != 1 || first[0].Val != 1 {
		t.Fatalf("first fold: %+v", first)
	}
	// A later round for a different vertex must not resurrect v.
	u := frag.Lo + 1
	second := mustFold(t, folder, []VMsg[float64]{{V: u, Val: 9}}, math.Min)
	if len(second) != 1 || second[0].V != u || second[0].Val != 9 {
		t.Fatalf("second fold leaked scratch: %+v", second)
	}
}

// TestFolderNoSlotVertexIsError (was TestFolderFallbackArbitraryVertices):
// a message whose vertex the receiving fragment neither owns nor copies
// — another fragment's interior, or an id outside the graph — can only
// come from a corrupt frame, and must fail the fold with an error naming
// the vertex and the fragment instead of being folded by some other rule
// (the sender is named by the run's error, TestNoSlotMessageFailsRun).
func TestFolderNoSlotVertexIsError(t *testing.T) {
	p := buildPartition(t, 4)
	frag := p.Frags[1]
	rng := rand.New(rand.NewSource(3))
	folder := NewFolder[float64](frag)
	n := int32(p.G.NumVertices())
	var interior int32 = -1
	for v := int32(0); v < n; v++ {
		if frag.Slot(v) < 0 {
			interior = v
			break
		}
	}
	if interior < 0 {
		t.Fatal("fragment 1 has a slot for every vertex")
	}
	for _, v := range []int32{interior, n, n + 99, -1, math.MinInt32, math.MaxInt32} {
		buf := randomFoldBuffer(frag, rng, rng.Intn(50))
		at := rng.Intn(len(buf) + 1)
		buf = append(buf[:at:at], append([]VMsg[float64]{{V: v, Val: 1}}, buf[at:]...)...)
		out, err := folder.Fold(buf, math.Min)
		if err == nil {
			t.Fatalf("vertex %d at %d of %d: folded to %d messages, want an error", v, at, len(buf), len(out))
		}
		for _, want := range []string{fmt.Sprintf("vertex %d", v), "fragment 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("vertex %d: error %q does not name %q", v, err, want)
			}
		}
	}
}

// TestFolderCopiesBothSidesThenAbort covers what the ordered bitmap
// adds over the stamped fold: the emission order when a buffer mixes
// owned vertices with F.O copies on both sides of [Lo, Hi) (the
// SendToHolders direction CF uses), and a no-slot error that aborts a
// half-built fold — the bitmap must come out clean, or the next fold
// emits the aborted round's vertices. The aggregate is order-sensitive,
// so the per-vertex buffer order is pinned too.
func TestFolderCopiesBothSidesThenAbort(t *testing.T) {
	p := buildPartition(t, 4)
	frag := p.Frags[2]
	if n := len(frag.Out); n == 0 || frag.Out[0] >= frag.Lo || frag.Out[n-1] < frag.Hi {
		t.Fatalf("fragment 2 needs F.O copies on both sides of [%d, %d): %v", frag.Lo, frag.Hi, frag.Out)
	}
	inOrder := func(a, b float64) float64 { return a*31 + b }
	rng := rand.New(rand.NewSource(17))
	folder := NewFolder[float64](frag)
	check := func(what string, trial int, buf []VMsg[float64]) {
		t.Helper()
		want := FoldMessages(buf, inOrder)
		if got := mustFold(t, folder, buf, inOrder); !foldEqual(got, want) {
			t.Fatalf("trial %d, %s: fold diverged\n got %+v\nwant %+v", trial, what, got, want)
		}
	}
	outside := int32(p.G.NumVertices()) + 7
	for trial := 0; trial < 300; trial++ {
		check("fold", trial, randomFoldBuffer(frag, rng, 1+rng.Intn(120)))
		aborted := append(randomFoldBuffer(frag, rng, 1+rng.Intn(40)),
			VMsg[float64]{V: outside, Val: 4})
		if _, err := folder.Fold(aborted, inOrder); err == nil {
			t.Fatalf("trial %d: no error for vertex %d", trial, outside)
		}
		check("fold after abort", trial, randomFoldBuffer(frag, rng, 1+rng.Intn(10)))
	}
}
