package core

import (
	"math"
	"math/rand"
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
		if x.V != y.V || x.Round != y.Round || x.From != y.From {
			return false
		}
		// Compare values bitwise so ±0 and NaN differences surface.
		if math.Float64bits(x.Val) != math.Float64bits(y.Val) {
			return false
		}
	}
	return true
}

// randomFoldBuffer draws msgs messages over the fragment's slot domain
// with heavy duplication and out-of-order rounds.
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
			V:     v,
			Val:   math.Floor(rng.Float64()*1000) / 8, // exact in binary
			Round: int32(rng.Intn(6)),
			From:  int32(rng.Intn(8)),
		}
	}
	return buf
}

// TestFolderMatchesGeneric is the differential fuzz test of the dense
// fold: on thousands of random buffers (duplicates, out-of-order rounds,
// varying sizes) the Folder must produce output bit-identical to the
// map-based reference, including Round/From tie-breaking.
func TestFolderMatchesGeneric(t *testing.T) {
	p := buildPartition(t, 4)
	rng := rand.New(rand.NewSource(99))
	for _, frag := range p.Frags {
		folder := NewFolder[float64](frag)
		for trial := 0; trial < 500; trial++ {
			n := rng.Intn(200)
			buf := randomFoldBuffer(frag, rng, n)
			want := foldMessagesGeneric(buf, math.Min)
			got := folder.Fold(buf, math.Min)
			if !foldEqual(got, want) {
				t.Fatalf("frag %d trial %d: dense fold diverged\n got %+v\nwant %+v",
					frag.ID, trial, got, want)
			}
		}
	}
}

// TestFolderAggregationOrder pins the exact fold semantics: values are
// aggregated in buffer order and Round/From follow the latest-round
// contribution (strictly greater replaces).
func TestFolderAggregationOrder(t *testing.T) {
	p := buildPartition(t, 2)
	frag := p.Frags[0]
	v := frag.Lo
	buf := []VMsg[float64]{
		{V: v, Val: 5, Round: 2, From: 1},
		{V: v, Val: 3, Round: 1, From: 0}, // lower round: value folds, stamp kept
		{V: v, Val: 7, Round: 2, From: 3}, // equal round: stamp kept
	}
	folder := NewFolder[float64](frag)
	out := folder.Fold(buf, math.Min)
	if len(out) != 1 {
		t.Fatalf("folded to %d entries", len(out))
	}
	if out[0].Val != 3 || out[0].Round != 2 || out[0].From != 1 {
		t.Fatalf("got %+v, want Val 3 Round 2 From 1", out[0])
	}
	if !foldEqual(out, foldMessagesGeneric(buf, math.Min)) {
		t.Fatal("dense and generic folds disagree on the pinned case")
	}
}

// TestFolderEmptyAndReuse checks the nil-on-empty contract and that
// scratch reuse across rounds does not leak folded state.
func TestFolderEmptyAndReuse(t *testing.T) {
	p := buildPartition(t, 2)
	frag := p.Frags[0]
	folder := NewFolder[float64](frag)
	if folder.Fold(nil, math.Min) != nil {
		t.Fatal("empty fold should be nil")
	}
	v := frag.Lo
	first := folder.Fold([]VMsg[float64]{{V: v, Val: 1}}, math.Min)
	if len(first) != 1 || first[0].Val != 1 {
		t.Fatalf("first fold: %+v", first)
	}
	// A later round for a different vertex must not resurrect v.
	u := frag.Lo + 1
	second := folder.Fold([]VMsg[float64]{{V: u, Val: 9}}, math.Min)
	if len(second) != 1 || second[0].V != u || second[0].Val != 9 {
		t.Fatalf("second fold leaked scratch: %+v", second)
	}
}

// TestFolderFallbackArbitraryVertices exercises the MapReduce-style
// routing where a message's vertex has no slot in the receiving
// fragment: the Folder must fall back to the generic fold and still
// match it exactly.
func TestFolderFallbackArbitraryVertices(t *testing.T) {
	p := buildPartition(t, 4)
	frag := p.Frags[1]
	rng := rand.New(rand.NewSource(3))
	folder := NewFolder[float64](frag)
	n := int32(p.G.NumVertices())
	for trial := 0; trial < 200; trial++ {
		buf := randomFoldBuffer(frag, rng, rng.Intn(50))
		// Splice in vertices the fragment neither owns nor copies,
		// including synthetic ids outside the graph's vertex range.
		for i := 0; i < 5; i++ {
			v := int32(rng.Intn(int(n)))
			buf = append(buf, VMsg[float64]{V: v, Val: float64(rng.Intn(100)), Round: int32(rng.Intn(4))})
		}
		buf = append(buf,
			VMsg[float64]{V: n + int32(rng.Intn(100)), Val: 1},
			VMsg[float64]{V: -1 - int32(rng.Intn(3)), Val: 2},
		)
		want := foldMessagesGeneric(buf, math.Min)
		got := folder.Fold(buf, math.Min)
		if !foldEqual(got, want) {
			t.Fatalf("trial %d: fallback fold diverged", trial)
		}
	}
}

// TestFolderCopiesBothSidesThenFallback covers what the ordered bitmap
// adds over the stamped fold: the emission order when a buffer mixes
// owned vertices with F.O copies on both sides of [Lo, Hi) (the
// SendToHolders direction CF uses), and a generic fallback that aborts
// a half-built dense fold — the bitmap must come out clean, or the next
// dense fold emits the aborted round's vertices. The aggregate is
// order-sensitive, so the per-vertex buffer order is pinned too.
func TestFolderCopiesBothSidesThenFallback(t *testing.T) {
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
		want := foldMessagesGeneric(buf, inOrder)
		if got := folder.Fold(buf, inOrder); !foldEqual(got, want) {
			t.Fatalf("trial %d, %s: fold diverged\n got %+v\nwant %+v", trial, what, got, want)
		}
	}
	synthetic := int32(p.G.NumVertices()) + 7
	for trial := 0; trial < 300; trial++ {
		check("dense", trial, randomFoldBuffer(frag, rng, 1+rng.Intn(120)))
		aborted := append(randomFoldBuffer(frag, rng, 1+rng.Intn(40)),
			VMsg[float64]{V: synthetic, Val: 4, Round: 1, From: 3})
		check("fallback", trial, aborted)
		check("dense after fallback", trial, randomFoldBuffer(frag, rng, 1+rng.Intn(10)))
	}
}
