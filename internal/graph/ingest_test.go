package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aap/internal/par"
)

// forceShards makes the ingest pipeline run with p workers regardless of
// GOMAXPROCS, so the sharded code paths are exercised even on single-core
// machines.
func forceShards(t *testing.T, p int) {
	t.Helper()
	prev := par.Override
	par.Override = p
	t.Cleanup(func() { par.Override = prev })
}

// randomBuilder fills a Builder with a random graph containing the cases
// the differential tests must pin: self-loops, parallel edges (including
// weighted parallel edges, whose relative order is defined by insertion),
// isolated vertices, and empty rows.
func randomBuilder(rng *rand.Rand, directed, weighted bool, n, m int) *Builder {
	b := NewBuilder(directed)
	if weighted {
		b.SetWeighted()
	}
	for i := 0; i < n; i++ {
		b.AddVertex(VertexID(i * 3)) // non-contiguous external ids
	}
	add := func(s, d int32) {
		if weighted {
			b.AddWeightedEdge(VertexID(s*3), VertexID(d*3), float64(rng.Intn(1000))/8)
		} else {
			b.AddEdge(VertexID(s*3), VertexID(d*3))
		}
	}
	for e := 0; e < m; e++ {
		s, d := int32(rng.Intn(n)), int32(rng.Intn(n))
		switch rng.Intn(10) {
		case 0: // self-loop
			add(s, s)
		case 1, 2: // parallel edges
			add(s, d)
			add(s, d)
		case 3: // hub edge, grows rows past the radix threshold
			add(0, d)
		default:
			add(s, d)
		}
	}
	return b
}

// equalGraphs fails the test unless got and want are bit-identical: same
// flags, same vertex order, same CSR arrays (the in-side built under the
// current shard count), same id resolution.
func equalGraphs(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.directed != want.directed || got.numEdges != want.numEdges {
		t.Fatalf("%s: flags/edge count differ: directed %v/%v edges %d/%d",
			tag, got.directed, want.directed, got.numEdges, want.numEdges)
	}
	if len(got.ids) != len(want.ids) {
		t.Fatalf("%s: %d vs %d vertices", tag, len(got.ids), len(want.ids))
	}
	for v := range got.ids {
		if got.ids[v] != want.ids[v] {
			t.Fatalf("%s: ids[%d] = %d, want %d", tag, v, got.ids[v], want.ids[v])
		}
	}
	for _, id := range want.ids {
		gv, gok := got.IndexOf(id)
		wv, wok := want.IndexOf(id)
		if gv != wv || gok != wok {
			t.Fatalf("%s: IndexOf(%d) = (%d,%v), want (%d,%v)", tag, id, gv, gok, wv, wok)
		}
	}
	// An id (almost) no input names: absent on both sides, or present on
	// both when a fuzz input does name it.
	_, gok := got.IndexOf(VertexID(-999))
	if _, wok := want.IndexOf(VertexID(-999)); gok != wok {
		t.Fatalf("%s: IndexOf(-999) found = %v, want %v", tag, gok, wok)
	}
	eqOff := func(name string, a, b []uint32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", tag, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", tag, name, i, a[i], b[i])
			}
		}
	}
	eqAdj := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", tag, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", tag, name, i, a[i], b[i])
			}
		}
	}
	eqW := func(name string, a, b []float64) {
		if (a == nil) != (b == nil) || len(a) != len(b) {
			t.Fatalf("%s: %s presence/length differ", tag, name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %v, want %v", tag, name, i, a[i], b[i])
			}
		}
	}
	eqOff("outOff", got.outOff, want.outOff)
	eqAdj("outDst", got.outDst, want.outDst)
	eqW("outW", got.outW, want.outW)
	// The in-side is built on first use: force it on both graphs.
	gotIn, wantIn := got.inSide(), want.inSide()
	eqOff("inOff", gotIn.off, wantIn.off)
	eqAdj("inSrc", gotIn.adj, wantIn.adj)
}

// shardCounts is the worker-count axis of every differential test: the
// sequential path, a small forced fan-out, and one larger than typical
// row counts so shard boundaries hit edge cases.
var shardCounts = []int{1, 3, 7}

func TestBuildMatchesReference(t *testing.T) {
	for _, procs := range shardCounts {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			directed := seed%2 == 0
			weighted := seed%4 < 2
			n := 1 + rng.Intn(60)
			m := rng.Intn(300)
			b := randomBuilder(rng, directed, weighted, n, m)
			want := b.buildRef()
			forceShards(t, procs)
			got := b.Build()
			equalGraphs(t, tagOf("build", procs, seed), got, want)
		}
	}
}

// TestBuildMatchesReferenceLarge runs one bigger power-law-ish graph per
// shard count so the radix path (rows > insertionMax) and multi-shard
// scatter are exercised together.
func TestBuildMatchesReferenceLarge(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, directed := range []bool{true, false} {
			rng := rand.New(rand.NewSource(99))
			b := randomBuilder(rng, directed, true, 2000, 30000)
			want := b.buildRef()
			forceShards(t, procs)
			got := b.Build()
			equalGraphs(t, tagOf("build-large", procs, 99), got, want)
		}
	}
}

func TestRelabelMatchesReference(t *testing.T) {
	for _, procs := range shardCounts {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed + 100))
			directed := seed%2 == 0
			weighted := seed%4 < 2
			n := 1 + rng.Intn(60)
			b := randomBuilder(rng, directed, weighted, n, rng.Intn(300))
			g := b.buildRef()
			perm := rand.New(rand.NewSource(seed)).Perm(n)
			p32 := make([]int32, n)
			for i, p := range perm {
				p32[i] = int32(p)
			}
			want, err := relabelRef(g, p32)
			if err != nil {
				t.Fatal(err)
			}
			forceShards(t, procs)
			got, err := Relabel(g, p32)
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, tagOf("relabel", procs, seed), got, want)

			// Relabel the relabeled graph again: the twice-composed id
			// table must keep matching the rebuild-from-scratch reference.
			perm2 := rand.New(rand.NewSource(seed + 1)).Perm(n)
			p232 := make([]int32, n)
			for i, p := range perm2 {
				p232[i] = int32(p)
			}
			want2, err := relabelRef(want, p232)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := Relabel(got, p232)
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, tagOf("relabel-twice", procs, seed), got2, want2)
		}
	}
}

func TestAsUndirectedMatchesReference(t *testing.T) {
	for _, procs := range shardCounts {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed + 200))
			weighted := seed%2 == 0
			n := 1 + rng.Intn(60)
			b := randomBuilder(rng, true, weighted, n, rng.Intn(300))
			g := b.buildRef()
			want := asUndirectedRef(g)
			forceShards(t, procs)
			got := AsUndirected(g)
			equalGraphs(t, tagOf("asundirected", procs, seed), got, want)
		}
	}
}

// TestAsUndirectedSelfLoopHeavy pins the pairwise self-loop consumption
// of the merge: vertices whose rows are dominated by parallel self-loops.
func TestAsUndirectedSelfLoopHeavy(t *testing.T) {
	for _, procs := range shardCounts {
		b := NewBuilder(true)
		b.SetWeighted()
		for i := 0; i < 5; i++ {
			b.AddVertex(VertexID(i))
		}
		for k := 0; k < 6; k++ {
			b.AddWeightedEdge(2, 2, float64(k))
			b.AddWeightedEdge(0, 2, 10+float64(k))
			b.AddWeightedEdge(2, 0, 20+float64(k))
		}
		g := b.buildRef()
		want := asUndirectedRef(g)
		forceShards(t, procs)
		got := AsUndirected(g)
		equalGraphs(t, tagOf("selfloops", procs, 0), got, want)
	}
}

// TestRelabelComposesIndex pins how a relabeled graph holds its id
// table: one table of its own, sharing no array with its input's, whose
// sparse part keeps every key in its input's slot (no id re-inserted)
// and whose every index, dense or sparse, is its input's mapped through
// the permutation.
func TestRelabelComposesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randomBuilder(rng, true, false, 20, 60)
	b.Reserve(40, 0) // the ids so far were filed under the overflow arm ...
	b.AddVertex(31)  // ... and this one is direct-indexed
	g := b.Build()
	perm := make([]int32, g.NumVertices())
	for i := range perm {
		perm[i] = int32((i + 7) % len(perm))
	}
	rg, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	gi, ri := &g.index, &rg.index
	if gi.over == nil || len(gi.dense) == 0 {
		t.Fatal("the input's table lacks a dense or a sparse part")
	}
	if &ri.dense[0] == &gi.dense[0] || ri.over == gi.over || &ri.over.keys[0] == &gi.over.keys[0] || &ri.over.vals[0] == &gi.over.vals[0] {
		t.Fatal("Relabel shares an array of its input's id table")
	}
	if len(ri.dense) != len(gi.dense) || len(ri.over.keys) != len(gi.over.keys) || ri.over.n != gi.over.n {
		t.Fatal("Relabel resized the id table")
	}
	remapped := func(v int32) int32 {
		if v < 0 {
			return v
		}
		return perm[v]
	}
	for i, v := range gi.dense {
		if ri.dense[i] != remapped(v) {
			t.Fatalf("dense[%d] = %d, want %d", i, ri.dense[i], remapped(v))
		}
	}
	for i, v := range gi.over.vals {
		if ri.over.keys[i] != gi.over.keys[i] || ri.over.vals[i] != remapped(v) {
			t.Fatalf("sparse slot %d = (%d, %d), want (%d, %d)", i, ri.over.keys[i], ri.over.vals[i], gi.over.keys[i], remapped(v))
		}
	}
	for v, id := range g.ids {
		if got, ok := rg.IndexOf(id); !ok || got != perm[v] {
			t.Fatalf("IndexOf(%d) = (%d, %v), want (%d, true)", id, got, ok, perm[v])
		}
	}
}

// TestCheckArcs drives the one offset-width guard with synthetic counts,
// directly and through stripedOffsets (the count-and-prefix half of every
// striped CSR build), so no large graph is allocated: 2^32−1 arcs fit
// 32-bit offsets, one more is refused with an error naming the count.
func TestCheckArcs(t *testing.T) {
	for _, arcs := range []int64{0, 1, 1 << 31, math.MaxUint32} {
		if err := checkArcs(arcs); err != nil {
			t.Fatalf("checkArcs(%d) = %v, want nil", arcs, err)
		}
	}
	for _, arcs := range []int64{math.MaxUint32 + 1, 2 * math.MaxUint32, math.MaxInt64} {
		if err := checkArcs(arcs); err == nil || !strings.Contains(err.Error(), strconv.FormatInt(arcs, 10)) {
			t.Fatalf("checkArcs(%d) = %v, want an error naming the count", arcs, err)
		}
	}
	// Two stripes over three rows; a row's count is split between them.
	rows := func(a, b, c uint32) func(w int, cnt []uint32) {
		return func(w int, cnt []uint32) {
			cnt[0], cnt[1], cnt[2] = a/2, b/2, c/2
			if w == 1 {
				cnt[0], cnt[1], cnt[2] = a-a/2, b-b/2, c-c/2
			}
		}
	}
	_, off, err := stripedOffsets(3, 2, rows(1<<31, 1<<31-2, 1))
	if err != nil || !slices.Equal(off, []uint32{0, 1 << 31, math.MaxUint32 - 1, math.MaxUint32}) {
		t.Fatalf("2^32-1 arcs: offsets %v, err %v", off, err)
	}
	if _, _, err := stripedOffsets(3, 2, rows(1<<31, 1<<31-1, 1)); err == nil || !strings.Contains(err.Error(), "4294967296 arcs") {
		t.Fatalf("2^32 arcs: err %v, want the refusal naming 4294967296", err)
	}
}

func tagOf(kind string, procs int, seed int64) string {
	return fmt.Sprintf("%s/procs=%d/seed=%d", kind, procs, seed)
}

// TestInSideConcurrentFirstUse: eight goroutines ask a fresh relabeled
// directed graph for its in-side at once, through In and InDegree. The
// one build they share must equal the reference in-side, row by row, for
// every caller (run under -race, this is also the check that the
// once-built in-side publishes safely).
func TestInSideConcurrentFirstUse(t *testing.T) {
	for _, procs := range shardCounts {
		rng := rand.New(rand.NewSource(int64(procs)))
		n := 500
		g := randomBuilder(rng, true, true, n, 4000).Build()
		perm := make([]int32, n)
		for i, p := range rand.New(rand.NewSource(7)).Perm(n) {
			perm[i] = int32(p)
		}
		want, err := relabelRef(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		wantIn := want.inSide()
		forceShards(t, procs)
		got, err := Relabel(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		if got.InBuilt() {
			t.Fatal("Relabel built the in-side")
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < n; k++ {
					v := int32((k + c*n/8) % n) // callers start at different rows
					row := wantIn.adj[wantIn.off[v]:wantIn.off[v+1]]
					if c%2 == 0 && got.InDegree(v) != len(row) {
						errs <- fmt.Sprintf("caller %d: InDegree(%d) = %d, want %d", c, v, got.InDegree(v), len(row))
						return
					}
					if !slices.Equal(got.In(v), row) {
						errs <- fmt.Sprintf("caller %d: In(%d) = %v, want %v", c, v, got.In(v), row)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("procs=%d: %s", procs, e)
		}
	}
}
