package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aap/internal/gen"
	"aap/internal/partition"
)

// benchBuffer builds a message buffer addressed at fragment frag: msgs
// messages drawn over the fragment's owned vertices and F.O copies, with
// duplicates, as an IncEval round would see.
func benchBuffer(frag *partition.Fragment, msgs int, seed int64) []VMsg[float64] {
	rng := rand.New(rand.NewSource(seed))
	owned := int(frag.Hi - frag.Lo)
	out := copyList(frag)
	buf := make([]VMsg[float64], msgs)
	for i := range buf {
		var v int32
		if len(out) > 0 && rng.Intn(4) == 0 {
			v = out[rng.Intn(len(out))]
		} else {
			v = frag.Lo + int32(rng.Intn(owned))
		}
		buf[i] = VMsg[float64]{V: v, Val: rng.Float64() * 100}
	}
	return buf
}

func benchFragment(b *testing.B) *partition.Fragment {
	b.Helper()
	g := gen.Random(20000, 80000, false, 42)
	p, err := partition.Build(g, 8, partition.Hash{})
	if err != nil {
		b.Fatal(err)
	}
	return p.Frags[0]
}

// BenchmarkFoldMessages measures the fold path the concurrent engine runs
// every IncEval round: the dense per-worker Folder.
func BenchmarkFoldMessages(b *testing.B) {
	frag := benchFragment(b)
	buf := benchBuffer(frag, 4096, 7)
	folder := NewFolder[float64](frag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := mustFold(b, folder, buf, math.Min); len(out) == 0 {
			b.Fatal("empty fold")
		}
	}
}

// BenchmarkFoldMessagesGeneric measures the map-based reference fold the
// dense path replaced.
func BenchmarkFoldMessagesGeneric(b *testing.B) {
	frag := benchFragment(b)
	buf := benchBuffer(frag, 4096, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := FoldMessages(buf, math.Min)
		if len(out) == 0 {
			b.Fatal("empty fold")
		}
	}
}

// BenchmarkFold is the fold at the sizes hash-partitioned SSSP rounds
// reach: 10k and 100k messages, 30% of them repeating an earlier vertex.
func BenchmarkFold(b *testing.B) {
	g := gen.PowerLaw(400_000, 8, 2.1, true, 42)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		b.Fatal(err)
	}
	frag := p.Frags[1]
	out := copyList(frag)
	for _, msgs := range []int{10_000, 100_000} {
		rng := rand.New(rand.NewSource(7))
		perm := rng.Perm(frag.Slots())
		buf := make([]VMsg[float64], msgs)
		for i := range buf {
			slot := perm[i]
			if i > 0 && rng.Intn(10) < 3 {
				slot = perm[rng.Intn(i)]
			}
			v := frag.Lo + int32(slot)
			if slot >= frag.NumOwned() {
				v = out[slot-frag.NumOwned()]
			}
			buf[i] = VMsg[float64]{V: v, Val: rng.Float64() * 100}
		}
		b.Run(fmt.Sprintf("msgs=%d", msgs), func(b *testing.B) {
			folder := NewFolder[float64](frag)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := mustFold(b, folder, buf, math.Min); len(out) == 0 {
					b.Fatal("empty fold")
				}
			}
		})
	}
}
