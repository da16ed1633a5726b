package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stagePlan is one randomized staging scenario: a message list plus the
// contiguous chunk boundaries assigning messages to stages — the
// assignment discipline parallel kernels use, which is what makes the
// merged order equal the sequential order.
func stagePlan(rng *rand.Rand, n, k int) []int {
	bounds := make([]int, k+1)
	for i := 1; i < k; i++ {
		bounds[i] = rng.Intn(n + 1)
	}
	bounds[k] = n
	// Sort boundaries so chunks are contiguous (possibly empty).
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	return bounds
}

// TestStagedSendsMatchSequential is the concurrent-staging differential
// test: random message lists sent (a) sequentially through Context.Send
// and (b) concurrently through k Stages over contiguous chunks must
// produce per-destination buffers that fold to bit-identical inboxes —
// including under sum aggregation, which is sensitive to message order.
func TestStagedSendsMatchSequential(t *testing.T) {
	p := buildPartition(t, 4)
	rng := rand.New(rand.NewSource(41))
	agg := func(a, b float64) float64 { return a + b } // order-sensitive on purpose
	for _, frag := range p.Frags {
		seqCtx := newContext[float64](frag, p.M, &msgPool[float64]{})
		stgCtx := newContext[float64](frag, p.M, &msgPool[float64]{})
		folders := make([]*Folder[float64], p.M)
		for j, f := range p.Frags {
			folders[j] = NewFolder[float64](f)
		}
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(400)
			k := 1 + rng.Intn(8)
			msgs := randomFoldBuffer(frag, rng, n)
			round := int32(rng.Intn(5))
			seqCtx.round = round
			stgCtx.round = round

			for _, m := range msgs {
				seqCtx.Send(m.V, m.Val)
			}
			wantOut, _ := seqCtx.TakeOut()

			bounds := stagePlan(rng, n, k)
			stages := stgCtx.Stages(k)
			done := make(chan struct{})
			for w := 0; w < k; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					for _, m := range msgs[bounds[w]:bounds[w+1]] {
						stages[w].Send(m.V, m.Val)
					}
				}(w)
			}
			for w := 0; w < k; w++ {
				<-done
			}
			stgCtx.MergeStages()
			gotOut, _ := stgCtx.TakeOut()

			for j := range wantOut {
				want := mustFold(t, folders[j], wantOut[j], agg)
				// Folder reuses its output; copy before the second fold.
				wantCopy := append([]VMsg[float64](nil), want...)
				got := mustFold(t, folders[j], gotOut[j], agg)
				if !foldEqual(got, wantCopy) {
					t.Fatalf("frag %d trial %d dest %d (k=%d): staged fold diverged\n got %+v\nwant %+v",
						frag.ID, trial, j, k, got, wantCopy)
				}
			}
			seqCtx.ReleaseOut(wantOut)
			stgCtx.ReleaseOut(gotOut)
		}
	}
}

// TestOneShardStageIsTheContext: a context's send side is its stage 0,
// so a kernel needs no separate one-shard send loop. Sends through the
// context interleaved with sends through Stages(1)[0] produce exactly
// the buffers and work of the same sends through the context alone, and
// merging one stage is free.
func TestOneShardStageIsTheContext(t *testing.T) {
	p := buildPartition(t, 4)
	f := p.Frags[1]
	rng := rand.New(rand.NewSource(43))
	msgs := randomFoldBuffer(f, rng, 300)
	seqCtx := newContext[float64](f, p.M, &msgPool[float64]{})
	stgCtx := newContext[float64](f, p.M, &msgPool[float64]{})

	for i, m := range msgs {
		seqCtx.Send(m.V, m.Val)
		seqCtx.AddWork(i)
	}
	wantOut, wantWork := seqCtx.TakeOut()

	st := stgCtx.Stages(1)[0]
	for i, m := range msgs {
		if i%3 == 0 {
			stgCtx.Send(m.V, m.Val)
			stgCtx.AddWork(i)
		} else {
			st.Send(m.V, m.Val)
			st.AddWork(i)
		}
	}
	stgCtx.MergeStages()
	gotOut, gotWork := stgCtx.TakeOut()

	if gotWork != wantWork {
		t.Fatalf("work %d through stage 0, %d through the context", gotWork, wantWork)
	}
	for j := range wantOut {
		if !slices.Equal(gotOut[j], wantOut[j]) {
			t.Fatalf("dest %d: through stage 0\n%v\nthrough the context\n%v", j, gotOut[j], wantOut[j])
		}
	}

	if allocs := testing.AllocsPerRun(100, func() {
		stgCtx.Stages(1)
		stgCtx.MergeStages()
	}); allocs != 0 {
		t.Fatalf("a one-stage pass allocates %v times, want 0", allocs)
	}
}

// TestStagedSendVariants pins Send and SendToHolders staging against
// their sequential counterparts, and the stage work merge.
func TestStagedSendVariants(t *testing.T) {
	p := buildPartition(t, 4)
	f := p.Frags[1]
	seqCtx := newContext[float64](f, p.M, &msgPool[float64]{})
	stgCtx := newContext[float64](f, p.M, &msgPool[float64]{})

	// A vertex owned by f with remote holders (in its F.I), if any exists.
	var held int32 = -1
	if in := f.InBorder(); len(in) > 0 {
		held = in[0]
	}

	// Sequential order mirrors the stage assignment below (stage 0's
	// sends precede stage 1's), the discipline MergeStages preserves.
	if held >= 0 {
		seqCtx.SendToHolders(held, 9)
	}
	remote := p.Frags[2].Lo // owned by fragment 2
	seqCtx.Send(remote, 7)
	seqCtx.AddWork(5)
	wantOut, wantWork := seqCtx.TakeOut()

	st := stgCtx.Stages(2)
	st[1].Send(remote, 7)
	if held >= 0 {
		st[0].SendToHolders(held, 9)
	}
	st[0].AddWork(2)
	st[1].AddWork(3)
	stgCtx.MergeStages()
	gotOut, gotWork := stgCtx.TakeOut()

	if gotWork != wantWork {
		t.Fatalf("staged work %d, sequential %d", gotWork, wantWork)
	}
	for j := range wantOut {
		if len(gotOut[j]) != len(wantOut[j]) {
			t.Fatalf("dest %d: staged %d msgs, sequential %d", j, len(gotOut[j]), len(wantOut[j]))
		}
		for i := range wantOut[j] {
			a, b := gotOut[j][i], wantOut[j][i]
			if a.V != b.V || math.Float64bits(a.Val) != math.Float64bits(b.Val) {
				t.Fatalf("dest %d msg %d: staged %+v, sequential %+v", j, i, a, b)
			}
		}
	}
}
