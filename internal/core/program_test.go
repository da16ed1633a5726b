package core

import (
	"math"
	"testing"
	"testing/quick"

	"aap/internal/gen"
	"aap/internal/partition"
)

func buildPartition(t testing.TB, m int) *partition.Partitioned {
	t.Helper()
	g := gen.PowerLaw(200, 5, 2.1, false, 7)
	p, err := partition.Build(g, m, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestContextSendRoutesToOwner(t *testing.T) {
	p := buildPartition(t, 4)
	f := p.Frags[0]
	if len(f.Out) == 0 {
		t.Skip("fragment 0 has no out-border on this seed")
	}
	ctx := newContext[float64](f, p.M, &msgPool[float64]{})
	ctx.round = 3
	v := f.Out[0]
	ctx.Send(v, 1.5)
	out, _ := ctx.TakeOut()
	owner := p.Owner(v)
	for j, msgs := range out {
		if j == owner {
			if len(msgs) != 1 || msgs[0].V != v || msgs[0].Val != 1.5 {
				t.Fatalf("bad message %+v", msgs)
			}
		} else if len(msgs) != 0 {
			t.Fatalf("message leaked to worker %d", j)
		}
	}
	// TakeOut clears.
	out2, _ := ctx.TakeOut()
	for _, msgs := range out2 {
		if len(msgs) != 0 {
			t.Fatal("TakeOut did not clear")
		}
	}
}

// TestContextSendToHolders: an owner's value reaches exactly the
// fragments with an edge into v, each holding a copy of it.
func TestContextSendToHolders(t *testing.T) {
	p := buildPartition(t, 4)
	// Find an owned vertex with remote copies: the first of any F.I.
	var frag *partition.Fragment
	var v int32 = -1
	for _, f := range p.Frags {
		if in := f.InBorder(); len(in) > 0 {
			frag, v = f, in[0]
			break
		}
	}
	if v < 0 {
		t.Skip("no shared border vertex on this seed")
	}
	ctx := newContext[float64](frag, p.M, &msgPool[float64]{})
	ctx.SendToHolders(v, 2.5)
	out, _ := ctx.TakeOut()
	want := map[int32]bool{}
	for u := int32(0); u < int32(p.G.NumVertices()); u++ {
		for _, w := range p.G.Out(u) {
			if w == v && p.Owner(u) != frag.ID {
				want[int32(p.Owner(u))] = true
			}
		}
	}
	got := map[int32]bool{}
	for j, msgs := range out {
		if len(msgs) > 0 {
			got[int32(j)] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("holders %v, messages to %v", want, got)
	}
	for h := range want {
		if !got[h] {
			t.Errorf("holder %d missed", h)
		}
	}
}

func TestContextSendAndWork(t *testing.T) {
	p := buildPartition(t, 3)
	ctx := newContext[float64](p.Frags[0], p.M, &msgPool[float64]{})
	v := p.Frags[2].Lo
	ctx.Send(v, 9)
	ctx.AddWork(7)
	ctx.AddWork(3)
	out, work := ctx.TakeOut()
	if work != 10 {
		t.Errorf("work = %d", work)
	}
	if len(out[2]) != 1 || out[2][0].V != v || out[2][0].Val != 9 {
		t.Errorf("Send misrouted: %+v", out)
	}
}

func TestFoldMessagesProperties(t *testing.T) {
	// Folding with min: output has unique ascending vertices, each value
	// is the min of that vertex's inputs, and the count never grows.
	f := func(vs []int32, vals []float64) bool {
		n := len(vs)
		if len(vals) < n {
			n = len(vals)
		}
		var buf []VMsg[float64]
		want := map[int32]float64{}
		for i := 0; i < n; i++ {
			v := vs[i] % 64
			if v < 0 {
				v = -v
			}
			val := math.Abs(vals[i])
			buf = append(buf, VMsg[float64]{V: v, Val: val})
			if cur, ok := want[v]; !ok || val < cur {
				want[v] = val
			}
		}
		out := FoldMessages(buf, math.Min)
		if len(out) != len(want) {
			return false
		}
		prev := int32(-1)
		for _, m := range out {
			if m.V <= prev {
				return false
			}
			prev = m.V
			if want[m.V] != m.Val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJobValueBytes(t *testing.T) {
	j := Job[float64]{}
	if got := j.valueBytes(1); got != 12 {
		t.Errorf("default wire size = %d, want 12 (4B vertex id + 8B value)", got)
	}
	j.Bytes = func(float64) int { return 100 }
	if got := j.valueBytes(1); got != 104 {
		t.Errorf("custom wire size = %d, want 104", got)
	}
}

func TestRunStatsFinalize(t *testing.T) {
	s := RunStats{Workers: []WorkerStats{
		{Rounds: 3, MsgsSent: 10, BytesSent: 100, Work: 7, BusySeconds: 1, IdleSeconds: 2},
		{Rounds: 5, MsgsSent: 20, BytesSent: 200, Work: 3, BusySeconds: 4, IdleSeconds: 1},
	}}
	s.finalize()
	if s.TotalMsgs != 30 || s.TotalBytes != 300 || s.TotalWork != 10 {
		t.Errorf("totals wrong: %+v", s)
	}
	if s.MaxRound != 5 || s.MinRound != 3 || s.SumRounds != 8 {
		t.Errorf("rounds wrong: %+v", s)
	}
	if s.TotalBusy != 5 || s.TotalIdle != 3 {
		t.Errorf("times wrong: %+v", s)
	}
	var empty RunStats
	empty.finalize()
	if empty.MinRound != 0 {
		t.Errorf("empty MinRound = %d", empty.MinRound)
	}
}

func TestAssembleCoversEveryVertex(t *testing.T) {
	p := buildPartition(t, 2)
	progs := make([]Program[float64], 2)
	for i, f := range p.Frags {
		progs[i] = constProgram{f: f, val: float64(i + 1)}
	}
	vals := Assemble(p, progs)
	for v := int32(0); v < int32(len(vals)); v++ {
		want := float64(p.Owner(v) + 1)
		if vals[v] != want {
			t.Fatalf("vertex %d = %v, want %v", v, vals[v], want)
		}
	}
}

type constProgram struct {
	f   *partition.Fragment
	val float64
}

func (c constProgram) PEval(*Context[float64])                    {}
func (c constProgram) IncEval([]VMsg[float64], *Context[float64]) {}
func (c constProgram) Get(int32) float64                          { return c.val }
