package core

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"aap/internal/checkpoint"
	"aap/internal/codec"
	"aap/internal/partition"
)

// minLabel labels every vertex with the smallest id that reaches it: a
// min-folded job small enough to drive round by round from a test, with
// a Snapshotter so a recorded cut can be resumed.
type minLabel struct {
	f     *partition.Fragment
	label []float64 // per local slot
	work  []int32   // owned slots whose label dropped since they were expanded
	dirty []bool    // F.O copies lowered since the last flush
}

func newMinLabel(f *partition.Fragment) Program[float64] {
	p := &minLabel{f: f, label: make([]float64, f.Slots()), dirty: make([]bool, f.NumCopies())}
	for i := range p.label {
		p.label[i] = math.Inf(1)
	}
	return p
}

var minLabelJob = Job[float64]{Name: "minlabel", New: newMinLabel, Aggregate: math.Min}

func (p *minLabel) PEval(ctx *Context[float64]) {
	for v := p.f.Lo; v < p.f.Hi; v++ {
		p.lower(v-p.f.Lo, float64(v))
	}
	p.settle(ctx)
}

func (p *minLabel) IncEval(msgs []VMsg[float64], ctx *Context[float64]) {
	for _, m := range msgs {
		p.lower(p.f.Slot(m.V), m.Val)
	}
	p.settle(ctx)
}

func (p *minLabel) Get(v int32) float64 { return p.label[v-p.f.Lo] }

// lower installs val at slot when it is lower, queueing an owned slot for
// expansion and marking a copy for the flush.
func (p *minLabel) lower(slot int32, val float64) {
	if val >= p.label[slot] {
		return
	}
	p.label[slot] = val
	if own := int32(p.f.NumOwned()); slot < own {
		p.work = append(p.work, slot)
	} else {
		p.dirty[slot-own] = true
	}
}

// settle expands to the local fixpoint and sends every lowered copy to
// its owner.
func (p *minLabel) settle(ctx *Context[float64]) {
	g := p.f.Graph()
	for len(p.work) > 0 {
		s := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		for _, u := range g.Out(p.f.Lo + s) {
			p.lower(p.f.Slot(u), p.label[s])
		}
	}
	own := int32(p.f.NumOwned())
	for s, v := range p.f.Copies() {
		if p.dirty[s-own] {
			p.dirty[s-own] = false
			ctx.Send(v, p.label[s])
		}
	}
}

func (p *minLabel) SnapshotState() []byte { return codec.AppendFloat64s(nil, p.label) }

func (p *minLabel) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	label := r.Float64s()
	if err := r.Err(); err != nil {
		return err
	}
	copy(p.label, label)
	p.work = p.work[:0]
	clear(p.dirty)
	return nil
}

// TestRecordCapturesFold: a worker's recorded channel state is its
// pending fold, one flight from the worker to itself that holds
// FoldMessages of its arrivals (⊕ applied in arrival order) with each
// vertex where it first arrived, and resuming from that cut answers
// bit-identically to the fault-free run. So does resuming from the same
// cut in the earlier format, whose channel state held the raw batches,
// one flight per run of batches from one sender. Three workers: every
// batch to worker t comes from a or b, whose PEval batches to t are
// split into one batch per letter of the arrival pattern.
func TestRecordCapturesFold(t *testing.T) {
	p := buildPartition(t, 3)
	want, err := Run(p, minLabelJob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resume := func(t *testing.T, snap *checkpoint.Snapshot[VMsg[float64]]) {
		t.Helper()
		// A resumed run checkpoints, as Resume's Dir makes it; this
		// one announces no epoch of its own.
		resumed := Options{Checkpoint: CheckpointOptions{EveryRounds: 1 << 20}}
		res, err := run(NewSession(p), minLabelJob, resumed, &resumeState[float64]{snap: snap}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v, x := range res.Values {
			if math.Float64bits(x) != math.Float64bits(want.Values[v]) {
				t.Fatalf("vertex %d: resumed %v, fault-free %v", v, x, want.Values[v])
			}
		}
	}
	for _, arrivals := range []string{"aaba", "abab", "baa"} {
		t.Run(arrivals, func(t *testing.T) {
			opts := Options{Checkpoint: CheckpointOptions{EveryRounds: 1}}
			e := newEngine(NewSession(p), minLabelJob, opts, nil)
			e.clock = wallClock{time.Now()}
			var err error
			if e.recov, err = newRecovery(e); err != nil {
				t.Fatal(err)
			}
			outs := make([][][]VMsg[float64], p.M)
			for i, w := range e.workers {
				w.pevalDone = true
				w.prog.PEval(w.ctx)
				outs[i], _ = w.ctx.TakeOut()
			}
			// Worker tw, which owns the highest ids, receives from a and
			// b, whose labels are lower and so lower tw's; a sends at
			// least as many messages, and both enough to split as the
			// pattern asks.
			tw, a, b := 2, 0, 1
			if len(outs[a][tw]) < len(outs[b][tw]) {
				a, b = b, a
			}
			na, nb := strings.Count(arrivals, "a"), strings.Count(arrivals, "b")
			if len(outs[a][tw]) < na || len(outs[b][tw]) < nb {
				t.Fatalf("workers %d and %d send %d and %d messages to %d; the pattern needs %d and %d",
					a, b, len(outs[a][tw]), len(outs[b][tw]), tw, na, nb)
			}
			parts := map[byte][][]VMsg[float64]{'a': split(outs[a][tw], na), 'b': split(outs[b][tw], nb)}
			from := map[byte]int{'a': a, 'b': b}
			deliver := func(src, dst int, msgs []VMsg[float64]) {
				e.ledger.Sent(int64(len(msgs)), 0)
				e.land(dst, batch[float64]{from: int32(src), msgs: slices.Clone(msgs)})
			}
			// raw is the parent format's channel state of tw: one flight
			// per run of consecutive batches from one sender.
			var all []VMsg[float64]
			var raw []checkpoint.Flight[VMsg[float64]]
			for i := range arrivals {
				c := arrivals[i]
				deliver(from[c], tw, parts[c][0])
				all = append(all, parts[c][0]...)
				if k := len(raw) - 1; k >= 0 && raw[k].From == int32(from[c]) {
					raw[k].Msgs = append(raw[k].Msgs, parts[c][0]...)
				} else {
					raw = append(raw, checkpoint.Flight[VMsg[float64]]{From: int32(from[c]), To: int32(tw), Msgs: slices.Clone(parts[c][0])})
				}
				parts[c] = parts[c][1:]
			}
			if len(raw) < 2 {
				t.Fatalf("pattern %q gives %d sender runs, want several", arrivals, len(raw))
			}
			for src, out := range outs {
				for dst, msgs := range out {
					if dst != tw && len(msgs) > 0 {
						deliver(src, dst, msgs)
					}
				}
			}
			for _, w := range e.workers {
				if !w.drain() {
					t.Fatal(e.err())
				}
			}
			if ep, ok := e.ckpt.Announce(); !ok || ep != 1 {
				t.Fatalf("announce = (%d, %v), want (1, true)", ep, ok)
			}
			for _, w := range e.workers {
				w.record(1)
			}
			snap := e.ckpt.Sealed()
			if snap == nil || snap.Epoch != 1 {
				t.Fatalf("epoch 1 did not seal: %+v", snap)
			}

			var got []checkpoint.Flight[VMsg[float64]]
			for _, f := range snap.InFlight {
				if int(f.To) == tw {
					got = append(got, f)
				}
			}
			if len(got) != 1 || got[0].From != int32(tw) {
				t.Fatalf("flights to worker %d: %+v, want one from itself", tw, got)
			}
			fold := FoldMessages(all, minLabelJob.Aggregate)
			sorted := slices.SortedFunc(slices.Values(got[0].Msgs), func(x, y VMsg[float64]) int { return cmp.Compare(x.V, y.V) })
			if !reflect.DeepEqual(sorted, fold) {
				t.Fatalf("recorded fold\n got %+v\nwant %+v", sorted, fold)
			}
			var order []int32
			for _, m := range all {
				if !slices.Contains(order, m.V) {
					order = append(order, m.V)
				}
			}
			for k, m := range got[0].Msgs {
				if m.V != order[k] {
					t.Fatalf("recorded entry %d is vertex %d; vertex %d arrived %d-th", k, m.V, order[k], k+1)
				}
			}
			resume(t, snap)

			t.Run("raw-flights", func(t *testing.T) {
				old := *snap
				old.InFlight = nil
				for _, f := range snap.InFlight {
					if int(f.To) != tw {
						old.InFlight = append(old.InFlight, f)
					}
				}
				old.InFlight = append(old.InFlight, raw...)
				resume(t, &old)
			})
		})
	}
}

// split cuts msgs into n contiguous nonempty parts.
func split(msgs []VMsg[float64], n int) [][]VMsg[float64] {
	parts := make([][]VMsg[float64], n)
	for i := range parts {
		parts[i] = msgs[i*len(msgs)/n : (i+1)*len(msgs)/n]
	}
	return parts
}
