package core_test

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"aap/internal/algo/sssp"
	"aap/internal/checkpoint"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
)

// Regression tests for surfaced durability degradation: seals that a
// slow disk makes the tee supersede before their write are counted
// (DroppedSeals), and a disk that fails mid-run degrades the run to
// non-durable (DurableDegraded) instead of failing it.

// ticker is a synthetic Program that runs exactly `limit` rounds by
// sending itself one message per round — every worker stays active the
// whole time, so with EveryRounds=1 the run seals an epoch per round,
// deterministically, no matter how the scheduler interleaves.
type ticker struct {
	f     *partition.Fragment
	limit int32
	state int64
}

func (tk *ticker) PEval(ctx *core.Context[float64]) {
	tk.state++
	ctx.Send(tk.f.Lo, 1)
}

func (tk *ticker) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	tk.state++
	if ctx.Round() < tk.limit {
		ctx.Send(tk.f.Lo, 1)
	}
}

func (tk *ticker) Get(int32) float64     { return float64(tk.state) }
func (tk *ticker) SnapshotState() []byte { return codec.AppendInt64(nil, tk.state) }
func (tk *ticker) RestoreState(b []byte) error {
	tk.state = codec.NewReader(b).Int64()
	return nil
}

func tickerJob(limit int32) core.Job[float64] {
	return core.Job[float64]{
		Name:      "ticker",
		New:       func(f *partition.Fragment) core.Program[float64] { return &ticker{f: f, limit: limit} },
		Aggregate: math.Min,
		EncodeVal: codec.AppendFloat64,
		DecodeVal: func(r *codec.Reader) float64 { return r.Float64() },
	}
}

// gateFS blocks every file write until released, simulating a stalled
// disk; reads pass through so NewestSealed keeps working.
type gateFS struct {
	checkpoint.FS
	gate chan struct{}
	once sync.Once
}

func newGateFS() *gateFS { return &gateFS{FS: checkpoint.OsFS(), gate: make(chan struct{})} }

func (g *gateFS) release() { g.once.Do(func() { close(g.gate) }) }

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, gate: g.gate}, nil
}

type gateFile struct {
	checkpoint.File
	gate chan struct{}
}

func (f *gateFile) Write(b []byte) (int, error) {
	<-f.gate
	return f.File.Write(b)
}

// TestDroppedSealsSurfaced runs ~40 sealed epochs against a disk stalled
// for the first 35 rounds: while one write waits on the disk, the tee
// keeps only the newest seal pending, and every seal superseded there is
// counted in RunStats.DroppedSeals instead of vanishing. The run itself
// is unharmed, and the superseded seals do not read as a disk failure.
func TestDroppedSealsSurfaced(t *testing.T) {
	g := gen.Grid(8, 8, 1)
	p, err := partition.Build(g, 4, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	fsys := newGateFS()
	defer fsys.release() // never leave Run's drain wedged on a failure path
	const limit = 40
	res, err := core.Run(p, tickerJob(limit), core.Options{
		Mode: core.AAP,
		// Epoch announcements are sequential (a new epoch waits for the
		// previous seal), so the run must outlive the recording cadence
		// to seal one epoch per round.
		Faults:     &core.Faults{DelayProb: 1, DelayBy: 2 * time.Millisecond, Disk: fsys},
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1, Dir: t.TempDir()},
		Observe: func(ev core.Event) {
			if ev.Kind == core.RoundStart && ev.Round >= limit-5 {
				fsys.release()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Checkpoints < 10 {
		t.Fatalf("run sealed only %d epochs; the ticker should seal ~%d", res.Stats.Checkpoints, limit)
	}
	if res.Stats.DroppedSeals < 1 {
		t.Fatalf("stalled persister dropped no seals: %+v", res.Stats)
	}
	if res.Stats.DurableDegraded != "" {
		t.Fatalf("drops must not read as disk failure: %q", res.Stats.DurableDegraded)
	}
}

// failOpenFS fails every file creation — the full-disk model at its
// bluntest.
type failOpenFS struct{ checkpoint.FS }

func (failOpenFS) OpenFile(string, int, os.FileMode) (checkpoint.File, error) {
	return nil, os.ErrPermission
}

// TestDurableDegradeOnDiskFailure pins satellite 2 at the engine level:
// a disk failing from the first epoch degrades the run to non-durable —
// the run still completes with correct output, the error is surfaced in
// RunStats.DurableDegraded, and the seal path never wedges.
func TestDurableDegradeOnDiskFailure(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, true, 4)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, sssp.Job(0), core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Faults:     &core.Faults{Disk: failOpenFS{checkpoint.OsFS()}},
		Checkpoint: core.CheckpointOptions{EveryRounds: 1, Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatalf("failing disk must degrade, not fail the run: %v", err)
	}
	if res.Stats.DurableDegraded == "" {
		t.Fatal("disk failure left no trace in RunStats.DurableDegraded")
	}
	if !strings.Contains(res.Stats.DurableDegraded, "permission") {
		t.Fatalf("degradation does not carry the cause: %q", res.Stats.DurableDegraded)
	}
	if res.Stats.Checkpoints < 1 {
		t.Fatal("in-memory sealing stopped with the disk — the seal path wedged")
	}
	sameFloats(t, base.Values, res.Values, "degraded run values")
}
