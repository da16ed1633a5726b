package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/par"
	"aap/internal/partition"
)

// oneShard names the subtests that run each fragment round as one
// shard, on the executor that took the worker's task: kernels have no
// shard count of their own, so this is how every run executes.
const oneShard = "shards=1"

// chaosOpts is the canonical fault schedule of the recovery tests: a
// checkpoint every round and the victim worker killed the first time it
// reaches an incremental round.
func chaosOpts(seed int64, victim int) core.Options {
	return core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
		Faults: &core.Faults{
			Seed: seed,
			Kill: &core.KillSpec{Worker: victim, Round: 1},
		},
	}
}

// TestChaosKillMatchesFaultFreeSSSP is the determinism contract for an
// idempotent min-fold kernel: a run that loses a worker and recovers
// from the last sealed snapshot must produce bit-identical output to
// the fault-free run. The seed also picks the victim (seed % workers,
// grapecli -fault-seed's rule), so the three seeds kill three different
// workers.
func TestChaosKillMatchesFaultFreeSSSP(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 1)
	p := mustPartition(t, g, 4, partition.Hash{})
	base, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("%s/seed=%d", oneShard, seed), func(t *testing.T) {
			res, err := core.Run(p, sssp.Job(0), chaosOpts(seed, int(seed)%p.M))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Recoveries < 1 {
				t.Fatalf("kill scheduled but no recovery ran (recoveries=%d)", res.Stats.Recoveries)
			}
			for v := range base.Values {
				if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
					t.Fatalf("vertex %d: fault-free %v, recovered %v", v, b, r)
				}
			}
		})
	}
}

// TestChaosKillMatchesFaultFreeCC repeats the contract for the CC
// kernel, whose int64 labels admit exact comparison.
func TestChaosKillMatchesFaultFreeCC(t *testing.T) {
	t.Run(oneShard, func(t *testing.T) {
		g := gen.SmallWorld(400, 2, 0.05, false, 2)
		p := mustPartition(t, g, 4, partition.Hash{})
		base, err := core.Run(p, cc.Job(), core.Options{Mode: core.AAP, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(p, cc.Job(), chaosOpts(43, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Recoveries < 1 {
			t.Fatalf("kill scheduled but no recovery ran (recoveries=%d)", res.Stats.Recoveries)
		}
		for v := range base.Values {
			if base.Values[v] != res.Values[v] {
				t.Fatalf("vertex %d: fault-free cid %d, recovered %d", v, base.Values[v], res.Values[v])
			}
		}
	})
}

// TestChaosKillMatchesFaultFreePageRank: PageRank's sum aggregate is
// not schedule-independent at the bit level (floating-point addition
// order varies across legal executions), so the recovered run is held
// to the same tolerance the differential tests use rather than bitwise
// equality.
func TestChaosKillMatchesFaultFreePageRank(t *testing.T) {
	t.Run(oneShard, func(t *testing.T) {
		g := gen.PowerLaw(300, 5, 2.1, false, 3)
		p := mustPartition(t, g, 4, partition.Range{})
		job := pagerank.Job(pagerank.Config{Tol: 1e-10})
		base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(p, job, chaosOpts(44, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Recoveries < 1 {
			t.Fatalf("kill scheduled but no recovery ran (recoveries=%d)", res.Stats.Recoveries)
		}
		for v := range base.Values {
			if d := math.Abs(base.Values[v] - res.Values[v]); d > 1e-6 {
				t.Fatalf("vertex %d: fault-free %v, recovered %v (|Δ|=%g)", v, base.Values[v], res.Values[v], d)
			}
		}
	})
}

// TestKillBeforeAnySealRestartsFresh: with no checkpointing configured
// the rollback has no sealed snapshot and must restart the computation
// from scratch — fresh programs, PEval again — and still land on the
// fault-free answer.
func TestKillBeforeAnySealRestartsFresh(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 5)
	p := mustPartition(t, g, 4, partition.Hash{})
	base, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, sssp.Job(0), core.Options{
		Mode:     core.AAP,
		Deadline: time.Minute,
		Faults:   &core.Faults{Kill: &core.KillSpec{Worker: 2, Round: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("kill scheduled but no recovery ran (recoveries=%d)", res.Stats.Recoveries)
	}
	for v := range base.Values {
		if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
			t.Fatalf("vertex %d: fault-free %v, restarted %v", v, b, r)
		}
	}
}

// TestCheckpointDoesNotPerturb: enabling snapshots, every round or
// every fourth, must not change the answer of a fault-free run, and the
// every-round run must actually seal epochs.
func TestCheckpointDoesNotPerturb(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 1)
	p := mustPartition(t, g, 4, partition.Hash{})
	base, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int32{1, 4} {
		res, err := core.Run(p, sssp.Job(0), core.Options{
			Mode:       core.AAP,
			Deadline:   time.Minute,
			Checkpoint: core.CheckpointOptions{EveryRounds: every},
		})
		if err != nil {
			t.Fatal(err)
		}
		if every == 1 && res.Stats.Checkpoints < 1 {
			t.Errorf("no snapshot epoch sealed")
		}
		if res.Stats.Checkpoints > 0 && res.Stats.CheckpointBytes == 0 {
			t.Errorf("every=%d: sealed %d epochs but recorded 0 state bytes", every, res.Stats.Checkpoints)
		}
		if res.Stats.Recoveries != 0 {
			t.Errorf("every=%d: fault-free run performed %d recoveries", every, res.Stats.Recoveries)
		}
		for v := range base.Values {
			if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
				t.Fatalf("every=%d, vertex %d: plain %v, checkpointed %v", every, v, b, r)
			}
		}
	}
}

// TestDuplicateAndDelaySafeForMinFold: duplicated and delayed batches
// must leave an idempotent min-fold kernel bit-identical to the
// fault-free run and must not break termination accounting.
func TestDuplicateAndDelaySafeForMinFold(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 7)
	p := mustPartition(t, g, 4, partition.Hash{})
	base, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, sssp.Job(0), core.Options{
		Mode:     core.AAP,
		Deadline: time.Minute,
		Faults: &core.Faults{
			Seed:      9,
			DupProb:   0.3,
			DelayProb: 0.3,
			DelayBy:   time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Values {
		if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
			t.Fatalf("vertex %d: fault-free %v, under dup/delay %v", v, b, r)
		}
	}
}

// TestDropLiveness: dropping batches voids the determinism contract
// (the lost update never arrives), but the termination counters are
// compensated, so the run must still end cleanly.
func TestDropLiveness(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 8)
	p := mustPartition(t, g, 4, partition.Hash{})
	res, err := core.Run(p, sssp.Job(0), core.Options{
		Mode:     core.AAP,
		Deadline: time.Minute,
		Faults:   &core.Faults{Seed: 11, DropProb: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Values) != g.NumVertices() {
		t.Fatal("lossy run returned no result")
	}
}

// bomb panics in IncEval — on the worker's own goroutine, or inside
// shard `shard` of a par.Do fan-out the program starts itself when
// shard >= 0: regression test that a program panic is contained into a
// run error naming the worker and round instead of crashing the process,
// wherever the program was when it blew up.
type bomb struct {
	f     *partition.Fragment
	shard int
}

func (b *bomb) PEval(ctx *core.Context[float64]) {
	for _, v := range b.f.Copies() {
		ctx.Send(v, 1)
	}
}

func (b *bomb) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	if b.shard < 0 {
		panic("kaboom")
	}
	par.Do(3, func(w int) {
		if w == b.shard {
			panic("kaboom")
		}
	})
}

func (b *bomb) Get(int32) float64 { return 0 }

func TestWorkerPanicContained(t *testing.T) {
	g := gen.Grid(10, 10, 2)
	p := mustPartition(t, g, 2, partition.Hash{})
	for _, shard := range []int{-1, 0, 2} {
		job := core.Job[float64]{
			Name:      "bomb",
			New:       func(f *partition.Fragment) core.Program[float64] { return &bomb{f: f, shard: shard} },
			Aggregate: math.Min,
		}
		_, err := core.Run(p, job, core.Options{Deadline: 30 * time.Second})
		if err == nil {
			t.Fatalf("shard %d: panicking worker produced no error", shard)
		}
		// Every worker's first IncEval is its round 1.
		if ok, _ := regexp.MatchString(`worker [01] panicked at round 1: kaboom`, err.Error()); !ok {
			t.Fatalf("shard %d: panic not attributed to a worker and round: %v", shard, err)
		}
	}
}

// TestCheckpointRequiresSnapshotter: enabling checkpoints against a job
// whose programs cannot snapshot must fail up front, not at the first
// epoch.
func TestCheckpointRequiresSnapshotter(t *testing.T) {
	g := gen.Grid(8, 8, 1)
	p := mustPartition(t, g, 2, partition.Hash{})
	job := core.Job[float64]{
		Name:      "bomb",
		New:       func(f *partition.Fragment) core.Program[float64] { return &bomb{f: f} },
		Aggregate: math.Min,
	}
	_, err := core.Run(p, job, core.Options{
		Deadline:   30 * time.Second,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "Snapshotter") {
		t.Fatalf("want Snapshotter requirement error, got %v", err)
	}
}

// TestDeadlinePartialResult: a stalled worker keeps the run from ever
// terminating; Deadline must hand back the partial result wrapped in
// context.DeadlineExceeded instead of aborting with nothing.
func TestDeadlinePartialResult(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, true, 4)
	p := mustPartition(t, g, 4, partition.Hash{})
	res, err := core.Run(p, sssp.Job(0), core.Options{
		Mode:     core.AAP,
		Deadline: 200 * time.Millisecond,
		Faults: &core.Faults{
			Stall: &core.StallSpec{Worker: 0, Round: 0, For: time.Minute},
		},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if res == nil {
		t.Fatal("deadline returned no partial result")
	}
	if len(res.Values) != g.NumVertices() {
		t.Fatalf("partial result has %d values, want %d", len(res.Values), g.NumVertices())
	}
	if res.Stats.Seconds <= 0 {
		t.Errorf("partial result missing stats")
	}
}

// TestDeadlineVerdictFromClock: a run that ends at or past its Deadline
// wraps context.DeadlineExceeded, however the termination and the timer
// race. At 1 ns every run of a 2-vertex grid ends past it, and in a few
// of these runs the termination and the timer are ready together, where
// the verdict must not depend on which one select picks.
func TestDeadlineVerdictFromClock(t *testing.T) {
	p := mustPartition(t, gen.Grid(1, 2, 1), 1, partition.Hash{})
	for i := range 20000 {
		res, err := core.Run(p, sssp.Job(0), core.Options{Deadline: time.Nanosecond})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: want context.DeadlineExceeded, got %v", i, err)
		}
		if res == nil || len(res.Values) != 2 {
			t.Fatalf("run %d: want the partial result, got %v", i, res)
		}
	}
}

// TestUnquiescedRecoveryEndsAtDeadline: a worker killed while every batch
// is delayed past the deadline waits for a quiescence that never comes
// before the deadline. Run returns there, with no recovery, and the late
// landings after it start no rollback: with no sealed snapshot, one would
// rebuild every Program.
func TestUnquiescedRecoveryEndsAtDeadline(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, true, 4)
	p := mustPartition(t, g, 4, partition.Hash{})
	var built atomic.Int64
	job := sssp.Job(0)
	newProg := job.New
	job.New = func(f *partition.Fragment) core.Program[float64] {
		built.Add(1)
		return newProg(f)
	}
	const deadline, delay = 200 * time.Millisecond, 600 * time.Millisecond
	t0 := time.Now()
	res, err := core.Run(p, job, core.Options{
		Mode:     core.AAP,
		Deadline: deadline,
		Faults: &core.Faults{
			Kill:      &core.KillSpec{Worker: 1, Round: 0},
			DelayProb: 1,
			DelayBy:   delay,
		},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if took := time.Since(t0); took >= delay {
		t.Fatalf("Run returned after %v, past the %v delay: it waited for the landings", took, delay)
	}
	if res.Stats.Recoveries != 0 {
		t.Fatalf("recoveries = %d with every batch still in flight, want 0", res.Stats.Recoveries)
	}
	n := built.Load()
	time.Sleep(delay + 200*time.Millisecond - time.Since(t0))
	if got := built.Load(); got != n {
		t.Fatalf("a rollback ran after Run returned: %d Programs built, then %d", n, got)
	}
}
