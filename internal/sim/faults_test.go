package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
	"aap/internal/sim"
)

// composedPlan draws seed's fault plan for a run whose fault-free
// schedule took rounds[i] rounds at worker i: the victim and its kill
// round (a quarter to three eighths into the victim's rounds: late
// enough for a sealed epoch, early enough that the victim reaches it
// under these plans), a stalled worker, a delay and a duplicate probability, and a
// checkpoint every one to three rounds. It adds the stall and the
// duplicates only for an idempotent fold: a sum fold gets Kill and Delay.
func composedPlan(seed int64, rounds []int32, idempotent bool) core.Options {
	r := rand.New(rand.NewSource(seed))
	m := len(rounds)
	victim := r.Intn(m)
	lo := rounds[victim] / 4
	f := &core.Faults{
		Seed:      seed,
		Kill:      &core.KillSpec{Worker: victim, Round: lo + r.Int31n(rounds[victim]*3/8-lo+1)},
		DelayProb: r.Float64() / 2,
		DelayBy:   time.Duration(1+r.Intn(20)) * time.Millisecond,
	}
	if idempotent {
		f.Stall = &core.StallSpec{Worker: r.Intn(m), Round: r.Int31n(3), For: time.Duration(1+r.Intn(50)) * time.Millisecond}
		f.DupProb = r.Float64() / 3
	}
	return core.Options{Mode: core.AAP, Faults: f, Checkpoint: core.CheckpointOptions{EveryRounds: 1 + r.Int31n(3)}}
}

// runComposed runs every seed's composed plan of job over p in virtual
// time and hands same the fault-free and the recovered values. For every
// seed a kill must have been recovered from, and running the seed again
// must reproduce its RunStats exactly; most seeds must have rolled back
// to a sealed snapshot rather than restarted from scratch. A failing
// seed names itself and its plan.
func runComposed[T any](t *testing.T, p *partition.Partitioned, job core.Job[T], seeds int, idempotent bool, same func(base, got []T) bool) {
	t.Helper()
	base, err := sim.Run(p, job, sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]int32, p.M)
	for i, w := range base.Stats.Workers {
		rounds[i] = w.Rounds
	}
	sealed := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := sim.Config{Options: composedPlan(seed, rounds, idempotent)}
		f := cfg.Options.Faults
		plan := fmt.Sprintf("{kill %+v stall %+v delay %.3f by %v dup %.3f, checkpoint every %d}",
			*f.Kill, f.Stall, f.DelayProb, f.DelayBy, f.DupProb, cfg.Options.Checkpoint.EveryRounds)
		res, err := sim.Run(p, job, cfg)
		if err != nil {
			t.Errorf("%s seed %d %s: %v", job.Name, seed, plan, err)
			continue
		}
		again, err := sim.Run(p, job, cfg)
		switch {
		case err != nil:
			t.Errorf("%s seed %d %s, run again: %v", job.Name, seed, plan, err)
		case res.Stats.Recoveries < 1:
			t.Errorf("%s seed %d %s: no recovery ran", job.Name, seed, plan)
		case !same(base.Values, res.Values):
			t.Errorf("%s seed %d %s: recovered values differ from the fault-free run", job.Name, seed, plan)
		case !reflect.DeepEqual(res.Stats, again.Stats):
			t.Errorf("%s seed %d %s: run again, RunStats %+v, then %+v", job.Name, seed, plan, res.Stats, again.Stats)
		}
		if res.Stats.FreshRestarts == 0 {
			sealed++
		}
	}
	if sealed < seeds/2 {
		t.Errorf("%s: %d of %d seeds rolled back to a sealed snapshot, want at least half", job.Name, sealed, seeds)
	}
}

// TestComposedFaultsVirtual is the determinism contract under composed
// faults, replayed in virtual time: per seed a kill (victim and round
// from the seed), a stall, delayed and duplicated batches and a
// checkpoint every one to three rounds. SSSP and CC must come out
// bit-identical to the fault-free run; PageRank, whose sum fold is not
// duplicate-safe, runs kills and delays only and stays within 1e-4.
func TestComposedFaultsVirtual(t *testing.T) {
	bits := func(base, got []float64) bool {
		for v := range base {
			if math.Float64bits(base[v]) != math.Float64bits(got[v]) {
				return false
			}
		}
		return true
	}
	t.Run("sssp", func(t *testing.T) {
		p := mustPartition(t, gen.Grid(12, 12, 2), 4, partition.Hash{})
		runComposed(t, p, sssp.Job(0), 200, true, bits)
	})
	t.Run("cc", func(t *testing.T) {
		p := mustPartition(t, gen.RoadNet(12, 12, 2), 4, partition.Hash{})
		runComposed(t, p, cc.Job(), 200, true, func(base, got []int64) bool { return reflect.DeepEqual(base, got) })
	})
	t.Run("pagerank", func(t *testing.T) {
		p := mustPartition(t, gen.PowerLaw(200, 5, 2.1, false, 3), 4, partition.Range{})
		runComposed(t, p, pagerank.Job(pagerank.Config{Tol: 1e-7}), 50, false, func(base, got []float64) bool {
			for v := range base {
				if math.Abs(base[v]-got[v]) > 1e-4 {
					return false
				}
			}
			return true
		})
	})
}
