package sim_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/checkpoint"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
	"aap/internal/sim"
)

// seededDisk is the durable store's filesystem with one seeded failure:
// the k-th record file it is asked to create fails to open, and fired
// says whether that happened. A virtual run is one goroutine, so it
// counts without a lock.
type seededDisk struct {
	checkpoint.FS
	k, opens int
	fired    bool
}

func (d *seededDisk) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	if flag&os.O_CREATE != 0 {
		if d.opens++; d.opens == d.k {
			d.fired = true
			return nil, errors.New("seeded disk failure")
		}
	}
	return d.FS.OpenFile(name, flag, perm)
}

// composedPlan draws seed's fault plan for a run whose fault-free
// schedule took rounds[i] rounds at worker i: the victim and its kill
// round (a quarter to three eighths into the victim's rounds: late
// enough for a sealed epoch, early enough that the victim reaches it
// under these plans), a stalled worker, a delay and a duplicate probability, and a
// checkpoint every one to three rounds. It adds the stall and the
// duplicates only for an idempotent fold: a sum fold gets Kill and Delay.
// Given a dir, the snapshots go to records there too, on a seededDisk
// whose failing open is drawn last, from the first 24: some runs write
// fewer records than that, so their disk never fails.
func composedPlan(seed int64, rounds []int32, idempotent bool, dir string) core.Options {
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
	opts := core.Options{Mode: core.AAP, Faults: f, Checkpoint: core.CheckpointOptions{EveryRounds: 1 + r.Int31n(3)}}
	if dir != "" {
		opts.Checkpoint.Dir, f.Disk = dir, &seededDisk{FS: checkpoint.OsFS(), k: 1 + r.Intn(24)}
	}
	return opts
}

// runComposed runs every seed's composed plan of job over p in virtual
// time and hands same the fault-free and the recovered values. For every
// seed a kill must have been recovered from, and running the seed again
// must reproduce its RunStats exactly; most seeds must have rolled back
// to a sealed snapshot rather than restarted from scratch. Given a dir,
// every seed also writes its records there on a seededDisk: the run must
// report DurableDegraded exactly when the disk failed, and when it did
// not, Resume on the real engine from the records the seed's second run
// left must give the fault-free values. A failing seed names itself and
// its plan.
func runComposed[T any](t *testing.T, p *partition.Partitioned, job core.Job[T], seeds int, idempotent bool, dir string, same func(base, got []T) bool) {
	t.Helper()
	base, err := sim.Run(p, job, sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]int32, p.M)
	for i, w := range base.Stats.Workers {
		rounds[i] = w.Rounds
	}
	sealed, failed := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := sim.Config{Options: composedPlan(seed, rounds, idempotent, dir)}
		f := cfg.Options.Faults
		plan := fmt.Sprintf("{kill %+v stall %+v delay %.3f by %v dup %.3f, checkpoint every %d}",
			*f.Kill, f.Stall, f.DelayProb, f.DelayBy, f.DupProb, cfg.Options.Checkpoint.EveryRounds)
		disk, _ := f.Disk.(*seededDisk)
		if disk != nil {
			plan = fmt.Sprintf("%s{disk fails open %d}", plan, disk.k)
		}
		res, err := sim.Run(p, job, cfg)
		if err != nil {
			t.Errorf("%s seed %d %s: %v", job.Name, seed, plan, err)
			continue
		}
		// A fresh plan: the seeded disk counts its opens from zero again.
		again, err := sim.Run(p, job, sim.Config{Options: composedPlan(seed, rounds, idempotent, dir)})
		switch {
		case err != nil:
			t.Errorf("%s seed %d %s, run again: %v", job.Name, seed, plan, err)
		case res.Stats.Recoveries < 1:
			t.Errorf("%s seed %d %s: no recovery ran", job.Name, seed, plan)
		case !same(base.Values, res.Values):
			t.Errorf("%s seed %d %s: recovered values differ from the fault-free run", job.Name, seed, plan)
		case !reflect.DeepEqual(res.Stats, again.Stats):
			t.Errorf("%s seed %d %s: run again, RunStats %+v, then %+v", job.Name, seed, plan, res.Stats, again.Stats)
		case disk != nil && disk.fired != (res.Stats.DurableDegraded != ""):
			t.Errorf("%s seed %d %s: disk failed %v, DurableDegraded %q", job.Name, seed, plan, disk.fired, res.Stats.DurableDegraded)
		case disk != nil && !disk.fired:
			got, err := core.Resume(p, job, core.Options{Mode: core.AAP, Checkpoint: core.CheckpointOptions{Dir: dir}})
			if err != nil || !same(base.Values, got.Values) {
				t.Errorf("%s seed %d %s: Resume from its records: %v, or values differ from the fault-free run", job.Name, seed, plan, err)
			}
		}
		if res.Stats.FreshRestarts == 0 {
			sealed++
		}
		if disk != nil && disk.fired {
			failed++
		}
	}
	if sealed < seeds/2 {
		t.Errorf("%s: %d of %d seeds rolled back to a sealed snapshot, want at least half", job.Name, sealed, seeds)
	}
	if dir != "" && (failed == 0 || failed == seeds) {
		t.Errorf("%s: the disk failed in %d of %d seeds, want some of each", job.Name, failed, seeds)
	}
}

// TestComposedFaultsVirtual is the determinism contract under composed
// faults, replayed in virtual time: per seed a kill (victim and round
// from the seed), a stall, delayed and duplicated batches and a
// checkpoint every one to three rounds. SSSP and CC must come out
// bit-identical to the fault-free run; PageRank, whose sum fold is not
// duplicate-safe, runs kills and delays only and stays within 1e-4. The
// durable subtests add each seed's records and a seeded disk failure to
// SSSP's and CC's plans.
func TestComposedFaultsVirtual(t *testing.T) {
	bits := func(base, got []float64) bool {
		for v := range base {
			if math.Float64bits(base[v]) != math.Float64bits(got[v]) {
				return false
			}
		}
		return true
	}
	ssspPart := func(t *testing.T) *partition.Partitioned {
		return mustPartition(t, gen.Grid(12, 12, 2), 4, partition.Hash{})
	}
	ccPart := func(t *testing.T) *partition.Partitioned {
		return mustPartition(t, gen.RoadNet(12, 12, 2), 4, partition.Hash{})
	}
	ids := func(base, got []int64) bool { return reflect.DeepEqual(base, got) }
	t.Run("sssp", func(t *testing.T) {
		runComposed(t, ssspPart(t), sssp.Job(0), 200, true, "", bits)
	})
	t.Run("cc", func(t *testing.T) {
		runComposed(t, ccPart(t), cc.Job(), 200, true, "", ids)
	})
	t.Run("durable/sssp", func(t *testing.T) {
		runComposed(t, ssspPart(t), sssp.Job(0), 100, true, t.TempDir(), bits)
	})
	t.Run("durable/cc", func(t *testing.T) {
		runComposed(t, ccPart(t), cc.Job(), 100, true, t.TempDir(), ids)
	})
	t.Run("pagerank", func(t *testing.T) {
		p := mustPartition(t, gen.PowerLaw(200, 5, 2.1, false, 3), 4, partition.Range{})
		runComposed(t, p, pagerank.Job(pagerank.Config{Tol: 1e-7}), 50, false, "", func(base, got []float64) bool {
			for v := range base {
				if math.Abs(base[v]-got[v]) > 1e-4 {
					return false
				}
			}
			return true
		})
	})
}
