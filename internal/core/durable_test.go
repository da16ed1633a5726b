package core_test

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/checkpoint"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
)

// The durable tests exercise the whole-process crash story: a victim
// process (this test binary re-exec'd into TestHelperDurableVictim)
// runs a checkpointed job against a shared directory, the parent
// SIGKILLs it mid-execution, and core.Resume must continue from the
// newest sealed record bit-identically to the fault-free run.

const (
	durableDirEnv      = "AAP_DURABLE_DIR"
	durableAlgoEnv     = "AAP_DURABLE_ALGO"
	durableArtifactEnv = "AAP_DURABLE_ARTIFACT_DIR"
)

// durableDir places checkpoint directories under the CI artifact root
// when one is configured (so a failing run's records get uploaded), and
// under the test's temp dir otherwise. Passing tests clean up after
// themselves either way; failing ones leave the directory for autopsy.
func durableDir(t *testing.T) string {
	root := os.Getenv(durableArtifactEnv)
	if root == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, strings.ReplaceAll(t.Name(), "/", "_")+"-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// durableRunOpts is the canonical durable configuration of these tests:
// a snapshot every round, teed to dir, with enough retained epochs that
// corrupting the newest always leaves a fallback.
func durableRunOpts(dir string) core.Options {
	return core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1, Dir: dir, Retain: 8},
	}
}

func ccTestPartition(t testing.TB) *partition.Partitioned {
	t.Helper()
	g := gen.SmallWorld(400, 2, 0.05, false, 2)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func prTestPartition(t testing.TB) *partition.Partitioned {
	t.Helper()
	g := gen.PowerLaw(300, 5, 2.1, false, 3)
	p, err := partition.Build(g, 4, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHelperDurableVictim is not a test: it is the process the parent
// SIGKILLs. It runs the configured job with a checkpoint every round
// teed to the shared directory, slightly slowed so the kill reliably
// lands mid-execution.
func TestHelperDurableVictim(t *testing.T) {
	dir := os.Getenv(durableDirEnv)
	if dir == "" {
		t.Skip("helper process for the durable resume tests")
	}
	var err error
	opts := durableRunOpts(dir)
	opts.Faults = &core.Faults{DelayProb: 1, DelayBy: 2 * time.Millisecond}
	switch algo := os.Getenv(durableAlgoEnv); algo {
	case "sssp":
		_, err = core.Run(remoteTestPartition(t), sssp.Job(0), opts)
	case "cc":
		_, err = core.Run(ccTestPartition(t), cc.Job(), opts)
	case "pagerank":
		_, err = core.Run(prTestPartition(t), pagerank.Job(pagerank.Config{Tol: 1e-10}), opts)
	default:
		t.Fatalf("unknown victim algo %q", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func spawnDurableVictim(t *testing.T, dir, algo string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestHelperDurableVictim$", "-test.timeout", "2m")
	cmd.Env = append(os.Environ(),
		durableDirEnv+"="+dir,
		durableAlgoEnv+"="+algo,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// waitForSeal polls the directory until a record for at least epoch min
// decodes cleanly. The victim may finish and exit before the kill — its
// records persist, so resume is still exercised, just from the final
// epoch.
func waitForSeal(t *testing.T, dir string, min int32, timeout time.Duration) int32 {
	t.Helper()
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e, _, err := d.NewestSealed(); err == nil && e >= min {
			return e
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("no sealed epoch >= %d appeared in %s within %v", min, dir, timeout)
	return 0
}

func sigkill(cmd *exec.Cmd) {
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
}

func sameFloats(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for v := range want {
		if b, r := want[v], got[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
			t.Fatalf("%s: vertex %d: fault-free %v, resumed %v", label, v, b, r)
		}
	}
}

// TestDurableProcessKillResume is the headline contract: SIGKILL the
// whole process mid-execution, resume from the checkpoint directory in
// a fresh engine, land bit-identical to the fault-free run.
func TestDurableProcessKillResume(t *testing.T) {
	p := remoteTestPartition(t)
	job := remoteTestJob()
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	dir := durableDir(t)
	cmd := spawnDurableVictim(t, dir, "sssp")
	waitForSeal(t, dir, 1, 30*time.Second)
	sigkill(cmd)

	res, err := core.Resume(p, job, durableRunOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ResumeEpoch < 1 {
		t.Fatalf("resume reported epoch %d, want >= 1", st.ResumeEpoch)
	}
	if st.ResumeBytes <= 0 {
		t.Fatalf("resume read %d bytes, want > 0", st.ResumeBytes)
	}
	if st.ResumeSeconds <= 0 {
		t.Fatalf("resume seconds %v, want > 0", st.ResumeSeconds)
	}
	sameFloats(t, base.Values, res.Values, "sigkill+resume")
}

// TestDurableProcessKillResumePageRank holds the non-idempotent
// aggregate to the tolerance contract: resumed PageRank scores within
// 1e-4 relative of the fault-free run.
func TestDurableProcessKillResumePageRank(t *testing.T) {
	p := prTestPartition(t)
	cfg := pagerank.Config{Tol: 1e-10}
	base, err := core.Run(p, pagerank.Job(cfg), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	dir := durableDir(t)
	cmd := spawnDurableVictim(t, dir, "pagerank")
	waitForSeal(t, dir, 1, 30*time.Second)
	sigkill(cmd)

	res, err := core.Resume(p, pagerank.Job(cfg), durableRunOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResumeEpoch < 1 {
		t.Fatalf("resume reported epoch %d, want >= 1", res.Stats.ResumeEpoch)
	}
	for v := range base.Values {
		b, r := base.Values[v], res.Values[v]
		if d := math.Abs(b - r); d > 1e-4*math.Max(math.Abs(b), 1e-12) {
			t.Fatalf("vertex %d: fault-free %v, resumed %v (rel Δ too large)", v, b, r)
		}
	}
}

// TestDurableKillResumeKill pins the recovery-then-checkpoint
// interleaving (kill → resume → kill): a second fault after a
// successful resume must recover from the post-resume seal — the
// resumed engine's store was seeded, so rollback has a cut to return to
// even before it seals a fresh epoch — and still land bit-identical,
// across both exactly-comparable kernels.
func TestDurableKillResumeKill(t *testing.T) {
	t.Run("sssp/"+oneShard, func(t *testing.T) {
		p := remoteTestPartition(t)
		job := sssp.Job(0)
		base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		res := killResumeKill(t, "sssp", func(dir string) (*core.Result[float64], error) {
			return core.Resume(p, job, resumeWithKill(dir))
		})
		sameFloats(t, base.Values, res.Values, "kill-resume-kill")
	})
	t.Run("cc/"+oneShard, func(t *testing.T) {
		p := ccTestPartition(t)
		job := cc.Job()
		base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		res := killResumeKill(t, "cc", func(dir string) (*core.Result[int64], error) {
			return core.Resume(p, job, resumeWithKill(dir))
		})
		for v := range base.Values {
			if base.Values[v] != res.Values[v] {
				t.Fatalf("vertex %d: fault-free cid %d, resumed %d", v, base.Values[v], res.Values[v])
			}
		}
	})
}

// resumeWithKill schedules the second fault: worker 1 dies at its first
// post-resume safe point with rounds >= 1 (always true after a resumed
// epoch or a re-run PEval), forcing a rollback inside the resumed run.
func resumeWithKill(dir string) core.Options {
	opts := durableRunOpts(dir)
	opts.Faults = &core.Faults{
		Seed: 42,
		Kill: &core.KillSpec{Worker: 1, Round: 1},
	}
	return opts
}

func killResumeKill[T any](t *testing.T, algo string, resume func(dir string) (*core.Result[T], error)) *core.Result[T] {
	t.Helper()
	dir := durableDir(t)
	cmd := spawnDurableVictim(t, dir, algo)
	waitForSeal(t, dir, 1, 30*time.Second)
	sigkill(cmd)
	res, err := resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResumeEpoch < 1 {
		t.Fatalf("resume reported epoch %d, want >= 1", res.Stats.ResumeEpoch)
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("second kill scheduled but no recovery ran (recoveries=%d)", res.Stats.Recoveries)
	}
	return res
}

// corruptNewest truncates or bit-flips the newest record in dir and
// returns its epoch, so resume must fall back to an older seal.
func corruptNewest(t *testing.T, dir string, truncate bool) int32 {
	t.Helper()
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	es := d.Epochs()
	if len(es) < 2 {
		t.Fatalf("need >= 2 epochs on disk to test fallback, have %v", es)
	}
	newest := es[len(es)-1]
	p := filepath.Join(dir, checkpoint.RecordFile(newest))
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if truncate {
		b = b[:len(b)*2/3]
	} else {
		b[len(b)-5] ^= 0x20
	}
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return newest
}

func copyDurableDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableCorruptionFallback: resume against a directory whose
// newest record is torn (truncated) or bit-flipped must fall back to
// the previous sealed epoch and still complete bit-identically.
func TestDurableCorruptionFallback(t *testing.T) {
	p := remoteTestPartition(t)
	job := remoteTestJob()
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := durableRunOpts(dir)
	opts.Faults = &core.Faults{DelayProb: 1, DelayBy: time.Millisecond} // more rounds in flight => several sealed epochs
	if _, err := core.Run(p, job, opts); err != nil {
		t.Fatal(err)
	}

	t.Run("intact", func(t *testing.T) {
		res, err := core.Resume(p, job, durableRunOpts(copyDurableDir(t, dir)))
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, base.Values, res.Values, "resume from final epoch")
	})
	for _, tc := range []struct {
		name     string
		truncate bool
	}{{"truncated", true}, {"bitflipped", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cdir := copyDurableDir(t, dir)
			newest := corruptNewest(t, cdir, tc.truncate)
			res, err := core.Resume(p, job, durableRunOpts(cdir))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.ResumeEpoch >= newest {
				t.Fatalf("resumed from epoch %d, want fallback below corrupted %d", res.Stats.ResumeEpoch, newest)
			}
			if res.Stats.ResumeEpoch < 1 {
				t.Fatalf("no fallback epoch used: %d", res.Stats.ResumeEpoch)
			}
			sameFloats(t, base.Values, res.Values, tc.name)
		})
	}
}

// TestDurableResumeRemoteTCP: Resume with the TCP plane and worker 1's
// Program hosted in a child process — the restore travels over RPC —
// from a fallback epoch (the newest record is corrupted first, so the
// resumed run really re-executes rounds across the wire).
func TestDurableResumeRemoteTCP(t *testing.T) {
	p := remoteTestPartition(t)
	job := remoteTestJob()
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := durableRunOpts(dir)
	full.Faults = &core.Faults{DelayProb: 1, DelayBy: time.Millisecond}
	if _, err := core.Run(p, job, full); err != nil {
		t.Fatal(err)
	}
	newest := corruptNewest(t, dir, true)

	var cmd *exec.Cmd
	topts := remoteTopts()
	topts.RemoteWorkers = []int{remoteVictim}
	topts.OnListen = func(addr string) { cmd = spawnRemoteWorker(t, remoteVictim, addr) }
	opts := durableRunOpts(dir)
	opts.Transport = &topts
	res, err := core.Resume(p, job, opts)
	if cmd != nil {
		defer sigkill(cmd)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResumeEpoch < 1 || res.Stats.ResumeEpoch >= newest {
		t.Fatalf("resumed from epoch %d, want a fallback in [1, %d)", res.Stats.ResumeEpoch, newest)
	}
	sameFloats(t, base.Values, res.Values, "tcp remote resume")
}

// TestResumeErrors pins the failure modes: no directory configured, an
// empty directory (ErrNoSealedEpoch by name), and a snapshot whose
// worker count disagrees with the partition.
func TestResumeErrors(t *testing.T) {
	p := remoteTestPartition(t)
	job := remoteTestJob()

	if _, err := core.Resume(p, job, core.Options{Mode: core.AAP}); err == nil || !strings.Contains(err.Error(), "Checkpoint.Dir") {
		t.Fatalf("resume without a dir: err = %v", err)
	}

	empty := durableRunOpts(t.TempDir())
	if _, err := core.Resume(p, job, empty); !errors.Is(err, checkpoint.ErrNoSealedEpoch) {
		t.Fatalf("resume from empty dir: err = %v, want ErrNoSealedEpoch", err)
	}

	// A 4-worker run's snapshot cannot seed a 2-worker partition.
	dir := t.TempDir()
	if _, err := core.Run(p, job, durableRunOpts(dir)); err != nil {
		t.Fatal(err)
	}
	g := gen.PowerLaw(500, 6, 2.1, true, 1)
	p2, err := partition.Build(g, 2, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Resume(p2, job, durableRunOpts(dir)); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("worker-count mismatch: err = %v", err)
	}
}

// otherSourceJob is an SSSP job whose answer differs from
// remoteTestJob's on most vertices of remoteTestPartition, so a record of
// one run adopted by the other shows.
func otherSourceJob() core.Job[float64] { return sssp.Job(7) }

// TestRollbackIgnoresAnotherRunsRecords: rollback reads only the
// snapshots this run sealed in memory. A run from source 0 leaves its
// records in dir; a fresh run from another source in the same dir,
// checkpointing too rarely to seal in memory, loses worker 1 at round 1.
// It must restart fresh and end bit-identical to its fault-free answer,
// not resume the other run's cut.
func TestRollbackIgnoresAnotherRunsRecords(t *testing.T) {
	p := remoteTestPartition(t)
	job := otherSourceJob()
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := core.Run(p, remoteTestJob(), durableRunOpts(dir)); err != nil {
		t.Fatal(err)
	}

	opts := durableRunOpts(dir)
	opts.Checkpoint.EveryRounds = 1 << 20 // no epoch is announced, so none seals in memory
	opts.Faults = &core.Faults{Kill: &core.KillSpec{Worker: 1, Round: 1}}
	res, err := core.Run(p, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries != 1 || res.Stats.FreshRestarts != 1 {
		t.Fatalf("kill before any seal: %d recoveries, %d fresh restarts; want 1 and 1", res.Stats.Recoveries, res.Stats.FreshRestarts)
	}
	sameFloats(t, base.Values, res.Values, "rollback beside another run's records")
}

// TestResumeAfterShorterRun: a fresh run owns its directory. A longer
// run from source 0 seals many epochs in dir; a shorter run from another
// source then seals fewer there. Resume must restart from one of the
// shorter run's seals and land bit-identical to its fault-free answer.
func TestResumeAfterShorterRun(t *testing.T) {
	p := remoteTestPartition(t)
	job := otherSourceJob()
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	long := durableRunOpts(dir)
	long.Faults = &core.Faults{DelayProb: 1, DelayBy: time.Millisecond} // more rounds in flight => more sealed epochs
	first, err := core.Run(p, remoteTestJob(), long)
	if err != nil {
		t.Fatal(err)
	}
	short := durableRunOpts(dir)
	short.Checkpoint.EveryRounds = 4
	second, err := core.Run(p, job, short)
	if err != nil {
		t.Fatal(err)
	}
	sealed := int32(second.Stats.Checkpoints)
	if sealed < 1 || int32(first.Stats.Checkpoints) <= sealed {
		t.Fatalf("want a longer run then a shorter one: %d then %d sealed epochs", first.Stats.Checkpoints, sealed)
	}

	res, err := core.Resume(p, job, durableRunOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ep := res.Stats.ResumeEpoch; ep < 1 || ep > sealed {
		t.Fatalf("resumed from epoch %d; the shorter run sealed epochs 1..%d", ep, sealed)
	}
	sameFloats(t, base.Values, res.Values, "resume after a shorter run")
}

// TestResumeRefusesVersion1 hand-writes the records a version-1 run left
// — a valid envelope and CRC over flights whose messages carry a round
// and a sender after the vertex — and pins that they fail closed: the
// envelope names the version, and Resume over a directory of nothing else
// finds no sealed epoch instead of misreading the flights.
func TestResumeRefusesVersion1(t *testing.T) {
	p := remoteTestPartition(t)
	job := remoteTestJob()
	v1Msg := func(dst []byte, v int32) []byte {
		dst = codec.AppendInt32(dst, v)
		dst = codec.AppendInt32(dst, 3) // round
		dst = codec.AppendInt32(dst, 1) // sender
		return codec.AppendFloat64(dst, 2.5)
	}
	snap := &checkpoint.Snapshot[int32]{
		Rounds:    make([]int32, p.M),
		PEvalDone: make([]bool, p.M),
		InFlight:  []checkpoint.Flight[int32]{{From: 1, To: 0, Msgs: []int32{p.Frags[0].Lo, p.Frags[0].Lo + 1}}},
	}
	for i, f := range p.Frags {
		snap.States = append(snap.States, job.New(f).(core.Snapshotter).SnapshotState())
		snap.Rounds[i], snap.PEvalDone[i] = 4, true
	}
	payload := checkpoint.EncodeSnapshot(snap, v1Msg)
	record := func(version uint32, epoch int32) []byte {
		rec := codec.AppendUint32(nil, 0x43504141) // "AAPC"
		rec = codec.AppendUint32(rec, version)
		rec = codec.AppendInt32(rec, epoch)
		rec = codec.AppendUint32(rec, uint32(len(payload)))
		rec = codec.AppendUint32(rec, crc32.ChecksumIEEE(payload))
		return append(rec, payload...)
	}
	if _, _, err := checkpoint.DecodeRecord(record(2, 1)); err != nil {
		t.Fatalf("the hand-written envelope is not valid at version 2: %v", err)
	}
	if _, _, err := checkpoint.DecodeRecord(record(1, 1)); err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("version-1 record: err = %v, want unsupported format version 1", err)
	}
	dir := t.TempDir()
	for _, e := range []int32{1, 2} {
		if err := os.WriteFile(filepath.Join(dir, checkpoint.RecordFile(e)), record(1, e), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.Resume(p, job, durableRunOpts(dir)); !errors.Is(err, checkpoint.ErrNoSealedEpoch) {
		t.Fatalf("resume over version-1 records: err = %v, want ErrNoSealedEpoch", err)
	}
}

// TestDurableRunWritesRecords: a plain (non-resumed) run with Dir set
// leaves decodable records and accurate stats behind.
func TestDurableRunWritesRecords(t *testing.T) {
	p := remoteTestPartition(t)
	res, err := core.Run(p, remoteTestJob(), durableRunOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Checkpoints < 1 {
		t.Fatalf("no epochs sealed: %+v", res.Stats)
	}
	if res.Stats.DurableBytes <= 0 || res.Stats.FsyncCount <= 0 {
		t.Fatalf("durable accounting empty: bytes %d fsyncs %d", res.Stats.DurableBytes, res.Stats.FsyncCount)
	}
	if res.Stats.ResumeEpoch != 0 {
		t.Fatalf("fresh run reports resume epoch %d", res.Stats.ResumeEpoch)
	}
}

// TestDurableDirAloneSealsEveryRound: Dir without EveryRounds checkpoints
// every round, and its seals reach the directory.
func TestDurableDirAloneSealsEveryRound(t *testing.T) {
	p := remoteTestPartition(t)
	dir := t.TempDir()
	opts := core.Options{Mode: core.AAP, Deadline: time.Minute,
		Checkpoint: core.CheckpointOptions{Dir: dir}}
	res, err := core.Run(p, remoteTestJob(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Checkpoints < 1 {
		t.Fatalf("Dir alone sealed no epoch: %+v", res.Stats)
	}
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if es := d.Epochs(); len(es) == 0 {
		t.Fatalf("Dir alone left no record in %s", dir)
	}
}
