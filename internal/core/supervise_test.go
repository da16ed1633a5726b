package core_test

import (
	"math"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aap/internal/algo/pagerank"
	"aap/internal/core"
	"aap/internal/supervise"
	"aap/internal/transport"
)

// The supervised-respawn acceptance tests drive the full self-healing
// ladder across a real process boundary: a Supervisor owns worker 1's
// host (this test binary re-exec'd into TestHelperSupervisedWorker),
// chaos SIGKILLs it mid-run, the detector declares it dead, and the
// recovery goroutine climbs the ladder — respawn + rejoin while budget
// lasts, local failback past it — with the run landing bit-identical to
// fault-free either way. The partition tests exercise the other side
// of the same detector: a partition that heals before DeadAfter must
// cost zero restarts and zero recoveries.

const (
	superviseWorkerEnv = "AAP_SUPERVISE_WORKER"
	superviseAddrEnv   = "AAP_SUPERVISE_ADDR"
	superviseIncEnv    = "AAP_SUPERVISE_INC"
	superviseAlgoEnv   = "AAP_SUPERVISE_ALGO"

	// superviseTickerRounds paces the partition tests: with every batch
	// delayed (Faults.DelayProb 1) stretching each self-message round, the
	// run deterministically outlives the whole partition schedule.
	superviseTickerRounds = 300
)

func prSuperviseConfig() pagerank.Config { return pagerank.Config{Tol: 1e-10} }

// superviseChildTopts is the re-exec'd host's view of the plane: same
// fast heartbeats as the parent, but a DeadAfter far above any injected
// partition window so only the parent's detector drives the test.
func superviseChildTopts(inc uint64) core.TransportOptions {
	topts := remoteTopts()
	topts.DeadAfter = 2 * time.Second
	topts.Incarnation = inc
	return topts
}

// TestHelperSupervisedWorker is not a test: it is the supervised worker
// host process, entered only via the Supervisor's launch spec.
func TestHelperSupervisedWorker(t *testing.T) {
	addr := os.Getenv(superviseAddrEnv)
	if addr == "" {
		t.Skip("helper process for the supervised-respawn tests")
	}
	w, err := strconv.Atoi(os.Getenv(superviseWorkerEnv))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := strconv.ParseUint(os.Getenv(superviseIncEnv), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	topts := superviseChildTopts(inc)
	switch algo := os.Getenv(superviseAlgoEnv); algo {
	case "pagerank":
		err = core.ServeWorker(prTestPartition(t), pagerank.Job(prSuperviseConfig()), w, addr, topts)
	case "ticker":
		err = core.ServeWorker(remoteTestPartition(t), tickerJob(superviseTickerRounds), w, addr, topts)
	default:
		err = core.ServeWorker(remoteTestPartition(t), remoteTestJob(), w, addr, topts)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// newTestSupervisor builds a Supervisor whose launch spec re-execs this
// test binary as the host of the victim worker running algo. The
// Backoff seed stands in for the run seed: the respawn schedule replays
// identically across runs.
func newTestSupervisor(t *testing.T, algo string, maxRestarts int) *supervise.Supervisor {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec := supervise.Spec{
		Worker: remoteVictim,
		Start: func(addr string, inc uint64) (*exec.Cmd, error) {
			cmd := exec.Command(exe, "-test.run", "^TestHelperSupervisedWorker$", "-test.timeout", "2m")
			cmd.Env = append(os.Environ(),
				superviseWorkerEnv+"="+strconv.Itoa(remoteVictim),
				superviseAddrEnv+"="+addr,
				superviseIncEnv+"="+strconv.FormatUint(inc, 10),
				superviseAlgoEnv+"="+algo,
			)
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			return cmd, nil
		},
	}
	sup := supervise.New(supervise.Policy{
		MaxRestarts: maxRestarts,
		Backoff:     transport.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 42},
	}, spec)
	t.Cleanup(sup.Stop)
	return sup
}

// killer shoots the victim's current incarnation at a RoundStart event,
// at most once per incarnation and at most maxKills times — the
// per-incarnation guard is what lets "kill it again after it rejoined"
// work even though recovery rewinds the round counter.
type killer struct {
	sup      *supervise.Supervisor
	maxKills int

	mu      sync.Mutex
	kills   int
	shotInc uint64
}

func (k *killer) observe(ev core.Event) {
	if ev.Kind != core.RoundStart || ev.Worker != remoteVictim || ev.Round < 2 {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.kills >= k.maxKills {
		return
	}
	if inc := k.sup.Incarnation(remoteVictim); inc > k.shotInc {
		k.shotInc = inc
		k.kills++
		_ = k.sup.Kill(remoteVictim) // SIGKILL: no goodbye, only silence
	}
}

func (k *killer) count() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kills
}

func supervisedTopts(sup *supervise.Supervisor) core.TransportOptions {
	topts := remoteTopts()
	topts.RemoteWorkers = []int{remoteVictim}
	topts.OnListen = sup.OnListen
	topts.Supervisor = sup
	return topts
}

// TestSupervisedRespawnRejoins is the headline acceptance run: the
// victim host is SIGKILLed mid-run and the supervisor must respawn and
// rejoin it, the rollback restoring its Program over RPC — zero
// failbacks, and output matching the fault-free run (bit-identical for
// the idempotent kernel, 1e-4 relative for PageRank). SSSP is killed
// once, at the victim's round 2: after a rollback it may converge
// without the victim computing again, so a second kill could never
// fire. PageRank computes on every worker every round and is killed
// twice.
func TestSupervisedRespawnRejoins(t *testing.T) {
	t.Run("sssp", func(t *testing.T) {
		p := remoteTestPartition(t)
		job := remoteTestJob()
		base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		sup := newTestSupervisor(t, "sssp", 2)
		k := &killer{sup: sup, maxKills: 1}
		topts := supervisedTopts(sup)
		res, err := core.Run(p, job, core.Options{
			Mode:       core.AAP,
			Deadline:   time.Minute,
			Checkpoint: core.CheckpointOptions{EveryRounds: 1},
			Transport:  &topts,
			Observe:    k.observe,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, base.Values, res.Values, "respawn+rejoin")
		assertSupervised(t, res.Stats, k, 1, 1)
		if rep := sup.Report(); rep.Restarts != 1 || rep.Hosts[0].Exhausted {
			t.Fatalf("supervisor report: %+v, want 1 restart, budget intact", rep)
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		p := prTestPartition(t)
		job := pagerank.Job(prSuperviseConfig())
		base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		sup := newTestSupervisor(t, "pagerank", 2)
		k := &killer{sup: sup, maxKills: 2}
		topts := supervisedTopts(sup)
		res, err := core.Run(p, job, core.Options{
			Mode:       core.AAP,
			Deadline:   time.Minute,
			Checkpoint: core.CheckpointOptions{EveryRounds: 1},
			Transport:  &topts,
			Observe:    k.observe,
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := range base.Values {
			b, r := base.Values[v], res.Values[v]
			if d := math.Abs(b - r); d > 1e-4*math.Max(math.Abs(b), 1e-12) {
				t.Fatalf("vertex %d: fault-free %v, supervised %v (rel Δ too large)", v, b, r)
			}
		}
		assertSupervised(t, res.Stats, k, 2, 2)
	})
}

// TestSupervisedBudgetFailback kills the host once past its restart
// budget: two respawns succeed, the third kill exhausts the policy and
// the engine fails the worker back to a local Program — the run still
// completes and still matches fault-free output. The ticker job paces
// the victim: every worker computes every one of its rounds, so each
// incarnation computes again after its rejoin and every kill fires.
func TestSupervisedBudgetFailback(t *testing.T) {
	p := remoteTestPartition(t)
	job := tickerJob(superviseTickerRounds)
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sup := newTestSupervisor(t, "ticker", 2)
	k := &killer{sup: sup, maxKills: 3}
	topts := supervisedTopts(sup)
	res, err := core.Run(p, job, core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
		Transport:  &topts,
		Observe:    k.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, base.Values, res.Values, "budget failback")
	assertSupervised(t, res.Stats, k, 3, 2)
	if res.Stats.Failbacks < 1 {
		t.Fatalf("budget exhausted but no failback recorded: %+v", res.Stats)
	}
	if rep := sup.Report(); !rep.Hosts[0].Exhausted {
		t.Fatalf("supervisor report should show an exhausted budget: %+v", rep)
	}
}

// TestSupervisedHostLostAtFinalRound SIGKILLs the victim's host at the
// victim's final round and launches its replacement at once, long before
// the detector's verdict: the final eval fails when the replacement's
// handshake supersedes the dead host's link, and no OnPeerDead ever
// fires. The worker must request the recovery itself, before its lost
// round counts as done; otherwise the run terminates on that round and
// assembles the replacement's fresh Program, a wrong answer with a nil
// error. The engine has no supervisor, so the recovery fails the worker
// back to a local Program.
func TestSupervisedHostLostAtFinalRound(t *testing.T) {
	p := remoteTestPartition(t)
	job := tickerJob(superviseTickerRounds)
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sup := newTestSupervisor(t, "ticker", 1)
	topts := remoteTopts()
	topts.DeadAfter = time.Minute // only the replacement's handshake ends the dead host's link
	topts.RemoteWorkers = []int{remoteVictim}
	topts.OnListen = sup.OnListen
	var lost atomic.Bool
	res, err := core.Run(p, job, core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
		Transport:  &topts,
		Observe: func(ev core.Event) {
			// The ticker's last round is its round `limit`, on every worker.
			if ev.Kind == core.RoundStart && ev.Worker == remoteVictim && ev.Round == superviseTickerRounds && lost.CompareAndSwap(false, true) {
				sup.Respawn(remoteVictim) // SIGKILL the host, launch its replacement
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lost.Load() {
		t.Fatal("the run never reached the victim's final round; nothing was tested")
	}
	sameFloats(t, base.Values, res.Values, "host lost at the final round")
	if res.Stats.Recoveries < 1 || res.Stats.Failbacks < 1 {
		t.Fatalf("recoveries = %d, failbacks = %d, want >= 1 each", res.Stats.Recoveries, res.Stats.Failbacks)
	}
}

// assertSupervised checks the supervision ladder's accounting: every
// kill fired, restarts match the expected rung, and rejoins were timed.
func assertSupervised(t *testing.T, st core.RunStats, k *killer, wantKills int, wantRestarts int64) {
	t.Helper()
	if got := k.count(); got != wantKills {
		t.Fatalf("run finished after %d kills, want %d; nothing was tested", got, wantKills)
	}
	if st.Restarts != wantRestarts {
		t.Fatalf("restarts = %d, want %d: %+v", st.Restarts, wantRestarts, st)
	}
	if st.HeartbeatTimeouts < 1 {
		t.Fatalf("host was killed but no heartbeat timeout recorded: %+v", st)
	}
	if st.Recoveries < int64(wantKills) {
		t.Fatalf("recoveries = %d, want >= %d", st.Recoveries, wantKills)
	}
	if wantRestarts > 0 && st.RejoinSeconds <= 0 {
		t.Fatalf("restarts happened but no rejoin time recorded: %+v", st)
	}
}

// hostLink is the victim host's link endpoint in an M-worker plane.
func hostLink(m int) int32 { return int32(m + 1 + remoteVictim) }

// TestSupervisedPartitionHealNoRestarts sets three partition windows
// on the victim's host link, each longer than SuspectAfter but shorter
// than DeadAfter: the detector must walk Alive→Suspect→Alive three
// times without ever reaching the supervisor — zero restarts, zero
// recoveries, fault-free output.
func TestSupervisedPartitionHealNoRestarts(t *testing.T) {
	p := remoteTestPartition(t)
	job := tickerJob(superviseTickerRounds)
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sup := newTestSupervisor(t, "ticker", 2)
	topts := supervisedTopts(sup)
	topts.DeadAfter = 500 * time.Millisecond // every 150ms window heals well before death
	res, err := core.Run(p, job, core.Options{
		Mode: core.AAP,
		Faults: &core.Faults{DelayProb: 1, DelayBy: 3 * time.Millisecond,
			Partitions: transport.PartitionSchedule(hostLink(p.M), 3, 300*time.Millisecond, 250*time.Millisecond, 150*time.Millisecond)},
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
		Transport:  &topts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.HeartbeatTimeouts < 1 {
		t.Fatalf("partitions opened but the detector never suspected: %+v", res.Stats)
	}
	if res.Stats.Restarts != 0 || res.Stats.Recoveries != 0 || res.Stats.Failbacks != 0 {
		t.Fatalf("healed partitions must cost nothing: restarts=%d recoveries=%d failbacks=%d",
			res.Stats.Restarts, res.Stats.Recoveries, res.Stats.Failbacks)
	}
	if rep := sup.Report(); rep.Restarts != 0 {
		t.Fatalf("supervisor fired on a healed partition: %+v", rep)
	}
	sameFloats(t, base.Values, res.Values, "healed partitions")
}

// TestSupervisedPartitionKillConverges overlaps a real SIGKILL with an
// open partition window: the detector cannot tell silence from death
// until the host truly is dead, and the supervisor must still converge —
// respawn, rejoin through the still-partitioned link (the new Hello
// passes before the link is named; the restore RPC waits out the
// window), and land fault-free output.
func TestSupervisedPartitionKillConverges(t *testing.T) {
	p := remoteTestPartition(t)
	job := tickerJob(superviseTickerRounds)
	base, err := core.Run(p, job, core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sup := newTestSupervisor(t, "ticker", 2)
	topts := supervisedTopts(sup)
	timer := time.AfterFunc(400*time.Millisecond, func() { _ = sup.Kill(remoteVictim) })
	defer timer.Stop()
	res, err := core.Run(p, job, core.Options{
		Mode: core.AAP,
		Faults: &core.Faults{DelayProb: 1, DelayBy: 3 * time.Millisecond,
			Partitions: []transport.Window{{Link: hostLink(p.M), After: 300 * time.Millisecond, For: 450 * time.Millisecond}}},
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
		Transport:  &topts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restarts < 1 {
		t.Fatalf("killed under partition but never respawned: %+v", res.Stats)
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("killed under partition but no recovery ran: %+v", res.Stats)
	}
	sameFloats(t, base.Values, res.Values, "kill under partition")
}
