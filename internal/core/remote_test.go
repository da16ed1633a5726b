package core_test

import (
	"math"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"testing"
	"time"

	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
)

// The two-process tests run the engine for real across a process
// boundary: worker 1's Program lives in a child process (this same test
// binary re-exec'd into TestHelperRemoteWorker) that dials the parent's
// loopback listener. Both processes rebuild the identical partitioned
// graph from the deterministic generator, mirroring how cluster workers
// load a shared fragment assignment.

const (
	remoteWorkerEnv = "AAP_REMOTE_WORKER"
	parentAddrEnv   = "AAP_PARENT_ADDR"
	remoteVictim    = 1
)

func remoteTestPartition(t testing.TB) *partition.Partitioned {
	t.Helper()
	g := gen.PowerLaw(500, 6, 2.1, true, 1)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func remoteTestJob() core.Job[float64] { return sssp.Job(0) }

// remoteTopts keeps the failure detector fast enough for a test but far
// above scheduler jitter: death needs ~250ms of true heartbeat silence.
func remoteTopts() core.TransportOptions {
	return core.TransportOptions{
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   80 * time.Millisecond,
		DeadAfter:      250 * time.Millisecond,
	}
}

// TestHelperRemoteWorker is not a test: it is the worker process, entered
// only when the parent re-execs the binary with the env markers set.
func TestHelperRemoteWorker(t *testing.T) {
	addr := os.Getenv(parentAddrEnv)
	if addr == "" {
		t.Skip("helper process for the two-process transport tests")
	}
	w, err := strconv.Atoi(os.Getenv(remoteWorkerEnv))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ServeWorker(remoteTestPartition(t), remoteTestJob(), w, addr, remoteTopts()); err != nil {
		t.Fatal(err)
	}
}

// spawnRemoteWorker re-execs the test binary as the host of worker w
// against the parent listening at addr.
func spawnRemoteWorker(t *testing.T, w int, addr string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestHelperRemoteWorker$", "-test.timeout", "2m")
	cmd.Env = append(os.Environ(),
		remoteWorkerEnv+"="+strconv.Itoa(w),
		parentAddrEnv+"="+addr,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestRemoteWorkerMatchesInProc: hosting a worker's Program in another
// process changes nothing about the result.
func TestRemoteWorkerMatchesInProc(t *testing.T) {
	p := remoteTestPartition(t)
	base, err := core.Run(p, remoteTestJob(), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	var cmd *exec.Cmd
	topts := remoteTopts()
	topts.RemoteWorkers = []int{remoteVictim}
	topts.OnListen = func(addr string) { cmd = spawnRemoteWorker(t, remoteVictim, addr) }
	res, err := core.Run(p, remoteTestJob(), core.Options{
		Mode:      core.AAP,
		Deadline:  time.Minute,
		Transport: &topts,
	})
	if cmd != nil {
		defer func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}()
	}
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Values {
		if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
			t.Fatalf("vertex %d: in-proc %v, remote-hosted %v", v, b, r)
		}
	}
}

// TestRemoteWorkerKillRecovers is the end-to-end process-kill contract:
// SIGKILL the worker host mid-run — no injected fault, no signal to the
// engine — and the heartbeat detector alone must notice the silence,
// declare the host dead, roll back to the last sealed checkpoint with
// the victim failed back to a local Program, and finish bit-identical
// to the fault-free run.
func TestRemoteWorkerKillRecovers(t *testing.T) {
	p := remoteTestPartition(t)
	base, err := core.Run(p, remoteTestJob(), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		cmd  *exec.Cmd
		shot bool
	)
	topts := remoteTopts()
	topts.RemoteWorkers = []int{remoteVictim}
	topts.OnListen = func(addr string) {
		c := spawnRemoteWorker(t, remoteVictim, addr)
		mu.Lock()
		cmd = c
		mu.Unlock()
	}
	res, err := core.Run(p, remoteTestJob(), core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
		Transport:  &topts,
		Observe: func(ev core.Event) {
			if ev.Kind != core.RoundStart || ev.Worker != remoteVictim || ev.Round < 2 {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if !shot && cmd != nil {
				shot = true
				_ = cmd.Process.Kill() // SIGKILL: the host gets no chance to say goodbye
			}
		},
	})
	mu.Lock()
	c := cmd
	mu.Unlock()
	if c != nil {
		defer func() {
			_ = c.Process.Kill()
			_ = c.Wait()
		}()
	}
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fired := shot
	mu.Unlock()
	if !fired {
		t.Fatal("run finished before the kill round; nothing was tested")
	}
	if res.Stats.HeartbeatTimeouts < 1 {
		t.Fatalf("host was killed but no heartbeat timeout recorded: %+v", res.Stats)
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("host was killed but no recovery ran (recoveries=%d)", res.Stats.Recoveries)
	}
	for v := range base.Values {
		if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
			t.Fatalf("vertex %d: fault-free %v, kill-recovered %v", v, b, r)
		}
	}
}
