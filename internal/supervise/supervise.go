// Package supervise owns the lifecycle of remote worker hosts: it
// launches them from a spec, and when the transport's failure detector
// declares a host dead it respawns the process under a restart policy
// and hands the engine the new incarnation number to rejoin it.
//
// The supervisor is deliberately mechanism-only. It does not decide
// *when* a host is dead (the phi-accrual detector does), nor *how* its
// state comes back (the engine restores the Program from the newest
// sealed epoch over RPC and replays). It answers exactly one question —
// "may worker k have another process, and as which incarnation?" — and
// the answer is deterministic given the policy seed: the backoff jitter
// is a pure function of (seed, worker, attempt), reusing the transport
// retry schedule.
package supervise

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aap/internal/transport"
)

// Spec describes how to start one worker host. Start must launch the
// process (the returned Cmd is already running) serving the given
// worker against the parent's listen address, carrying the incarnation
// so its Hello can fence the dead predecessor's frames. A Spec may
// return a nil Cmd for in-process or test hosts.
type Spec struct {
	Worker int
	Start  func(addr string, incarnation uint64) (*exec.Cmd, error)
}

// Command builds a Spec that re-executes argv with the placeholders
// {addr}, {worker} and {incarnation} substituted in each argument, and
// env appended to the parent environment. This is the seed of a real
// launch registry: swap the exec for ssh and the spec still holds.
func Command(worker int, argv []string, env ...string) Spec {
	return Spec{
		Worker: worker,
		Start: func(addr string, inc uint64) (*exec.Cmd, error) {
			if len(argv) == 0 {
				return nil, fmt.Errorf("supervise: empty argv for worker %d", worker)
			}
			sub := strings.NewReplacer(
				"{addr}", addr,
				"{worker}", strconv.Itoa(worker),
				"{incarnation}", strconv.FormatUint(inc, 10),
			)
			args := make([]string, len(argv))
			for i, a := range argv {
				args[i] = sub.Replace(a)
			}
			cmd := exec.Command(args[0], args[1:]...)
			cmd.Env = append(os.Environ(), env...)
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			return cmd, nil
		},
	}
}

// Policy bounds the self-healing ladder's first rung: each host gets
// MaxRestarts respawns (default 2); past that the engine fails the
// worker back to a local Program. Backoff spaces the respawns — the
// same capped exponential + deterministic jitter the link layer uses
// for reconnects, so a flapping host cannot restart-storm. Seed the
// Backoff from the run seed to keep chaos schedules replayable.
type Policy struct {
	MaxRestarts int
	Backoff     transport.Backoff
}

func (p Policy) withDefaults() Policy {
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 2
	}
	if p.MaxRestarts < 0 {
		p.MaxRestarts = 0
	}
	return p
}

// HostReport is one host's supervision outcome.
type HostReport struct {
	Worker      int
	Incarnation uint64
	Restarts    int
	Exhausted   bool // restart budget spent; worker failed back
}

// Report summarises a run's supervision activity for CLIs and benches.
type Report struct {
	Hosts    []HostReport
	Restarts int
}

// Supervisor launches and respawns worker hosts. Safe for concurrent
// use; Respawn is typically driven by the engine's recovery event while
// Kill is driven by chaos schedules.
type Supervisor struct {
	policy Policy

	mu      sync.Mutex
	logf    func(format string, args ...any)
	addr    string
	hosts   map[int]*host
	stopped bool
}

type host struct {
	spec      Spec
	inc       uint64
	cmd       *exec.Cmd
	restarts  int
	exhausted bool
}

// New builds a supervisor over the given host specs. Call Start (or
// wire OnListen into TransportOptions) to launch them.
func New(policy Policy, specs ...Spec) *Supervisor {
	s := &Supervisor{
		policy: policy.withDefaults(),
		logf:   func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		hosts:  make(map[int]*host, len(specs)),
	}
	for _, sp := range specs {
		s.hosts[sp.Worker] = &host{spec: sp}
	}
	return s
}

// SetLogger redirects supervision logs (default: stderr). Pass the
// test's Logf or a file writer; nil silences them.
func (s *Supervisor) SetLogger(logf func(format string, args ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// Start launches every host at incarnation 1 against the parent's
// listen address. It matches TransportOptions.OnListen's shape via
// OnListen, so the engine can trigger the launch as soon as its
// listener is bound.
func (s *Supervisor) Start(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return fmt.Errorf("supervise: supervisor stopped")
	}
	s.addr = addr
	var firstErr error
	for _, w := range s.workersLocked() {
		h := s.hosts[w]
		if h.cmd != nil || h.inc > 0 {
			continue
		}
		h.inc = 1
		if err := s.launchLocked(w, h); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// OnListen is Start with errors logged instead of returned, shaped for
// the engine's listen callback.
func (s *Supervisor) OnListen(addr string) {
	if err := s.Start(addr); err != nil {
		s.log("supervise: launch failed: %v", err)
	}
}

// Respawn implements the engine's restart policy hook. Called with the
// run quiesced when worker's host is declared dead, it spends one unit
// of restart budget: kill the corpse, wait out the jittered backoff,
// and launch the next incarnation. It returns that incarnation and true
// when a new process is (being) started, or false when the budget is
// exhausted and the engine should fail the worker back locally. A
// launch error still returns true — the engine's rejoin wait times out
// and the next Respawn spends the next unit of budget.
func (s *Supervisor) Respawn(worker int) (uint64, bool) {
	s.mu.Lock()
	h, ok := s.hosts[worker]
	if !ok || s.stopped {
		s.mu.Unlock()
		return 0, false
	}
	if h.restarts >= s.policy.MaxRestarts {
		h.exhausted = true
		max := s.policy.MaxRestarts
		s.mu.Unlock()
		s.log("supervise: worker %d restart budget exhausted (%d/%d); failing back", worker, max, max)
		return 0, false
	}
	attempt := h.restarts
	h.restarts++
	s.reapLocked(h)
	bo := s.policy.Backoff
	bo.Seed ^= uint64(worker+1) * 0x9E3779B97F4A7C15
	delay := bo.Delay(attempt)
	s.mu.Unlock()

	time.Sleep(delay)

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return 0, false
	}
	h.inc++
	inc := h.inc
	err := s.launchLocked(worker, h)
	restarts, max := h.restarts, s.policy.MaxRestarts
	s.mu.Unlock()
	if err != nil {
		s.log("supervise: worker %d incarnation %d failed to launch: %v", worker, inc, err)
	} else {
		s.log("supervise: worker %d respawned as incarnation %d after %v (restart %d/%d)", worker, inc, delay, restarts, max)
	}
	return inc, true
}

// Kill SIGKILLs worker's current process — the chaos-schedule entry
// point. It does not touch the restart budget; the detector's death
// verdict drives Respawn.
func (s *Supervisor) Kill(worker int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hosts[worker]
	if !ok {
		return fmt.Errorf("supervise: no host for worker %d", worker)
	}
	if h.cmd == nil || h.cmd.Process == nil {
		return fmt.Errorf("supervise: worker %d has no live process", worker)
	}
	return h.cmd.Process.Kill()
}

// Incarnation returns worker's current launch incarnation (0 before
// the first Start). Chaos schedules use it to wait until a respawn has
// actually happened before killing again.
func (s *Supervisor) Incarnation(worker int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.hosts[worker]; ok {
		return h.inc
	}
	return 0
}

// Stop kills every live host and refuses further respawns. Idempotent.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	for _, h := range s.hosts {
		s.reapLocked(h)
	}
}

// Report snapshots supervision activity, hosts ordered by worker.
func (s *Supervisor) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	var r Report
	for _, w := range s.workersLocked() {
		h := s.hosts[w]
		r.Hosts = append(r.Hosts, HostReport{Worker: w, Incarnation: h.inc, Restarts: h.restarts, Exhausted: h.exhausted})
		r.Restarts += h.restarts
	}
	return r
}

func (s *Supervisor) workersLocked() []int {
	ws := make([]int, 0, len(s.hosts))
	for w := range s.hosts {
		ws = append(ws, w)
	}
	sort.Ints(ws)
	return ws
}

func (s *Supervisor) launchLocked(worker int, h *host) error {
	cmd, err := h.spec.Start(s.addr, h.inc)
	if err != nil {
		return err
	}
	h.cmd = cmd
	if cmd != nil {
		// Reap in the background so a kill never leaves a zombie.
		go func() { _ = cmd.Wait() }()
	}
	return nil
}

// reapLocked kills h's current process, if any. The spawn-time Wait
// goroutine collects the exit status.
func (s *Supervisor) reapLocked(h *host) {
	if h.cmd != nil && h.cmd.Process != nil {
		_ = h.cmd.Process.Kill()
	}
	h.cmd = nil
}

func (s *Supervisor) log(format string, args ...any) {
	s.mu.Lock()
	logf := s.logf
	s.mu.Unlock()
	logf(format, args...)
}
