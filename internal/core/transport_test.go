package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
	"aap/internal/transport"
)

// inprocOpts runs the engine under mode on the in-proc plane: the
// baseline of tcpOpts.
func inprocOpts(mode core.Options) core.Options {
	mode.Deadline = time.Minute
	return mode
}

// tcpOpts is inprocOpts with every batch traveling the loopback TCP plane
// instead of in-proc channels.
func tcpOpts(mode core.Options) core.Options {
	mode = inprocOpts(mode)
	mode.Transport = &core.TransportOptions{TCP: true}
	return mode
}

// TestTCPPlaneMatchesInProcSSSP pins the plane-independence contract for
// the idempotent min-fold kernel: serializing every designated message
// through the wire format and bouncing it off a real socket must change
// nothing about the result, bit for bit, under every mode — the ones
// that suspend on View.RMin / RMax included.
func TestTCPPlaneMatchesInProcSSSP(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 1)
	p := mustPartition(t, g, 4, partition.Hash{})
	for _, mode := range modes() {
		t.Run(mode.Mode.String()+"/"+oneShard, func(t *testing.T) {
			base, err := core.Run(p, sssp.Job(0), inprocOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(p, sssp.Job(0), tcpOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.WireBytesOut == 0 || res.Stats.WireBytesIn == 0 {
				t.Fatalf("TCP run shipped no wire bytes: %+v", res.Stats)
			}
			for v := range base.Values {
				if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
					t.Fatalf("vertex %d: in-proc %v, tcp %v", v, b, r)
				}
			}
		})
	}
}

// TestTCPPlaneMatchesInProcCC repeats the contract for CC's exact int64
// labels.
func TestTCPPlaneMatchesInProcCC(t *testing.T) {
	g := gen.SmallWorld(400, 2, 0.05, false, 2)
	p := mustPartition(t, g, 4, partition.Hash{})
	for _, mode := range modes() {
		t.Run(mode.Mode.String()+"/"+oneShard, func(t *testing.T) {
			base, err := core.Run(p, cc.Job(), inprocOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(p, cc.Job(), tcpOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			for v := range base.Values {
				if base.Values[v] != res.Values[v] {
					t.Fatalf("vertex %d: in-proc %d, tcp %d", v, base.Values[v], res.Values[v])
				}
			}
		})
	}
}

// TestTCPPlaneMatchesInProcPageRank allows FP tolerance: every mode but
// BSP folds PageRank's sum aggregate in arrival order, and the wire plane shifts
// arrival timing — which changes both rounding and WHICH sub-Tol deltas
// get parked, so per-vertex scores can legitimately differ by a few
// multiples of the kernel's Tol (1e-6). The bound here is 100×Tol,
// far below anything a ranking consumer can observe.
func TestTCPPlaneMatchesInProcPageRank(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.2, false, 3)
	p := mustPartition(t, g, 4, partition.Hash{})
	for _, mode := range modes() {
		t.Run(mode.Mode.String(), func(t *testing.T) {
			base, err := core.Run(p, pagerank.Job(pagerank.Config{}), inprocOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(p, pagerank.Job(pagerank.Config{}), tcpOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			for v := range base.Values {
				d := math.Abs(base.Values[v] - res.Values[v])
				if rel := d / math.Max(1, math.Abs(base.Values[v])); rel > 1e-4 {
					t.Fatalf("vertex %d: in-proc %v, tcp %v (rel Δ=%g)", v, base.Values[v], res.Values[v], rel)
				}
			}
		})
	}
}

// TestTCPPlaneChaosKillRecovers combines both robustness layers in one
// process: the full fault schedule of the chaos tests (checkpoint every
// round, worker 1 killed at its first incremental round) with every
// message on the wire. Recovery must replay to bit-identical
// output.
func TestTCPPlaneChaosKillRecovers(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 1)
	p := mustPartition(t, g, 4, partition.Hash{})
	base, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts(42, 1)
	opts.Transport = &core.TransportOptions{TCP: true}
	res, err := core.Run(p, sssp.Job(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("kill scheduled but no recovery ran (recoveries=%d)", res.Stats.Recoveries)
	}
	for v := range base.Values {
		if b, r := base.Values[v], res.Values[v]; b != r && !(math.IsInf(b, 1) && math.IsInf(r, 1)) {
			t.Fatalf("vertex %d: fault-free %v, tcp-recovered %v", v, b, r)
		}
	}
}

// TestTCPPlaneBatchLinkDeathFailsRun: in TCP mode every worker's batches
// ride one self-link, which serves no host to recover. When a partition
// window outlasts DeadAfter on it, the frames queued there die with the
// link, so the run must fail with the link's error at once instead of
// waiting out its deadline for messages that will never arrive. Every
// batch is slowed so some are still queued on the link when it dies.
func TestTCPPlaneBatchLinkDeathFailsRun(t *testing.T) {
	g := gen.PowerLaw(3000, 6, 2.1, true, 1)
	p := mustPartition(t, g, 4, partition.Hash{})
	const deadline = 5 * time.Second
	t0 := time.Now()
	_, err := core.Run(p, sssp.Job(0), core.Options{
		Deadline: deadline,
		Faults: &core.Faults{DelayProb: 1, DelayBy: 15 * time.Millisecond,
			Partitions: []transport.Window{{Link: 0, After: 20 * time.Millisecond, For: 400 * time.Millisecond}}},
		Transport: &core.TransportOptions{TCP: true, DeadAfter: 100 * time.Millisecond},
	})
	took := time.Since(t0)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run with its batch link dead ended after %v with %v, want the link's error", took, err)
	}
	if took > deadline/2 {
		t.Fatalf("run failed only after %v (deadline %v): %v", took, deadline, err)
	}
	t.Logf("failed after %v: %v", took, err)
	if !strings.Contains(err.Error(), "link 0") {
		t.Fatalf("run failed with %v, want an error naming link 0", err)
	}
}

// TestTCPPlaneComposedFaultsRecover sets every layer of one fault plan
// on a TCP run: a worker killed at round 3, every batch delayed, a fifth
// of them duplicated, and the batch link partitioned for longer than
// the detector's SuspectAfter but shorter than its DeadAfter while the
// run is in flight. The partition must heal with no link death, the
// kill must recover, and the answer must be bit-identical to the
// fault-free run.
func TestTCPPlaneComposedFaultsRecover(t *testing.T) {
	g := gen.PowerLaw(3000, 6, 2.1, true, 1)
	p := mustPartition(t, g, 4, partition.Hash{})
	base, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts(42, 1)
	opts.Faults.Kill.Round = 3
	opts.Faults.DelayProb, opts.Faults.DelayBy = 1, 5*time.Millisecond
	opts.Faults.DupProb = 0.2
	opts.Faults.Partitions = []transport.Window{{Link: 0, After: 20 * time.Millisecond, For: 300 * time.Millisecond}}
	opts.Transport = &core.TransportOptions{TCP: true}
	res, err := core.Run(p, sssp.Job(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("kill scheduled but no recovery ran: %+v", res.Stats)
	}
	if res.Stats.HeartbeatTimeouts < 1 {
		t.Fatalf("batch link partitioned but the detector never suspected: %+v", res.Stats)
	}
	sameFloats(t, base.Values, res.Values, "composed faults")
}

// TestTCPPlaneRequiresCodec: a job without EncodeVal/DecodeVal must fail
// fast, not panic mid-run.
func TestTCPPlaneRequiresCodec(t *testing.T) {
	g := gen.Random(50, 100, true, 7)
	p := mustPartition(t, g, 2, partition.Hash{})
	job := sssp.Job(0)
	job.EncodeVal = nil
	if _, err := core.Run(p, job, tcpOpts(core.Options{})); err == nil {
		t.Fatal("TCP run without a value codec succeeded")
	}
}

// TestTCPPlaneRoguePeer pins what a TCP run's listener offers a peer that
// is not part of the run: nothing to call, and no batch that indexes
// engine state with the peer's own numbers. While worker rounds are
// running, a second plane dials the listener. Its calls to endpoint M
// carry the bytes that once were coordinator tokens (setActive of worker
// 1<<20, a drained-message count of 1<<40); each must be refused at once and the run
// must finish with the in-proc answer. Its Data frame from worker 1<<20
// must fail the run as a corrupt frame, not as a worker panic.
func TestTCPPlaneRoguePeer(t *testing.T) {
	p := remoteTestPartition(t)
	base, err := core.Run(p, remoteTestJob(), inprocOpts(core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	m := int32(p.M)
	const self = 1000 // the endpoint the rogue says it serves, so that replies find it
	call := func(tp *transport.Plane, req []byte) error {
		_, err := tp.Call(self, m, req, 5*time.Second, nil)
		return err
	}
	for _, c := range []struct {
		name    string
		rogue   func(tp *transport.Plane) error
		wantErr string // of the run; "" = it finishes with the in-proc answer
	}{
		{"calls to endpoint M", func(tp *transport.Plane) error {
			for _, req := range [][]byte{
				codec.AppendBool(codec.AppendInt32(codec.AppendInt32(nil, 4), 1<<20), false),
				codec.AppendInt64(codec.AppendInt32(nil, 3), 1<<40),
			} {
				err := call(tp, req)
				var refused transport.RemoteError
				if want := fmt.Sprintf("endpoint %d is not served by this plane", m); !errors.As(err, &refused) || !strings.Contains(err.Error(), want) {
					return fmt.Errorf("call % x to endpoint %d: %v, want the refusal %q", req, m, err, want)
				}
			}
			return nil
		}, ""},
		{"data frame with From outside [0,M)", func(tp *transport.Plane) error {
			emptyBatch := codec.AppendUint32(codec.AppendInt32(nil, 0), 0) // [epoch][n = 0]
			if err := tp.Send(1<<20, 0, transport.KindData, emptyBatch); err != nil {
				return err
			}
			// A link's frames are handled in order: once this call is
			// answered, whatever the answer, the batch has been through
			// onFrame.
			_ = call(tp, nil)
			return nil
		}, "corrupt batch frame 1048576→0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var addr string
			var once sync.Once
			rogueErr := errors.New("no round ran the rogue")
			opts := tcpOpts(core.Options{})
			opts.Transport.OnListen = func(a string) { addr = a }
			opts.Observe = func(ev core.Event) {
				if ev.Kind != core.RoundStart || ev.Round < 1 {
					return
				}
				once.Do(func() {
					tp, err := transport.Listen(transport.Config{})
					if err != nil {
						rogueErr = err
						return
					}
					defer tp.Close()
					if rogueErr = tp.Dial(1<<16, addr, []int32{self}, []int32{0, m}); rogueErr == nil {
						rogueErr = c.rogue(tp)
					}
				})
			}
			res, err := core.Run(p, remoteTestJob(), opts)
			if rogueErr != nil {
				t.Fatal(rogueErr)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("run ended with %v, want an error naming %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, base.Values, res.Values, "TCP run with a rogue peer")
		})
	}
}

// TestRunStatsSectionsFilledByTheirPlanes pins who reports what: every
// section of RunStats that a plane beside the loop fills is zero after a
// plain in-proc run and non-zero after a run (and a resume of it) with
// that plane switched on.
func TestRunStatsSectionsFilledByTheirPlanes(t *testing.T) {
	p := remoteTestPartition(t)
	plain, err := core.Run(p, remoteTestJob(), core.Options{Mode: core.AAP, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	st := plain.Stats
	if st.TotalMsgs == 0 || st.SumRounds == 0 || st.ArenaBytes == 0 || st.ScannedEdges == 0 {
		t.Fatalf("the workers' section is empty: %+v", st)
	}
	st.Job, st.Mode, st.Workers = "", "", nil
	st.Seconds, st.TotalMsgs, st.TotalBytes, st.TotalWork, st.TotalIdle, st.TotalBusy = 0, 0, 0, 0, 0, 0
	st.MaxRound, st.MinRound, st.SumRounds, st.ArenaBytes, st.ScannedEdges = 0, 0, 0, 0, 0
	if !reflect.DeepEqual(st, core.RunStats{}) {
		t.Fatalf("a plain in-proc run filled a section no plane of it owns: %+v", st)
	}

	opts := durableRunOpts(durableDir(t))
	opts.Transport = &core.TransportOptions{TCP: true}
	full, err := core.Run(p, remoteTestJob(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, plain.Values, full.Values, "checkpointed TCP run")
	st = full.Stats
	if st.Checkpoints == 0 || st.CheckpointBytes == 0 {
		t.Errorf("recovery plane reported no seals: %+v", st)
	}
	if st.DurableBytes == 0 || st.FsyncCount == 0 {
		t.Errorf("durable tee reported no writes: %+v", st)
	}
	if st.WireBytesOut == 0 || st.WireBytesIn == 0 {
		t.Errorf("wire plane reported no bytes: %+v", st)
	}
	if st.ResumeEpoch != 0 || st.ResumeBytes != 0 || st.ResumeSeconds != 0 {
		t.Errorf("a fresh run reported a resume: %+v", st)
	}

	resumed, err := core.Resume(p, remoteTestJob(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, plain.Values, resumed.Values, "resumed TCP run")
	st = resumed.Stats
	if st.ResumeEpoch == 0 || st.ResumeBytes == 0 || st.ResumeSeconds == 0 {
		t.Errorf("resume seed reported nothing: %+v", st)
	}
	if st.WireBytesOut == 0 || st.WireBytesIn == 0 {
		t.Errorf("wire plane of the resumed run reported no bytes: %+v", st)
	}
}
