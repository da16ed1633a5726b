package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBSPControllerBarriers(t *testing.T) {
	c := sspController{}
	if d := c.Delay(View{Round: 3, RMin: 2}); !math.IsInf(d, 1) {
		t.Errorf("ahead of r_min should suspend, got %v", d)
	}
	if d := c.Delay(View{Round: 2, RMin: 2}); d != 0 {
		t.Errorf("at r_min should run, got %v", d)
	}
	if d := c.Delay(View{Round: 1, RMin: 2}); d != 0 {
		t.Errorf("behind r_min should run, got %v", d)
	}
}

func TestAPControllerNeverWaits(t *testing.T) {
	c := apController{}
	f := func(round, rmin, rmax int32, rate float64) bool {
		return c.Delay(View{Round: round, RMin: rmin, RMax: rmax, Rate: rate}) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSSPControllerBound(t *testing.T) {
	c := sspController{C: 2}
	if d := c.Delay(View{Round: 5, RMin: 2}); !math.IsInf(d, 1) {
		t.Errorf("3 ahead with c=2 should suspend, got %v", d)
	}
	if d := c.Delay(View{Round: 4, RMin: 2}); d != 0 {
		t.Errorf("2 ahead with c=2 should run, got %v", d)
	}
}

func TestAAPControllerBoundedStalenessPredicate(t *testing.T) {
	c := aapController{C: 2}
	// Fastest worker too far ahead: S is false, suspend.
	v := View{Round: 10, RMax: 10, RMin: 5}
	if d := c.Delay(v); !math.IsInf(d, 1) {
		t.Errorf("S=false should suspend, got %v", d)
	}
	// Not the fastest: S holds even when far ahead of r_min.
	v.RMax = 12
	if d := c.Delay(v); math.IsInf(d, 1) {
		t.Error("non-fastest worker should not suspend")
	}
}

func TestAAPControllerFastWorkerRunsImmediately(t *testing.T) {
	c := aapController{}
	// Round time at the cluster average: run like AP.
	v := View{RoundTime: 1, AvgRoundTime: 1, Rate: 100}
	if d := c.Delay(v); d != 0 {
		t.Errorf("average-speed worker should not wait, got %v", d)
	}
}

func TestAAPControllerStragglerAccumulates(t *testing.T) {
	c := aapController{}
	// 4x straggler with heavy incoming traffic: it holds for the window
	// Δt_i = 0.5·avg t, less the time it has already spent idle.
	for _, v := range []View{
		{RoundTime: 4, AvgRoundTime: 1, Rate: 10},
		{RoundTime: 4, AvgRoundTime: 1, Rate: 10, IdleTime: 0.125},
		{RoundTime: 0.7, AvgRoundTime: 0.3, Rate: 1e3, IdleTime: 0.1},
	} {
		if d, want := c.Delay(v), 0.5*v.AvgRoundTime-v.IdleTime; d != want {
			t.Errorf("%+v: stretch %v, want %v", v, d, want)
		}
	}
	// A straggler idle for longer than the window runs.
	v := View{RoundTime: 4, AvgRoundTime: 1, Rate: 10, IdleTime: 10}
	if d := c.Delay(v); d != 0 {
		t.Errorf("long-idle straggler should run, got %v", d)
	}
}

func TestAAPControllerNoTrafficNoWait(t *testing.T) {
	c := aapController{}
	// Straggler but nothing arriving: run immediately.
	v := View{RoundTime: 4, AvgRoundTime: 1, Rate: 0.01}
	if d := c.Delay(v); d != 0 {
		t.Errorf("no predicted arrivals should mean no wait, got %v", d)
	}
}

func TestAAPControllerNoEstimates(t *testing.T) {
	c := aapController{}
	if d := c.Delay(View{}); d != 0 {
		t.Errorf("without estimates the controller must not block, got %v", d)
	}
}

func TestNextRoundTimeEWMA(t *testing.T) {
	if got := nextRoundTimeEWMA(0, 5); got != 5 {
		t.Errorf("first sample = %v", got)
	}
	// Decreases track fast.
	down := nextRoundTimeEWMA(4, 1)
	if down >= 2.5 {
		t.Errorf("decay too slow: %v", down)
	}
	// Increases are conservative.
	up := nextRoundTimeEWMA(1, 4)
	if up != 2.5 {
		t.Errorf("rise = %v, want 2.5", up)
	}
}

func TestNextRoundTimeEWMAMonotoneProperty(t *testing.T) {
	f := func(prev, dur float64) bool {
		prev, dur = math.Abs(prev), math.Abs(dur)
		got := nextRoundTimeEWMA(prev, dur)
		lo, hi := math.Min(prev, dur), math.Max(prev, dur)
		if prev == 0 {
			return got == dur
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{AAP: "AAP", BSP: "BSP", AP: "AP", SSP: "SSP", Hsync: "Hsync", Mode(42): "Mode(42)"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
		// ParseMode is its inverse, whatever the case, and only that.
		got, err := ParseMode(strings.ToLower(s))
		if known := m <= Hsync; known && (err != nil || got != m) || !known && err == nil {
			t.Errorf("ParseMode(%q) = %v, %v", strings.ToLower(s), got, err)
		}
	}
}

func TestControllersAllModes(t *testing.T) {
	for _, mode := range []Mode{AAP, BSP, AP, SSP, Hsync} {
		e := newEngine(NewSession(buildPartition(t, 4)), quietJob(), Options{Mode: mode, Staleness: 2}, nil)
		if e.ctrl == nil {
			t.Fatalf("%s: nil controller", mode)
		}
		// Only Hsync carries the shared phase its observe hooks feed.
		if (e.hsync != nil) != (mode == Hsync) {
			t.Fatalf("%s: hsync state %v", mode, e.hsync)
		}
	}
}

func TestHsyncPhaseFlipsOnThroughputDrop(t *testing.T) {
	h := &hsyncState{}
	c := hsyncController{state: h}
	if d := c.Delay(View{Round: 5, RMin: 1}); d != 0 {
		t.Error("AP phase should never wait")
	}
	// Window 1: high throughput.
	h.processed.Add(100)
	h.observe(hsyncWindow)
	// Window 2: throughput collapse triggers a phase flip.
	h.processed.Add(10)
	h.observe(2 * hsyncWindow)
	if !h.bspPhase.Load() {
		t.Fatal("phase did not flip after throughput drop")
	}
	if d := c.Delay(View{Round: 5, RMin: 1}); !math.IsInf(d, 1) {
		t.Error("BSP phase should suspend workers ahead of r_min")
	}
	if d := c.Delay(View{Round: 1, RMin: 1}); d != 0 {
		t.Error("BSP phase should run workers at r_min")
	}
}
