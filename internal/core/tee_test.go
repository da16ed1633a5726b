package core

import (
	"reflect"
	"testing"

	"aap/internal/checkpoint"
	"aap/internal/codec"
)

// TestDurableTeeKeepsNewestSeal drives the tee's hook by hand on a
// listTimeline: seals coalesce into the one pending slot with at most one
// write queued, a superseded seal is counted and never reaches the disk,
// the newest is the one that lands, stop writes what is still pending,
// and a seal offered after stop is not written.
func TestDurableTeeKeepsNewestSeal(t *testing.T) {
	store, err := checkpoint.OpenDurable(t.TempDir(), checkpoint.DurableOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	job := quietJob()
	job.EncodeVal = codec.AppendFloat64
	tl := &listTimeline{}
	d := &durableTee[float64]{job: &job, store: store, clock: tl}
	seal := func(epoch int32) {
		d.offer(&checkpoint.Snapshot[VMsg[float64]]{
			Epoch:     epoch,
			States:    [][]byte{{1}, {2}},
			Rounds:    []int32{epoch, epoch},
			PEvalDone: []bool{true, true},
		})
	}
	check := func(when string, queued int, epochs []int32, dropped int64) {
		t.Helper()
		var st RunStats
		d.report(&st)
		if len(tl.evs) != queued || !reflect.DeepEqual(store.Epochs(), epochs) || st.DroppedSeals != dropped || st.DurableDegraded != "" {
			t.Fatalf("%s: %d writes queued, records %v, DroppedSeals %d, degraded %q; want %d, %v, %d, none",
				when, len(tl.evs), store.Epochs(), st.DroppedSeals, st.DurableDegraded, queued, epochs, dropped)
		}
	}

	seal(1)
	seal(2)
	check("two seals before the write", 1, nil, 1)
	tl.Next()
	check("the write ran", 0, []int32{2}, 1)

	seal(3)
	seal(4)
	seal(5)
	check("three more seals", 1, []int32{2}, 3)
	d.stop()
	check("stop", 1, []int32{2, 5}, 3)
	tl.Next() // the write queued before stop finds nothing to do
	check("the queued write after stop", 0, []int32{2, 5}, 3)

	seal(6)
	for tl.Next() {
	}
	if es := store.Epochs(); !reflect.DeepEqual(es, []int32{2, 5}) {
		t.Fatalf("a seal offered after stop was written: records %v", es)
	}
}
