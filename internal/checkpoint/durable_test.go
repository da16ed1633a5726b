package checkpoint_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"aap/internal/checkpoint"
	"aap/internal/codec"
)

func encInt64(dst []byte, v int64) []byte { return codec.AppendInt64(dst, v) }
func decInt64(r *codec.Reader) int64      { return r.Int64() }
func mustOpen(t *testing.T) (*checkpoint.DurableStore, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

func testSnapshot(epoch int32) *checkpoint.Snapshot[int64] {
	return &checkpoint.Snapshot[int64]{
		Epoch:     epoch,
		States:    [][]byte{codec.AppendInt64(nil, 70), codec.AppendInt64(nil, 100)},
		Rounds:    []int32{3, 2},
		PEvalDone: []bool{true, false},
		InFlight: []checkpoint.Flight[int64]{
			{From: 0, To: 1, Msgs: []int64{30, int64(epoch)}},
		},
	}
}

func writeEpoch(t *testing.T, d *checkpoint.DurableStore, epoch int32) {
	t.Helper()
	payload := checkpoint.EncodeSnapshot(testSnapshot(epoch), encInt64)
	if err := d.WriteEpoch(epoch, payload); err != nil {
		t.Fatal(err)
	}
}

// TestRecordFutureEpoch pins the named-error contract: a Record for an
// epoch that was never announced is rejected with ErrFutureEpoch, both
// on an idle store and while an older epoch is pending.
func TestRecordFutureEpoch(t *testing.T) {
	st := checkpoint.NewStore[int64](2, &checkpoint.Ledger{})
	if err := st.Record(0, 5, nil, 0, false, nil); !errors.Is(err, checkpoint.ErrFutureEpoch) {
		t.Fatalf("record for unannounced epoch 5: err = %v, want ErrFutureEpoch", err)
	}
	st.Announce() // epoch 1 pending
	if err := st.Record(0, 2, nil, 0, false, nil); !errors.Is(err, checkpoint.ErrFutureEpoch) {
		t.Fatalf("record for epoch 2 while 1 pending: err = %v, want ErrFutureEpoch", err)
	}
	// The benign misuses keep their generic (non-future) errors.
	if err := st.Record(0, 1, nil, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Record(0, 1, nil, 0, false, nil); errors.Is(err, checkpoint.ErrFutureEpoch) || err == nil {
		t.Fatalf("double record: err = %v, want a non-future error", err)
	}
}

// TestOnSealHook: the tee fires once per seal with the sealed snapshot.
func TestOnSealHook(t *testing.T) {
	st := checkpoint.NewStore[int64](2, &checkpoint.Ledger{})
	var sealed []int32
	st.SetOnSeal(func(s *checkpoint.Snapshot[int64]) { sealed = append(sealed, s.Epoch) })
	for e := int32(1); e <= 3; e++ {
		st.Announce()
		st.Record(0, e, nil, 0, true, nil)
		st.Record(1, e, nil, 0, true, nil)
	}
	if len(sealed) != 3 || sealed[0] != 1 || sealed[2] != 3 {
		t.Fatalf("onSeal fired for %v, want [1 2 3]", sealed)
	}
}

// TestSeed: a seeded store continues the epoch numbering of the run
// that wrote the snapshot and does not count the seed as a fresh seal.
func TestSeed(t *testing.T) {
	st := checkpoint.NewStore[int64](2, &checkpoint.Ledger{})
	st.Seed(testSnapshot(4))
	if st.SealedEpoch() != 4 || st.AnnouncedEpoch() != 4 {
		t.Fatalf("seeded store at (sealed %d, announced %d), want (4, 4)", st.SealedEpoch(), st.AnnouncedEpoch())
	}
	if st.SealedCount() != 0 {
		t.Fatalf("seed counted as a seal: %d", st.SealedCount())
	}
	if e, ok := st.Announce(); !ok || e != 5 {
		t.Fatalf("announce after seed = (%d, %v), want (5, true)", e, ok)
	}
	st.Record(0, 5, nil, 0, true, nil)
	st.Record(1, 5, nil, 0, true, nil)
	if st.SealedEpoch() != 5 || st.SealedCount() != 1 {
		t.Fatalf("post-seed seal: epoch %d count %d, want 5 and 1", st.SealedEpoch(), st.SealedCount())
	}
}

// TestDurableRoundtrip: a written epoch reads back bit-identical
// through the envelope and snapshot codec.
func TestDurableRoundtrip(t *testing.T) {
	d, dir := mustOpen(t)
	writeEpoch(t, d, 1)
	writeEpoch(t, d, 2)

	// A second store opened on the same directory (the restarted
	// process) must see the same newest epoch.
	d2, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, payload, err := d2.NewestSealed()
	if err != nil {
		t.Fatal(err)
	}
	if e != 2 {
		t.Fatalf("newest sealed = %d, want 2", e)
	}
	snap, err := checkpoint.DecodeSnapshot(e, payload, 2, decInt64)
	if err != nil {
		t.Fatal(err)
	}
	want := testSnapshot(2)
	if snap.Epoch != want.Epoch || len(snap.States) != 2 ||
		string(snap.States[0]) != string(want.States[0]) ||
		snap.Rounds[0] != 3 || snap.Rounds[1] != 2 ||
		!snap.PEvalDone[0] || snap.PEvalDone[1] ||
		len(snap.InFlight) != 1 || snap.InFlight[0].Msgs[1] != 2 {
		t.Fatalf("decoded snapshot %+v does not match written %+v", snap, want)
	}
	if d.BytesWritten() == 0 || d.FsyncCount() == 0 {
		t.Fatalf("accounting: bytes %d fsyncs %d, want both > 0", d.BytesWritten(), d.FsyncCount())
	}
}

// TestDurableRetention: only the newest Retain epochs stay on disk, and
// a store reopened on the directory sees exactly those.
func TestDurableRetention(t *testing.T) {
	dir := t.TempDir()
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for e := int32(1); e <= 5; e++ {
		writeEpoch(t, d, e)
	}
	reopened, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]int32{d.Epochs(), reopened.Epochs()} {
		if !slices.Equal(got, []int32{4, 5}) {
			t.Fatalf("retained epochs %v, want [4 5]", got)
		}
	}
}

// TestDurableClear: Clear empties the directory of records, and the
// epochs written after it are the only ones retained — none of the
// earlier writer's survive beside them.
func TestDurableClear(t *testing.T) {
	dir := t.TempDir()
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for e := int32(1); e <= 5; e++ {
		writeEpoch(t, d, e)
	}
	fresh, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Clear(); err != nil {
		t.Fatal(err)
	}
	if es := fresh.Epochs(); len(es) != 0 {
		t.Fatalf("epochs after Clear: %v, want none", es)
	}
	if _, _, err := fresh.NewestSealed(); !errors.Is(err, checkpoint.ErrNoSealedEpoch) {
		t.Fatalf("newest after Clear: err = %v, want ErrNoSealedEpoch", err)
	}
	for e := int32(1); e <= 2; e++ {
		writeEpoch(t, fresh, e)
	}
	if es := fresh.Epochs(); !slices.Equal(es, []int32{1, 2}) {
		t.Fatalf("epochs after Clear and two writes: %v, want [1 2]", es)
	}
}

// TestDurableSyncsEveryWrite: every record write fsyncs the record, then
// its directory, so a crash never loses an epoch WriteEpoch returned.
func TestDurableSyncsEveryWrite(t *testing.T) {
	d, err := checkpoint.OpenDurable(t.TempDir(), checkpoint.DurableOptions{Retain: 10})
	if err != nil {
		t.Fatal(err)
	}
	for e := int32(1); e <= 6; e++ {
		writeEpoch(t, d, e)
	}
	if n := d.FsyncCount(); n != 12 {
		t.Fatalf("fsyncs = %d over 6 writes, want 12", n)
	}
	if e, _, err := d.NewestSealed(); err != nil || e != 6 {
		t.Fatalf("newest = (%d, %v), want 6", e, err)
	}
}

// TestDurableFallback: a truncated or bit-flipped newest record (the
// torn tail a crash leaves) falls back to the previous sealed epoch; a
// garbage MANIFEST, as an older format left beside its records, costs
// nothing because the directory scan is the authority.
func TestDurableFallback(t *testing.T) {
	corrupt := func(t *testing.T, name string, f func(b []byte) []byte) func(dir string) {
		return func(dir string) {
			t.Helper()
			p := filepath.Join(dir, name)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, f(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		mangle func(dir string)
		want   int32
	}{
		{"truncated newest", corrupt(t, checkpoint.RecordFile(3), func(b []byte) []byte { return b[:len(b)/2] }), 2},
		{"bitflip newest payload", corrupt(t, checkpoint.RecordFile(3), func(b []byte) []byte {
			b[len(b)-3] ^= 0x40
			return b
		}), 2},
		{"bitflip newest header", corrupt(t, checkpoint.RecordFile(3), func(b []byte) []byte {
			b[1] ^= 0x01
			return b
		}), 2},
		{"empty newest", corrupt(t, checkpoint.RecordFile(3), func(b []byte) []byte { return nil }), 2},
		{"manifest garbage", func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("not a manifest"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 3},
		{"newest and middle corrupt", func(dir string) {
			corrupt(t, checkpoint.RecordFile(3), func(b []byte) []byte { return b[:10] })(dir)
			corrupt(t, checkpoint.RecordFile(2), func(b []byte) []byte { b[25] ^= 0xff; return b })(dir)
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{Retain: 5})
			if err != nil {
				t.Fatal(err)
			}
			for e := int32(1); e <= 3; e++ {
				writeEpoch(t, d, e)
			}
			tc.mangle(dir)
			reopened, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e, payload, err := reopened.NewestSealed()
			if err != nil {
				t.Fatal(err)
			}
			if e != tc.want {
				t.Fatalf("fell back to epoch %d, want %d", e, tc.want)
			}
			if _, err := checkpoint.DecodeSnapshot(e, payload, 2, decInt64); err != nil {
				t.Fatalf("fallback epoch %d undecodable: %v", e, err)
			}
		})
	}
}

// TestDurableNoSealedEpoch: an empty directory, one with only damaged
// records, and one with only a stray .tmp all report ErrNoSealedEpoch.
func TestDurableNoSealedEpoch(t *testing.T) {
	d, dir := mustOpen(t)
	if _, _, err := d.NewestSealed(); !errors.Is(err, checkpoint.ErrNoSealedEpoch) {
		t.Fatalf("empty dir: err = %v, want ErrNoSealedEpoch", err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpoint.RecordFile(1)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpoint.RecordFile(2)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.NewestSealed(); !errors.Is(err, checkpoint.ErrNoSealedEpoch) {
		t.Fatalf("only damaged files: err = %v, want ErrNoSealedEpoch", err)
	}
}

// TestDurableRewriteEpoch: a resumed run re-sealing an epoch number
// whose old record was corrupt atomically replaces it.
func TestDurableRewriteEpoch(t *testing.T) {
	d, dir := mustOpen(t)
	writeEpoch(t, d, 1)
	writeEpoch(t, d, 2)
	p := filepath.Join(dir, checkpoint.RecordFile(2))
	b, _ := os.ReadFile(p)
	b[len(b)-1] ^= 0xff
	os.WriteFile(p, b, 0o644)
	writeEpoch(t, d, 2) // the resumed run seals a fresh epoch 2
	e, payload, err := d.NewestSealed()
	if err != nil || e != 2 {
		t.Fatalf("newest after rewrite = (%d, %v), want 2", e, err)
	}
	if _, err := checkpoint.DecodeSnapshot(e, payload, 2, decInt64); err != nil {
		t.Fatal(err)
	}
}

// failFS wraps the real filesystem with switchable write/fsync/open
// failures — the full-disk / dying-device model for the durable store.
type failFS struct {
	checkpoint.FS
	failWrite atomic.Bool
	failSync  atomic.Bool
	failOpen  atomic.Bool
}

var errDiskFull = errors.New("no space left on device (injected)")

func newFailFS() *failFS { return &failFS{FS: checkpoint.OsFS()} }

func (f *failFS) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	if f.failOpen.Load() {
		return nil, errDiskFull
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, fs: f}, nil
}

type failFile struct {
	checkpoint.File
	fs *failFS
}

func (f *failFile) Write(b []byte) (int, error) {
	if f.fs.failWrite.Load() {
		return 0, errDiskFull
	}
	return f.File.Write(b)
}

func (f *failFile) Sync() error {
	if f.fs.failSync.Load() {
		return errDiskFull
	}
	return f.File.Sync()
}

// TestDurableFailingDisk drives WriteEpoch into every injected failure
// mode and pins the degradation contract: the call returns the error
// (never panics or wedges), leaves no .tmp litter under a record name,
// and NewestSealed keeps serving the last epoch that landed before the
// disk died.
func TestDurableFailingDisk(t *testing.T) {
	fsys := newFailFS()
	dir := t.TempDir()
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	writeEpoch(t, d, 1)
	writeEpoch(t, d, 2)

	fail := func(name string, arm func(bool)) {
		t.Helper()
		arm(true)
		payload := checkpoint.EncodeSnapshot(testSnapshot(3), encInt64)
		err := d.WriteEpoch(3, payload)
		arm(false)
		if err == nil {
			t.Fatalf("%s: WriteEpoch succeeded on a failing disk", name)
		}
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("%s: injected error not surfaced: %v", name, err)
		}
		ep, _, nerr := d.NewestSealed()
		if nerr != nil || ep != 2 {
			t.Fatalf("%s: newest sealed after failure: epoch %d err %v, want 2", name, ep, nerr)
		}
	}
	fail("write", func(b bool) { fsys.failWrite.Store(b) })
	fail("fsync", func(b bool) { fsys.failSync.Store(b) })
	fail("open", func(b bool) { fsys.failOpen.Store(b) })

	// The disk comes back: the store must not have latched the failure.
	writeEpoch(t, d, 3)
	if ep, _, err := d.NewestSealed(); err != nil || ep != 3 {
		t.Fatalf("after recovery: epoch %d err %v, want 3", ep, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("failed write leaked temp file %s", e.Name())
		}
	}
}

// TestDurableFailingDiskAtOpen: a directory that cannot even be created
// surfaces the error from OpenDurable.
func TestDurableFailingDiskAtOpen(t *testing.T) {
	fsys := newFailFS()
	mk := &failMkdirFS{FS: fsys}
	if _, err := checkpoint.OpenDurable(filepath.Join(t.TempDir(), "sub"), checkpoint.DurableOptions{FS: mk}); !errors.Is(err, errDiskFull) {
		t.Fatalf("OpenDurable on failing mkdir: %v", err)
	}
}

type failMkdirFS struct{ checkpoint.FS }

func (failMkdirFS) MkdirAll(string, os.FileMode) error { return errDiskFull }
