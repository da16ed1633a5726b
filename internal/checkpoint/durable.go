// Durable mirrors the Store's seal protocol onto disk so a run survives
// the death of the whole process, not just a worker: every sealed
// snapshot becomes one crash-consistent record file, and a restarted
// process resumes from the newest record that still decodes.
//
// On-disk layout of a checkpoint directory:
//
//	ep-0000000001.ckpt    record: envelope + snapshot payload
//	ep-0000000002.ckpt
//	ep-0000000003.ckpt    (newest sealed epoch)
//	*.tmp                 in-progress writes, ignored by readers
//
// The directory listing is the index: the record names are the retained
// epochs, and any other file (a MANIFEST an older format wrote) is
// ignored. Every record carries a 20-byte envelope — magic, format
// version, epoch, payload length, CRC32 (IEEE) of the payload — so a torn
// tail, a bit flip, or a length-lying header is detected before any
// payload byte is trusted. Writes are crash-consistent by construction:
// the bytes go to a .tmp sibling first, are fsync'd, and land under
// their final name with an atomic rename followed by a directory fsync. A reader therefore never observes a
// half-written record under a record name; the worst a crash leaves
// behind is a stale .tmp and a missing newest epoch, both of which the
// open path tolerates by falling back to the previous sealed record.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"aap/internal/codec"
)

const (
	recordMagic = 0x43504141 // "AAPC" little-endian: checkpoint record
	// Version 2: flight messages lost version 1's round and sender, so a
	// version-1 record is refused rather than misread.
	durableVersion = 2
	envelopeBytes  = 20
)

// ErrNoSealedEpoch is returned when a checkpoint directory holds no
// record that decodes cleanly — nothing to resume from.
var ErrNoSealedEpoch = fmt.Errorf("checkpoint: no usable sealed epoch")

// DurableOptions tunes the file-backed store.
type DurableOptions struct {
	// Retain keeps the newest K epochs on disk and prunes older record
	// files. Defaults to 3; the floor is 2 so a corruption of the
	// newest record always leaves a fallback.
	Retain int
	// FS overrides the filesystem (fault-injection seam); nil uses the
	// real one.
	FS FS
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.Retain <= 0 {
		o.Retain = 3
	}
	if o.Retain < 2 {
		o.Retain = 2
	}
	if o.FS == nil {
		o.FS = OsFS()
	}
	return o
}

// DurableStore persists sealed snapshots as per-epoch record files in
// one directory. It is safe for concurrent use, and a reader in another
// process may poll the same directory while this store writes.
type DurableStore struct {
	dir  string
	opts DurableOptions

	mu     sync.Mutex
	epochs []int32 // retained epochs, ascending

	fsyncs atomic.Int64
	bytes  atomic.Int64
}

// OpenDurable opens (creating if needed) a checkpoint directory. It
// scans for existing record files but does not validate their contents;
// NewestSealed validates lazily, per candidate, so a corrupt record
// costs nothing until someone tries to resume from it.
func OpenDurable(dir string, opts DurableOptions) (*DurableStore, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open durable dir: %w", err)
	}
	d := &DurableStore{dir: dir, opts: opts}
	d.epochs = scanEpochs(opts.FS, dir)
	return d, nil
}

// Clear removes every record file from the directory, so the store
// holds no epoch until the next WriteEpoch: a fresh run owns its
// directory, and no record an earlier run left can be resumed as one of
// its own. A record it cannot remove is an error, since NewestSealed
// would still return it.
func (d *DurableStore) Clear() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range scanEpochs(d.opts.FS, d.dir) {
		if err := d.opts.FS.Remove(filepath.Join(d.dir, RecordFile(e))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("checkpoint: clear %s: %w", d.dir, err)
		}
	}
	d.epochs = nil
	return nil
}

// Dir returns the directory this store writes to.
func (d *DurableStore) Dir() string { return d.dir }

// FsyncCount returns how many fsync syscalls the store has issued.
func (d *DurableStore) FsyncCount() int64 { return d.fsyncs.Load() }

// BytesWritten returns the cumulative record bytes written.
func (d *DurableStore) BytesWritten() int64 { return d.bytes.Load() }

// RecordFile returns the file name of epoch's record inside a
// checkpoint directory; exported so tests and chaos harnesses can
// corrupt a specific record.
func RecordFile(epoch int32) string {
	return fmt.Sprintf("ep-%010d.ckpt", epoch)
}

func parseRecordName(name string) (int32, bool) {
	var e int32
	if n, err := fmt.Sscanf(name, "ep-%d.ckpt", &e); n != 1 || err != nil || e <= 0 {
		return 0, false
	}
	if RecordFile(e) != name {
		return 0, false
	}
	return e, true
}

func scanEpochs(fsys FS, dir string) []int32 {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var es []int32
	for _, ent := range ents {
		if e, ok := parseRecordName(ent.Name()); ok {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	return es
}

// WriteEpoch persists one sealed epoch's payload as a record file and
// prunes epochs beyond the retention window. Re-writing an existing
// epoch (a resumed run re-sealing past a corrupt tail) atomically
// replaces it.
func (d *DurableStore) WriteEpoch(epoch int32, payload []byte) error {
	if epoch <= 0 {
		return fmt.Errorf("checkpoint: cannot persist epoch %d", epoch)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := appendEnvelope(make([]byte, 0, envelopeBytes+len(payload)), epoch, payload)
	if err := d.writeAtomic(RecordFile(epoch), rec); err != nil {
		return err
	}
	d.bytes.Add(int64(len(rec)))

	// Insert into the retained set and prune the oldest beyond Retain.
	i := sort.Search(len(d.epochs), func(i int) bool { return d.epochs[i] >= epoch })
	if i == len(d.epochs) || d.epochs[i] != epoch {
		d.epochs = append(d.epochs, 0)
		copy(d.epochs[i+1:], d.epochs[i:])
		d.epochs[i] = epoch
	}
	for len(d.epochs) > d.opts.Retain {
		victim := d.epochs[0]
		d.epochs = d.epochs[1:]
		// Best-effort: a record that refuses to die only wastes disk,
		// and the next prune retries it anyway.
		_ = d.opts.FS.Remove(filepath.Join(d.dir, RecordFile(victim)))
	}
	return nil
}

// writeAtomic lands data under name via temp file + fsync + rename +
// directory fsync, so readers only ever see the old file or the
// complete new one, and a crash after it returns loses neither.
func (d *DurableStore) writeAtomic(name string, data []byte) error {
	fsys := d.opts.FS
	final := filepath.Join(d.dir, name)
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: fsync: %w", name, err)
	}
	d.fsyncs.Add(1)
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	if dirf, err := fsys.Open(d.dir); err == nil {
		if dirf.Sync() == nil {
			d.fsyncs.Add(1)
		}
		dirf.Close()
	}
	return nil
}

// NewestSealed returns the newest epoch whose record file decodes
// cleanly, with its snapshot payload. Candidates come from a directory
// scan and are tried newest-first: a torn, truncated, or bit-flipped
// record is skipped, falling back to the previous sealed epoch.
// ErrNoSealedEpoch when nothing decodes.
func (d *DurableStore) NewestSealed() (int32, []byte, error) {
	cands := scanEpochs(d.opts.FS, d.dir)
	for i := len(cands) - 1; i >= 0; i-- {
		e := cands[i]
		data, err := d.opts.FS.ReadFile(filepath.Join(d.dir, RecordFile(e)))
		if err != nil {
			continue
		}
		epoch, payload, err := DecodeRecord(data)
		if err != nil || epoch != e {
			continue // corrupt or misfiled: fall back to the next older
		}
		return e, payload, nil
	}
	return 0, nil, fmt.Errorf("%w in %s", ErrNoSealedEpoch, d.dir)
}

// Epochs returns the epochs currently on disk, ascending (contents not
// validated).
func (d *DurableStore) Epochs() []int32 {
	return scanEpochs(d.opts.FS, d.dir)
}

func appendEnvelope(dst []byte, epoch int32, payload []byte) []byte {
	dst = codec.AppendUint32(dst, recordMagic)
	dst = codec.AppendUint32(dst, durableVersion)
	dst = codec.AppendInt32(dst, epoch)
	dst = codec.AppendUint32(dst, uint32(len(payload)))
	dst = codec.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// DecodeRecord validates a record file's envelope and returns its epoch
// and snapshot payload. The payload aliases data. The 20-byte header is
// checked against the actual bytes present — the need-before-make guard:
// a length-lying header fails here before any payload byte is trusted.
func DecodeRecord(data []byte) (epoch int32, payload []byte, err error) {
	r := codec.NewReader(data)
	magic := r.Uint32()
	version := r.Uint32()
	epoch = r.Int32()
	plen := r.Uint32()
	crc := r.Uint32()
	if r.Err() != nil {
		return 0, nil, fmt.Errorf("checkpoint: truncated envelope (%d bytes)", len(data))
	}
	if magic != recordMagic {
		return 0, nil, fmt.Errorf("checkpoint: bad magic %#08x", magic)
	}
	if version != durableVersion {
		return 0, nil, fmt.Errorf("checkpoint: unsupported format version %d", version)
	}
	if epoch <= 0 {
		return 0, nil, fmt.Errorf("checkpoint: invalid epoch %d", epoch)
	}
	if int(plen) != r.Remaining() {
		return 0, nil, fmt.Errorf("checkpoint: payload length %d does not match %d bytes on disk", plen, r.Remaining())
	}
	payload = data[envelopeBytes:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return 0, nil, fmt.Errorf("checkpoint: CRC mismatch: header %#08x, payload %#08x", crc, got)
	}
	return epoch, payload, nil
}
