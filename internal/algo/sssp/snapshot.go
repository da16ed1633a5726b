package sssp

// Checkpoint support (core.Snapshotter): the engine calls these at
// round boundaries only, where every kernel's worklist is empty by the
// IncEval local-quiescence contract — the buckets are drained by
// sweep, the Dijkstra heap by dijkstra, and the copy-flush
// marks by flushBorder. The durable state is therefore just the
// distance array (as raw float bits, so the round trip is bit-exact)
// plus the kernel's work counters.

import (
	"fmt"

	"aap/internal/codec"
)

// SnapshotState serializes the bucketed kernel's durable state: the
// distances into the one pre-sized buffer, then the work counters.
func (p *deltaProgram) SnapshotState() []byte {
	buf := make([]byte, 0, 4+8*len(p.dist)+24)
	buf = codec.AppendFloat64s(buf, p.dist)
	buf = codec.AppendInt64(buf, int64(p.rounds))
	buf = codec.AppendInt64(buf, int64(p.buckets))
	buf = codec.AppendInt64(buf, p.relaxed)
	return buf
}

// RestoreState rewinds the bucketed kernel to a snapshot. The bucket
// window needs no repair: IncEval restarts it at the smallest incoming
// improvement before staging anything.
func (p *deltaProgram) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	dist := r.Float64s()
	rounds := r.Int64()
	buckets := r.Int64()
	relaxed := r.Int64()
	if err := r.Err(); err != nil {
		return err
	}
	if len(dist) != len(p.dist) {
		return fmt.Errorf("sssp: snapshot has %d slots, fragment has %d", len(dist), len(p.dist))
	}
	copy(p.dist, dist)
	p.rounds = int(rounds)
	p.buckets = int(buckets)
	p.relaxed = relaxed
	for range p.copyChanged.Drain() { // discard marks of the abandoned execution
	}
	return nil
}

// SnapshotState serializes the sequential reference kernel's durable
// state.
func (p *refProgram) SnapshotState() []byte {
	buf := make([]byte, 0, 4+8*len(p.dist)+8)
	buf = codec.AppendFloat64s(buf, p.dist)
	buf = codec.AppendInt64(buf, p.relaxed)
	return buf
}

// RestoreState rewinds the sequential reference kernel to a snapshot.
func (p *refProgram) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	dist := r.Float64s()
	relaxed := r.Int64()
	if err := r.Err(); err != nil {
		return err
	}
	if len(dist) != len(p.dist) {
		return fmt.Errorf("sssp: snapshot has %d slots, fragment has %d", len(dist), len(p.dist))
	}
	copy(p.dist, dist)
	p.relaxed = relaxed
	p.pq.items = p.pq.items[:0]
	p.changedCopies = p.changedCopies[:0]
	clear(p.copyChanged)
	return nil
}
