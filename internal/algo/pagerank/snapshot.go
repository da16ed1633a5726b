package pagerank

// Checkpoint support (core.Snapshotter): at round boundaries the
// frontier is drained and the held-back shares are folded in (each
// kernel round ends by emptying them), so the durable state of either
// kernel is the score and pending-delta arrays plus the round counter.
// Scores and deltas are serialized as float64s; the codec round trip is
// bit-exact, which the differential recovery tests rely on.

import (
	"fmt"

	"aap/internal/codec"
	"aap/internal/par"
)

func snapshotState(score, delta []float64, rounds int) []byte {
	buf := make([]byte, 0, 16*len(score)+16)
	buf = codec.AppendFloat64s(buf, score)
	buf = codec.AppendFloat64s(buf, delta)
	return codec.AppendInt64(buf, int64(rounds))
}

// restoreState fills score and delta from a snapshot and returns its
// round counter.
func restoreState(data []byte, score, delta []float64) (rounds int, err error) {
	r := codec.NewReader(data)
	sc, de, n := r.Float64s(), r.Float64s(), r.Int64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if len(sc) != len(score) || len(de) != len(delta) {
		return 0, fmt.Errorf("pagerank: snapshot has %d/%d slots, fragment has %d", len(sc), len(de), len(score))
	}
	copy(score, sc)
	copy(delta, de)
	return int(n), nil
}

// SnapshotState serializes the parallel kernel's durable state.
func (p *program) SnapshotState() []byte { return snapshotState(p.score, p.delta, p.rounds) }

// RestoreState rewinds the parallel kernel to a snapshot; whatever a
// round that never finished left in the frontier and in next is dropped.
func (p *program) RestoreState(data []byte) error {
	rounds, err := restoreState(data, p.score, p.delta)
	if err != nil {
		return err
	}
	p.rounds = rounds
	p.fr = par.NewFrontier(p.f.NumOwned())
	clear(p.next)
	clear(p.pend)
	return nil
}

// SnapshotState serializes the sequential reference kernel's durable
// state.
func (p *refProgram) SnapshotState() []byte { return snapshotState(p.score, p.delta, p.rounds) }

// RestoreState rewinds the sequential reference kernel to a snapshot.
func (p *refProgram) RestoreState(data []byte) error {
	rounds, err := restoreState(data, p.score, p.delta)
	if err != nil {
		return err
	}
	p.rounds = rounds
	clear(p.inQ)
	p.frontier, p.next = p.frontier[:0], p.next[:0]
	clear(p.late)
	return nil
}
