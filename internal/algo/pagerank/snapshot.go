package pagerank

// Checkpoint support (core.Snapshotter): at round boundaries the
// frontier is drained, so the kernel's durable state is the score and
// pending-delta arrays plus the round counter.
// Scores and deltas are serialized as float64s; the codec round trip is
// bit-exact, which the differential recovery tests rely on.

import (
	"fmt"

	"aap/internal/codec"
	"aap/internal/par"
)

// SnapshotState serializes the kernel's durable state.
func (p *program) SnapshotState() []byte {
	buf := make([]byte, 0, 16*len(p.score)+16)
	buf = codec.AppendFloat64s(buf, p.score)
	buf = codec.AppendFloat64s(buf, p.delta)
	return codec.AppendInt64(buf, int64(p.rounds))
}

// RestoreState rewinds the kernel to a snapshot; whatever a round that
// never finished left in the frontier is dropped.
func (p *program) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	score, delta, rounds := r.Float64s(), r.Float64s(), r.Int64()
	if err := r.Err(); err != nil {
		return err
	}
	if len(score) != len(p.score) || len(delta) != len(p.delta) {
		return fmt.Errorf("pagerank: snapshot has %d/%d slots, fragment has %d", len(score), len(delta), len(p.score))
	}
	copy(p.score, score)
	copy(p.delta, delta)
	p.rounds = int(rounds)
	p.fr = par.NewFrontier(p.f.NumOwned())
	return nil
}
