package cc

// Checkpoint support (core.Snapshotter): at round boundaries the only
// durable state is the union-find forest and the per-root cids — the
// changed-root worklist is drained within each IncEval. copiesOf is
// derived from the forest (fixed after PEval), so it is rebuilt on
// restore rather than serialized; a presence flag distinguishes "PEval
// ran" from a fresh program, since a pre-PEval snapshot has no forest to
// index.

import (
	"fmt"

	"aap/internal/codec"
)

// SnapshotState serializes the union-find kernel's durable state.
func (p *program) SnapshotState() []byte {
	buf := make([]byte, 0, 4*len(p.parent)+8*len(p.cid)+16)
	buf = codec.AppendInt32s(buf, p.parent)
	buf = codec.AppendInt64s(buf, p.cid)
	buf = codec.AppendBool(buf, p.copiesOf != nil)
	return buf
}

// RestoreState rewinds the union-find kernel to a snapshot and rebuilds
// the root→copies index from the restored forest.
func (p *program) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	parent := r.Int32s()
	cid := r.Int64s()
	built := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if len(parent) != len(p.parent) || len(cid) != len(p.cid) {
		return fmt.Errorf("cc: snapshot has %d/%d slots, fragment has %d", len(parent), len(cid), len(p.parent))
	}
	copy(p.parent, parent)
	copy(p.cid, cid)
	if built {
		p.copiesOf = make([][]int32, len(parent))
		for _, v := range p.f.Out {
			root := p.find(p.f.Slot(v))
			p.copiesOf[root] = append(p.copiesOf[root], v)
		}
	} else {
		p.copiesOf = nil
	}
	p.changedRoots = p.changedRoots[:0]
	clear(p.rootChanged)
	return nil
}
