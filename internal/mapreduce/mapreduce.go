// Package mapreduce implements the optimal simulation of MapReduce by
// the AAP/GRAPE model (Theorem 4 of the paper): a sequence of
// mapper/reducer subroutines is compiled into a single PIE program over a
// worker clique G_W, where the status variable of each clique node is a
// multiset of (round, key, value) tuples and designated messages carry
// the shuffled tuples.
//
// The compiled program self-synchronizes: a worker runs reducer ρ_r only
// after it has received the round-r shuffle from every worker, so the
// simulation is correct under any AAP schedule (AP, BSP, SSP or adaptive)
// and costs O(T) time and O(C) communication of the original job.
package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sort"

	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// KV is one key/value pair.
type KV struct {
	Key   string
	Value string
}

// Mapper transforms one input pair into zero or more output pairs.
type Mapper func(kv KV, emit func(KV))

// Reducer folds all values of one key into zero or more output pairs.
type Reducer func(key string, values []string, emit func(KV))

// Round is one MapReduce subroutine B_r = (µ_r, ρ_r).
type Round struct {
	Map    Mapper
	Reduce Reducer
}

// Job is a MapReduce job: a sequence of rounds executed by n workers.
type Job struct {
	Rounds  []Round
	Workers int
}

// Run executes the job directly (the reference semantics): each round
// maps every pair, groups by key, and reduces each group. Output order is
// normalized by key then value.
func Run(job Job, input []KV) ([]KV, error) {
	if len(job.Rounds) == 0 {
		return nil, fmt.Errorf("mapreduce: job has no rounds")
	}
	cur := append([]KV(nil), input...)
	for _, r := range job.Rounds {
		var mapped []KV
		for _, kv := range cur {
			r.Map(kv, func(out KV) { mapped = append(mapped, out) })
		}
		groups := make(map[string][]string)
		for _, kv := range mapped {
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var reduced []KV
		for _, k := range keys {
			vs := groups[k]
			sort.Strings(vs)
			r.Reduce(k, vs, func(out KV) { reduced = append(reduced, out) })
		}
		cur = reduced
	}
	Sort(cur)
	return cur, nil
}

// tuple is a shuffled pair tagged with its round.
type tuple struct {
	Round int32
	KV    KV
}

// shuffleBatch is the unit shipped between workers: all round-r tuples
// from one sender (possibly none — the batch doubles as the "mapper
// finished" marker the self-synchronization needs).
type shuffleBatch struct {
	Round  int32
	From   int32
	Tuples []KV
}

// Payload is the message value of the compiled PIE program: batches are
// concatenated by the aggregate function and untangled by round/sender in
// IncEval.
type Payload struct {
	Batches []shuffleBatch
}

// payloadBytes estimates the wire size of a payload.
func payloadBytes(p Payload) int {
	n := 8
	for _, b := range p.Batches {
		n += 8
		for _, kv := range b.Tuples {
			n += 8 + len(kv.Key) + len(kv.Value)
		}
	}
	return n
}

// RunOnAAP executes the job by compiling it to a PIE program and running
// it on the AAP engine under opts (any mode).
func RunOnAAP(job Job, input []KV, opts core.Options) ([]KV, error) {
	if len(job.Rounds) == 0 {
		return nil, fmt.Errorf("mapreduce: job has no rounds")
	}
	n := job.Workers
	if n <= 0 {
		n = 4
	}
	// G_W: a clique of n nodes, one per worker, so that every pair of
	// workers can exchange data through border-node update parameters.
	b := graph.NewBuilder(true)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VertexID(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
	}
	clique := b.Build()
	p, err := partition.Build(clique, n, partition.Range{})
	if err != nil {
		return nil, err
	}
	// Round-robin input distribution, as A would do.
	parts := make([][]KV, n)
	for i, kv := range input {
		parts[i%n] = append(parts[i%n], kv)
	}
	coreJob := core.Job[Payload]{
		Name: "mapreduce",
		New: func(f *partition.Fragment) core.Program[Payload] {
			return &program{f: f, job: job, n: n, input: parts[f.ID], pending: make(map[int32][]shuffleBatch)}
		},
		Aggregate: func(a, b Payload) Payload {
			return Payload{Batches: append(append([]shuffleBatch(nil), a.Batches...), b.Batches...)}
		},
		Bytes: payloadBytes,
	}
	res, err := core.Run(p, coreJob, opts)
	if err != nil {
		return nil, err
	}
	var out []KV
	for _, v := range res.Values {
		for _, b := range v.Batches {
			out = append(out, b.Tuples...)
		}
	}
	Sort(out)
	return out, nil
}

// Sort orders pairs by key then value, the normalized output order.
func Sort(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].Key != kvs[j].Key {
			return kvs[i].Key < kvs[j].Key
		}
		return kvs[i].Value < kvs[j].Value
	})
}

func workerOf(key string, n int) int32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int32(h.Sum32() % uint32(n))
}

// program is the per-worker half of the compiled PIE program.
type program struct {
	f     *partition.Fragment
	job   Job
	n     int
	input []KV

	// pending[r] collects the round-r shuffle batches received so far;
	// reducer ρ_r runs once all n are present.
	pending map[int32][]shuffleBatch
	nextR   int32 // next round whose reducer is due
	output  []KV  // final tuples owned by this worker
	done    bool
}

// self returns the clique vertex owned by this worker.
func (p *program) self() int32 { return p.f.Lo }

// PEval runs mapper µ_1 on the local input share and shuffles the output
// (Theorem 4 step 1).
func (p *program) PEval(ctx *core.Context[Payload]) {
	p.nextR = 1
	p.shuffle(ctx, 1, p.mapLocal(0, p.input))
	p.drain(ctx)
}

// IncEval accumulates shuffle batches; whenever all n round-r batches
// are present it runs ρ_r (and µ_{r+1} unless r is the last round) and
// shuffles onward (Theorem 4 step 2).
func (p *program) IncEval(msgs []core.VMsg[Payload], ctx *core.Context[Payload]) {
	for _, m := range msgs {
		for _, b := range m.Val.Batches {
			p.pending[b.Round] = append(p.pending[b.Round], b)
		}
	}
	ctx.AddWork(len(msgs))
	p.drain(ctx)
}

// Get returns the worker's final output as a payload.
func (p *program) Get(int32) Payload {
	return Payload{Batches: []shuffleBatch{{Tuples: p.output}}}
}

// mapLocal applies mapper µ_{r+1} (0-based index r) to pairs.
func (p *program) mapLocal(round int, pairs []KV) []KV {
	var out []KV
	m := p.job.Rounds[round].Map
	for _, kv := range pairs {
		m(kv, func(o KV) { out = append(out, o) })
	}
	return out
}

// shuffle groups pairs by destination worker and ships one round-r batch
// to every worker (empty batches serve as completion markers).
func (p *program) shuffle(ctx *core.Context[Payload], round int32, pairs []KV) {
	byWorker := make([][]KV, p.n)
	for _, kv := range pairs {
		w := workerOf(kv.Key, p.n)
		byWorker[w] = append(byWorker[w], kv)
	}
	ctx.AddWork(len(pairs) + 1)
	for w := 0; w < p.n; w++ {
		batch := shuffleBatch{Round: round, From: int32(p.f.ID), Tuples: byWorker[w]}
		if w == p.f.ID {
			p.pending[round] = append(p.pending[round], batch)
			continue
		}
		// Clique node w is owned by worker w and a border copy everywhere
		// else: the shuffle is an ordinary update-parameter send.
		ctx.Send(int32(w), Payload{Batches: []shuffleBatch{batch}})
	}
}

// drain runs as many due reducer/mapper phases as the accumulated batches
// allow.
func (p *program) drain(ctx *core.Context[Payload]) {
	for !p.done && len(p.pending[p.nextR]) >= p.n {
		r := p.nextR
		batches := p.pending[r]
		delete(p.pending, r)
		groups := make(map[string][]string)
		for _, b := range batches {
			for _, kv := range b.Tuples {
				groups[kv.Key] = append(groups[kv.Key], kv.Value)
			}
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var reduced []KV
		reduce := p.job.Rounds[r-1].Reduce
		for _, k := range keys {
			vs := groups[k]
			sort.Strings(vs)
			reduce(k, vs, func(o KV) { reduced = append(reduced, o) })
		}
		ctx.AddWork(len(reduced) + len(keys))
		if int(r) == len(p.job.Rounds) {
			p.output = reduced
			p.done = true
			return
		}
		p.nextR = r + 1
		p.shuffle(ctx, p.nextR, p.mapLocal(int(r), reduced))
	}
}
