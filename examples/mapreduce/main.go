// MapReduce: Theorem 4 of the paper, self-checking. A MapReduce job is
// compiled into one PIE program over a worker clique G_W: node w is owned
// by worker w, its update parameter carries the pairs shuffled to w, and
// f_aggr concatenates them. A worker runs reducer r only once every
// worker's round-r shuffle has arrived, so any schedule is correct: the
// two-round job below must match its direct computation under AAP, BSP,
// AP and SSP on 1, 3 and 8 workers, or the program exits 1.
package main

import (
	"fmt"
	"hash/crc32"
	"log"
	"slices"
	"strings"

	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

type kv struct{ k, v string }

// round is one MapReduce subroutine: mapper µ_r, then reducer ρ_r per key.
type round struct {
	mapper  func(kv) []kv
	reducer func(key string, vals []string) kv
}

func (r round) mapAll(in []kv) (out []kv) {
	for _, p := range in {
		out = append(out, r.mapper(p)...)
	}
	return out
}

func (r round) reduceAll(in ...batch) (out []kv) {
	groups := map[string][]string{}
	for _, b := range in {
		for _, p := range b.pairs {
			groups[p.k] = append(groups[p.k], p.v)
		}
	}
	for k, vs := range groups {
		out = append(out, r.reducer(k, vs))
	}
	return out
}

// batch is what one worker's round-r mapper has for one worker; an empty
// batch still travels, as the "mapper finished" marker.
type batch struct {
	round int
	pairs []kv
}

type worker struct { // the per-fragment half of the compiled program
	n      int
	rounds []round
	pairs  []kv            // the local input, then each reducer's output
	got    map[int][]batch // round -> shuffle batches received so far
	next   int             // the round whose reducer is due
}

// shuffle runs mapper r on the local pairs and ships one batch to every
// worker, this one included (a send to an owned vertex arrives locally).
func (w *worker) shuffle(ctx *core.Context[[]batch], r int) {
	byWorker := make([][]kv, w.n)
	for _, p := range w.rounds[r].mapAll(w.pairs) {
		j := int(crc32.ChecksumIEEE([]byte(p.k))) % w.n
		byWorker[j] = append(byWorker[j], p)
	}
	for j, ps := range byWorker {
		ctx.Send(int32(j), []batch{{r, ps}})
	}
}

func (w *worker) PEval(ctx *core.Context[[]batch]) { w.shuffle(ctx, 0) }

func (w *worker) IncEval(msgs []core.VMsg[[]batch], ctx *core.Context[[]batch]) {
	for _, m := range msgs {
		for _, b := range m.Val {
			w.got[b.round] = append(w.got[b.round], b)
		}
	}
	for w.next < len(w.rounds) && len(w.got[w.next]) == w.n {
		w.pairs = w.rounds[w.next].reduceAll(w.got[w.next]...)
		if w.next++; w.next < len(w.rounds) {
			w.shuffle(ctx, w.next)
		}
	}
}

func (w *worker) Get(int32) []batch { return []batch{{pairs: w.pairs}} }

// onAAP compiles the job for n workers and runs it on the engine.
func onAAP(rounds []round, input []kv, n int, opts core.Options) (out []kv) {
	b := graph.NewBuilder(true)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ { // loops too: a worker shuffles to itself as well
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	p, err := partition.Build(b.Build(), n, partition.Range{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(p, core.Job[[]batch]{
		Name: "mapreduce",
		New: func(f *partition.Fragment) core.Program[[]batch] {
			share := input[f.ID*len(input)/n : (f.ID+1)*len(input)/n]
			return &worker{n: n, rounds: rounds, pairs: share, got: map[int][]batch{}}
		},
		Aggregate: func(a, b []batch) []batch { return append(slices.Clone(a), b...) },
	}, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range res.Values {
		out = append(out, v[0].pairs...)
	}
	return out
}

func main() {
	one := func(p kv) []kv { return []kv{{p.v, "1"}} }  // µ_1: word -> (word, 1)
	swap := func(p kv) []kv { return []kv{{p.v, p.k}} } // µ_2: (word, count) -> (count, word)
	count := func(k string, vs []string) kv { return kv{k, fmt.Sprint(len(vs))} }
	rounds := []round{{one, count}, {swap, count}}
	var input []kv
	for _, w := range strings.Fields("the quick brown fox jumps over the lazy dog the dog barks and the fox runs over the hill") {
		input = append(input, kv{v: w})
	}
	byKey := func(a, b kv) int { return strings.Compare(a.k, b.k) }
	want := input
	for _, r := range rounds {
		want = r.reduceAll(batch{pairs: r.mapAll(want)})
	}
	slices.SortFunc(want, byKey)
	for _, n := range []int{1, 3, 8} {
		for _, opts := range []core.Options{{Mode: core.AAP}, {Mode: core.BSP}, {Mode: core.AP}, {Mode: core.SSP, Staleness: 2}} {
			got := onAAP(rounds, input, n, opts)
			slices.SortFunc(got, byKey)
			if !slices.Equal(got, want) {
				log.Fatalf("%s on %d workers: got %v, want %v", opts.Mode, n, got, want)
			}
			fmt.Printf("%-4s on %d workers: words per count %v, as computed directly\n", opts.Mode, n, got)
		}
	}
}
