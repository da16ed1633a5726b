package algo_test

import (
	"math"
	"math/rand"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/cf"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/vcentric"
)

// TestAggregateLaws property-tests every shipped Job.Aggregate for the
// laws AAP's reordering rests on (the paper's Church–Rosser condition,
// and the reason a message is just (vertex, value)): f_aggr must be
// commutative and associative. Commutativity is checked exactly, bit for
// bit. Associativity is exact for the mins — ±0 and +Inf included — and
// within 1e-12 of the operands' magnitude for the float sums, whose
// rounding depends on grouping.
//
// examples/mapreduce's Aggregate, append, is the known non-commutative
// aggregate and the negative control: its result is the arrival order,
// and the example is correct only because it compares its output as a
// sorted multiset. It is not tested here.
func TestAggregateLaws(t *testing.T) {
	const trials = 4000
	rng := rand.New(rand.NewSource(38))
	negZero := math.Copysign(0, -1)
	edges := []float64{0, negZero, math.Inf(1), 1, 1e-310, math.MaxFloat64}
	// dist draws a min operand: a signed zero, +Inf, a subnormal or a
	// finite value of either sign, so ties and extremes come up often.
	dist := func() float64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	// share draws a sum operand: a non-negative finite value over twelve
	// orders of magnitude, as PageRank's shares are.
	share := func() float64 {
		return rng.Float64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	near := func(a, b, scale float64) bool { return math.Abs(a-b) <= 1e-12*scale }

	mins := []struct {
		name string
		agg  func(a, b float64) float64
	}{
		{"sssp.Job", sssp.Job(0).Aggregate},
		{"vcentric SSSPProgram", vcentric.Job(vcentric.SSSPProgram{}).Aggregate},
		{"vcentric CCProgram", vcentric.Job(vcentric.CCProgram{}).Aggregate},
	}
	for _, j := range mins {
		for i := 0; i < trials; i++ {
			a, b, c := dist(), dist(), dist()
			if ab, ba := j.agg(a, b), j.agg(b, a); !same(ab, ba) {
				t.Fatalf("%s: agg(%v, %v) = %v, agg(%v, %v) = %v", j.name, a, b, ab, b, a, ba)
			}
			if l, r := j.agg(j.agg(a, b), c), j.agg(a, j.agg(b, c)); !same(l, r) {
				t.Fatalf("%s: (%v·%v)·%v = %v, %v·(%v·%v) = %v", j.name, a, b, c, l, a, b, c, r)
			}
		}
	}

	sums := []struct {
		name string
		agg  func(a, b float64) float64
	}{
		{"pagerank.Job", pagerank.Job(pagerank.Config{}).Aggregate},
		{"vcentric PageRankProgram", vcentric.Job(vcentric.PageRankProgram{}).Aggregate},
	}
	for _, j := range sums {
		for i := 0; i < trials; i++ {
			a, b, c := share(), share(), share()
			if ab, ba := j.agg(a, b), j.agg(b, a); !same(ab, ba) {
				t.Fatalf("%s: agg(%v, %v) = %v, agg(%v, %v) = %v", j.name, a, b, ab, b, a, ba)
			}
			if l, r := j.agg(j.agg(a, b), c), j.agg(a, j.agg(b, c)); !near(l, r, a+b+c) {
				t.Fatalf("%s: (%v+%v)+%v = %v, %v+(%v+%v) = %v", j.name, a, b, c, l, a, b, c, r)
			}
		}
	}

	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	label := func() int64 {
		if rng.Intn(3) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Int63n(1000) - 500
	}
	for _, j := range []struct {
		name string
		agg  func(a, b int64) int64
	}{
		{"cc.Job", cc.Job().Aggregate},
	} {
		for i := 0; i < trials; i++ {
			a, b, c := label(), label(), label()
			if ab, ba := j.agg(a, b), j.agg(b, a); ab != ba {
				t.Fatalf("%s: agg(%d, %d) = %d, agg(%d, %d) = %d", j.name, a, b, ab, b, a, ba)
			}
			if l, r := j.agg(j.agg(a, b), c), j.agg(a, j.agg(b, c)); l != r {
				t.Fatalf("%s: (%d·%d)·%d = %d, %d·(%d·%d) = %d", j.name, a, b, c, l, a, b, c, r)
			}
		}
	}

	// CF folds weighted factor contributions: an elementwise sum of Vec,
	// a sum of Weight and a max of TS.
	agg := cf.Job(cf.Config{}).Aggregate
	contribution := func(rank int) cf.Val {
		v := cf.Val{Vec: make([]float64, rank), Weight: rng.Float64() * 20, TS: rng.Int31n(50)}
		for k := range v.Vec {
			v.Vec[k] = rng.NormFloat64() * v.Weight
		}
		return v
	}
	for i := 0; i < trials; i++ {
		rank := 1 + rng.Intn(8)
		a, b, c := contribution(rank), contribution(rank), contribution(rank)
		ab, ba := agg(a, b), agg(b, a)
		if ab.TS != ba.TS || !same(ab.Weight, ba.Weight) {
			t.Fatalf("cf: agg(a, b) = {%v %v}, agg(b, a) = {%v %v}", ab.Weight, ab.TS, ba.Weight, ba.TS)
		}
		for k := range ab.Vec {
			if !same(ab.Vec[k], ba.Vec[k]) {
				t.Fatalf("cf: agg(a, b).Vec[%d] = %v, agg(b, a).Vec[%d] = %v", k, ab.Vec[k], k, ba.Vec[k])
			}
		}
		l, r := agg(agg(a, b), c), agg(a, agg(b, c))
		if l.TS != r.TS || !near(l.Weight, r.Weight, a.Weight+b.Weight+c.Weight) {
			t.Fatalf("cf: (a·b)·c = {%v %v}, a·(b·c) = {%v %v}", l.Weight, l.TS, r.Weight, r.TS)
		}
		for k := range l.Vec {
			scale := math.Abs(a.Vec[k]) + math.Abs(b.Vec[k]) + math.Abs(c.Vec[k])
			if !near(l.Vec[k], r.Vec[k], scale) {
				t.Fatalf("cf: ((a·b)·c).Vec[%d] = %v, (a·(b·c)).Vec[%d] = %v", k, l.Vec[k], k, r.Vec[k])
			}
		}
	}
}
