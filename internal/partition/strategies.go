package partition

import (
	"fmt"
	"math/rand"

	"aap/internal/graph"
)

// ParseStrategy returns the parameterless strategy called name.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{Hash{}, Range{}, BFSLocality{}} {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("partition: unknown strategy %q (hash, range, bfs)", name)
}

// Hash assigns vertices to fragments by hashing their internal index.
// It produces balanced fragments with poor locality, a common baseline.
type Hash struct{}

// Name implements Strategy.
func (Hash) Name() string { return "hash" }

// Assign implements Strategy.
func (Hash) Assign(g *graph.Graph, m int) []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		// Fibonacci hashing of the index spreads consecutive ids.
		h := uint64(v) * 0x9E3779B97F4A7C15
		out[v] = int32(h % uint64(m))
	}
	return out
}

// Range assigns contiguous, equally sized index ranges to fragments. On
// generator output whose ids follow a spatial or crawl order this yields
// good locality, similar in spirit to chunk-based partitioners.
type Range struct{}

// Name implements Strategy.
func (Range) Name() string { return "range" }

// Assign implements Strategy.
func (Range) Assign(g *graph.Graph, m int) []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	per := (n + m - 1) / m
	for v := 0; v < n; v++ {
		f := v / per
		if f >= m {
			f = m - 1
		}
		out[v] = int32(f)
	}
	return out
}

// BFSLocality orders vertices by breadth-first traversal from successive
// unvisited seeds and then chunks the order into m equal parts, a cheap
// locality-aware partitioner playing the role of XtraPuLP in the paper's
// experiments (minimizing cut edges relative to hash partitioning).
type BFSLocality struct {
	// Seed selects the traversal tie-breaking; 0 is a valid seed.
	Seed int64
}

// Name implements Strategy.
func (BFSLocality) Name() string { return "bfs" }

// Assign implements Strategy.
func (s BFSLocality) Assign(g *graph.Graph, m int) []int32 {
	n := g.NumVertices()
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, 1024)
	rng := rand.New(rand.NewSource(s.Seed))
	start := int32(0)
	if n > 0 {
		start = int32(rng.Intn(n))
	}
	for scanned := int32(0); len(order) < n; {
		seed := int32(-1)
		if !visited[start] {
			seed = start
		} else {
			for ; scanned < int32(n); scanned++ {
				if !visited[scanned] {
					seed = scanned
					break
				}
			}
		}
		if seed < 0 {
			break
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range g.Out(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
			for _, u := range g.In(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	out := make([]int32, n)
	per := (n + m - 1) / m
	for pos, v := range order {
		f := pos / per
		if f >= m {
			f = m - 1
		}
		out[v] = int32(f)
	}
	return out
}

// Skewed produces fragments with a controlled skew ratio
// r = ||F_max|| / ||F_median||, reproducing the partitions of Exp-4
// (Fig 6(k)) where the paper reshuffles a partitioned graph to control
// straggler weight. Fragment sizes are measured as vertices plus edges.
// Ratio <= 1 yields a weight-balanced partition; larger ratios inflate
// fragment 0 while keeping the remaining fragments equal, so the median
// stays at the fair share and fragment 0 lands at Ratio times it.
type Skewed struct {
	Ratio float64
	Seed  int64
}

// Name implements Strategy.
func (s Skewed) Name() string { return "skewed" }

// Assign implements Strategy.
func (s Skewed) Assign(g *graph.Graph, m int) []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	if m < 2 {
		return out
	}
	weight := func(v int32) float64 { return 1 + float64(g.OutDegree(v)) }
	var total float64
	for v := 0; v < n; v++ {
		total += weight(int32(v))
	}
	ratio := s.Ratio
	if ratio < 1 {
		ratio = 1
	}
	// Solve f0 = Ratio * median with the other m-1 fragments sharing the
	// remainder equally: f0 = Ratio*(total-f0)/(m-1).
	f0 := ratio * total / (float64(m-1) + ratio)
	// Cumulative thresholds: fragment 0 ends at f0, then equal shares.
	thresholds := make([]float64, m)
	thresholds[0] = f0
	rest := (total - f0) / float64(m-1)
	for i := 1; i < m; i++ {
		thresholds[i] = thresholds[i-1] + rest
	}
	var cum float64
	frag := int32(0)
	for v := 0; v < n; v++ {
		cum += weight(int32(v))
		out[v] = frag
		if cum >= thresholds[frag] && int(frag) < m-1 {
			frag++
		}
	}
	return out
}
