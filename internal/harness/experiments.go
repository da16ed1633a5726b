package harness

import (
	"fmt"
	"strings"

	"aap/internal/algo/cc"
	"aap/internal/algo/cf"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/sim"
	"aap/internal/vcentric"
)

// Row is one measured configuration. Work and Busy are the run's
// RunStats.TotalWork and TotalBusy: the units its kernels reported and
// the seconds its workers computed, summed over the workers.
type Row struct {
	System  string
	Seconds float64
	MB      float64
	Rounds  int32
	Msgs    int64
	Work    int64
	Busy    float64
	Extra   string
}

// Table renders rows as an aligned text table.
func Table(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %12s %12s %10s %12s %s\n", "system", "time(s)", "comm(MB)", "maxround", "msgs", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %12.3f %12.3f %10d %12d %s\n", r.System, r.Seconds, r.MB, r.Rounds, r.Msgs, r.Extra)
	}
	return b.String()
}

// Modes are the four parallel models compared throughout Exp-1/Exp-4.
func Modes() []core.Mode {
	return []core.Mode{core.AAP, core.BSP, core.AP, core.SSP}
}

// statsRow converts the statistics of one run, simulated or real, to a
// Row.
func statsRow(name string, st core.RunStats) Row {
	return Row{
		System:  name,
		Seconds: st.Seconds,
		MB:      float64(st.TotalBytes) / (1 << 20),
		Rounds:  st.MaxRound,
		Msgs:    st.TotalMsgs,
		Work:    st.TotalWork,
		Busy:    st.TotalBusy,
	}
}

// simRun executes one job under the virtual-time simulator. The
// partition carries the experiment's skew; the simulator prices rounds
// by the work the programs report.
func simRun[T any](name string, p *partition.Partitioned, job core.Job[T], cfg sim.Config) (Row, error) {
	res, err := sim.Run(p, job, cfg)
	if err != nil {
		return Row{}, err
	}
	return statsRow(name, res.Stats), nil
}

// SimModes runs job over p under all four models and returns one row per
// model, the controlled comparison of Exp-1 ("the same system under
// different modes, so results are not affected by implementation").
func SimModes[T any](p *partition.Partitioned, job core.Job[T], base sim.Config, staleness int) ([]Row, error) {
	var rows []Row
	for _, m := range Modes() {
		cfg := base
		cfg.Options.Mode = m
		if m == core.SSP || m == core.AAP {
			cfg.Options.Staleness = staleness
		}
		if m == core.SSP && staleness == 0 {
			cfg.Options.Staleness = 2
		}
		r, err := simRun("GRAPE+ ("+m.String()+")", p, job, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// SkewPartition partitions ds for m workers with the experiment's default
// straggler profile (r = 3 unless overridden), mirroring the paper's
// reshuffled inputs.
func SkewPartition(ds Dataset, m int, ratio float64) (*partition.Partitioned, error) {
	return partition.Build(ds.Graph, m, partition.Skewed{Ratio: ratio, Seed: 131})
}

// Table1 reproduces Table 1: PageRank and SSSP on the Friendster
// stand-in, the vertex-centric systems against GRAPE+ under AAP. Every
// row is a wall-clock run of the one engine: the baselines are vertex
// programs compiled by vcentric.Job on a hash partition of 8 fragments,
// under the schedule of the system they stand for — BSP for Giraph /
// GraphLab-sync, AP for GraphLab-async / Maiter, Hsync for PowerSwitch
// — so the gap to the GRAPE+ row is the programming model's: one
// message per edge, no incremental fragment evaluation.
func Table1(workers int) (string, error) {
	ds := FriendsterSim(Scale())
	hashed, err := partition.Build(ds.Graph, 8, partition.Hash{})
	if err != nil {
		return "", err
	}
	p, err := SkewPartition(ds, workers, 3)
	if err != nil {
		return "", err
	}
	baselines := []struct {
		name string
		mode core.Mode
	}{
		{"vcentric sync (Giraph/GLsync)", core.BSP},
		{"vcentric async (GLasync/Maiter)", core.AP},
		{"vcentric hsync (PowerSwitch)", core.Hsync},
	}
	var out strings.Builder
	table := func(algo string, vertex vcentric.Program, pie core.Job[float64]) error {
		var rows []Row
		for _, b := range baselines {
			res, err := core.Run(hashed, vcentric.Job(vertex), core.Options{Mode: b.mode})
			if err != nil {
				return err
			}
			rows = append(rows, statsRow(b.name, res.Stats))
		}
		res, err := core.Run(p, pie, core.Options{Mode: core.AAP})
		if err != nil {
			return err
		}
		rows = append(rows, statsRow("GRAPE+ (AAP)", res.Stats))
		out.WriteString(Table(fmt.Sprintf("Table 1 / %s on %s (%d workers)", algo, ds.Name, workers), rows))
		out.WriteString("\n")
		return nil
	}
	if err := table("PageRank", vcentric.PageRankProgram{Tol: 1e-4}, pagerank.Job(pagerank.Config{Tol: 1e-4})); err != nil {
		return "", err
	}
	if err := table("SSSP", vcentric.SSSPProgram{Source: ds.Source}, sssp.Job(ds.Source)); err != nil {
		return "", err
	}

	// Single-thread baselines (Exp-1's "single machine" remark).
	und := graph.AsUndirected(ds.Graph)
	fmt.Fprintf(&out, "single-thread PageRank: %.3fs, Dijkstra SSSP: %.3fs (CC union-find: %.3fs)\n",
		timeIt(func() { ref.PageRank(ds.Graph, 0.85, 1e-4, 200) }),
		timeIt(func() { ref.SSSP(ds.Graph, ds.Source) }),
		timeIt(func() { ref.CC(und) }))
	return out.String(), nil
}

// Fig1 reproduces Figure 1: the Example 1/4 scenario — three workers
// computing CC over the chained-components graph of Fig 1(b), where P1
// and P2 take 3 time units per round, P3 takes 6, and messages take 1.
// It renders one timing diagram per model and reports makespans.
func Fig1() (string, error) {
	g, assign := fig1Graph()
	p, err := partition.Build(g, 3, fixedAssign(assign))
	if err != nil {
		return "", err
	}
	var out strings.Builder
	out.WriteString("Figure 1: CC on the Fig 1(b) graph; P1,P2 = 3u/round, P3 = 6u, latency 1u\n\n")
	for _, m := range Modes() {
		rec := sim.NewRecorder(3)
		cfg := sim.Config{
			Options:       core.Options{Mode: m, Staleness: 1, Observe: rec.Observe}, // the paper's SSP run uses c = 1
			RoundOverhead: 3,
			WorkUnitCost:  0.25, // stale propagation costs real time
			MsgLatency:    1,
			Speed:         []float64{1, 1, 2},
		}
		res, err := sim.Run(p, cc.Job(), cfg)
		if err != nil {
			return "", err
		}
		var rounds []int32
		for _, w := range res.Stats.Workers {
			rounds = append(rounds, w.Rounds)
		}
		fmt.Fprintf(&out, "(%s) makespan %.0f units, rounds per worker %v\n", m, res.Stats.Seconds, rounds)
		out.WriteString(sim.RenderTrace(rec.Intervals(), 3, 64))
		out.WriteString("\n")
	}
	return out.String(), nil
}

// fig1Graph builds the Fig 1(b) workload: eight components C0..C7, each
// a 3-node path whose minimum id is its component number; cut edges chain
// C0-C1-C2-...-C7, so cid 0 must hop across every fragment boundary to
// reach C7 (5 BSP rounds in the paper). Components 1,3,5 live on P1;
// 2,4,6 on P2; 0,7 on the straggler P3 — intermediate cids reach C7
// before cid 0 does, which is exactly the stale work AAP's delay stretch
// lets P3 absorb in one accumulated round (Example 4).
func fig1Graph() (*graph.Graph, map[graph.VertexID]int32) {
	b := graph.NewBuilder(false)
	member := func(c, i int) graph.VertexID {
		if i == 0 {
			return graph.VertexID(c)
		}
		return graph.VertexID(100 + c*10 + i)
	}
	for c := 0; c < 8; c++ {
		b.AddEdge(member(c, 0), member(c, 1))
		b.AddEdge(member(c, 1), member(c, 2))
	}
	for c := 0; c < 7; c++ {
		b.AddEdge(member(c, 2), member(c+1, 0))
	}
	g := b.Build()
	assign := map[graph.VertexID]int32{}
	fragOf := map[int]int32{1: 0, 3: 0, 5: 0, 2: 1, 4: 1, 6: 1, 0: 2, 7: 2}
	for c := 0; c < 8; c++ {
		for i := 0; i < 3; i++ {
			assign[member(c, i)] = fragOf[c]
		}
	}
	return g, assign
}

// fixedAssign is a Strategy fixing each external id to a fragment.
type fixedAssign map[graph.VertexID]int32

// Name implements partition.Strategy.
func (fixedAssign) Name() string { return "fixed" }

// Assign implements partition.Strategy.
func (f fixedAssign) Assign(g *graph.Graph, m int) []int32 {
	out := make([]int32, g.NumVertices())
	for v := range out {
		out[v] = f[g.IDOf(int32(v))]
	}
	return out
}

// Fig6Workload identifies one of the eight worker-sweep panels of Fig 6.
type Fig6Workload struct {
	Panel   string
	Algo    string
	Dataset func(scale int) Dataset
}

// Fig6Panels lists panels (a)-(h).
func Fig6Panels() []Fig6Workload {
	return []Fig6Workload{
		{"a", "sssp", TrafficSim},
		{"b", "sssp", FriendsterSim},
		{"c", "cc", TrafficSim},
		{"d", "cc", FriendsterSim},
		{"e", "pagerank", FriendsterSim},
		{"f", "pagerank", UKWebSim},
		{"g", "cf", MovieLensSim},
		{"h", "cf", NetflixSim},
	}
}

// Fig6 runs one panel: time vs number of workers for the four models.
func Fig6(w Fig6Workload, workerCounts []int) (string, error) {
	ds := w.Dataset(Scale())
	var out strings.Builder
	fmt.Fprintf(&out, "Figure 6(%s): %s on %s, time (virtual s) vs workers\n", w.Panel, w.Algo, ds.Name)
	fmt.Fprintf(&out, "%-8s", "workers")
	for _, m := range Modes() {
		fmt.Fprintf(&out, " %10s", m)
	}
	out.WriteString("\n")
	for _, n := range workerCounts {
		rows, err := runPanel(w, ds, n)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "%-8d", n)
		for _, r := range rows {
			fmt.Fprintf(&out, " %10.2f", r.Seconds)
		}
		out.WriteString("\n")
	}
	return out.String(), nil
}

func runPanel(w Fig6Workload, ds Dataset, workers int) ([]Row, error) {
	if w.Algo == "cc" {
		ds.Graph = graph.AsUndirected(ds.Graph)
	}
	p, err := SkewPartition(ds, workers, 3)
	if err != nil {
		return nil, err
	}
	switch w.Algo {
	case "sssp":
		return SimModes(p, sssp.Job(ds.Source), sim.Config{}, 0)
	case "cc":
		return SimModes(p, cc.Job(), sim.Config{}, 0)
	case "pagerank":
		return SimModes(p, pagerank.Job(pagerank.Config{Tol: 1e-4}), sim.Config{}, 0)
	case "cf":
		cfg := cf.Config{Users: ds.Users, Products: ds.Prods, Rank: 8, Epochs: 12, Seed: 5}
		return SimModes(p, cf.Job(cfg), sim.Config{}, 4)
	default:
		return nil, fmt.Errorf("harness: unknown algo %q", w.Algo)
	}
}

// Fig6ScaleUp reproduces panels (i) and (j): workers and graph size grow
// together; the report shows the time ratio relative to the smallest
// configuration (flat = perfect scale-up).
func Fig6ScaleUp(algo string, workerCounts []int) (string, error) {
	var out strings.Builder
	fmt.Fprintf(&out, "Figure 6(%s): scale-up of %s (time ratio vs %d workers; 1.0 = perfect)\n",
		map[string]string{"sssp": "i", "pagerank": "j"}[algo], algo, workerCounts[0])
	fmt.Fprintf(&out, "%-8s %10s %12s\n", "workers", "|V|", "ratio")
	var base float64
	for i, n := range workerCounts {
		ds := SyntheticSim(n, Scale())
		p, err := SkewPartition(ds, n, 1)
		if err != nil {
			return "", err
		}
		var row Row
		switch algo {
		case "sssp":
			row, err = simRun("AAP", p, sssp.Job(ds.Source), sim.Config{Options: core.Options{Mode: core.AAP}})
		case "pagerank":
			row, err = simRun("AAP", p, pagerank.Job(pagerank.Config{Tol: 1e-4}), sim.Config{Options: core.Options{Mode: core.AAP}})
		default:
			err = fmt.Errorf("harness: unknown algo %q", algo)
		}
		if err != nil {
			return "", err
		}
		if i == 0 {
			base = row.Seconds
		}
		fmt.Fprintf(&out, "%-8d %10d %12.3f\n", n, ds.Graph.NumVertices(), row.Seconds/base)
	}
	return out.String(), nil
}

// Fig6k reproduces panel (k): the impact of partition skew r on SSSP
// under the four models.
func Fig6k(workers int, ratios []float64) (string, error) {
	ds := FriendsterSim(Scale())
	var out strings.Builder
	fmt.Fprintf(&out, "Figure 6(k): SSSP on %s, %d workers, time vs partition skew r\n", ds.Name, workers)
	fmt.Fprintf(&out, "%-8s", "r")
	for _, m := range Modes() {
		fmt.Fprintf(&out, " %10s", m)
	}
	out.WriteString("\n")
	for _, r := range ratios {
		rows, err := fig6kRows(ds, workers, r)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "%-8.0f", r)
		for _, row := range rows {
			fmt.Fprintf(&out, " %10.2f", row.Seconds)
		}
		out.WriteString("\n")
	}
	return out.String(), nil
}

// fig6kRows runs one cell of panel (k): SSSP on ds at partition skew r
// under the four models.
func fig6kRows(ds Dataset, workers int, r float64) ([]Row, error) {
	p, err := SkewPartition(ds, workers, r)
	if err != nil {
		return nil, err
	}
	return SimModes(p, sssp.Job(ds.Source), sim.Config{}, 0)
}

// Fig6l reproduces panel (l): PageRank on the large synthetic graph with
// many workers, reporting AAP's speedup over the other models.
func Fig6l(workerCounts []int) (string, error) {
	var out strings.Builder
	out.WriteString("Figure 6(l): PageRank on synthetic graphs, AAP speedup over each model\n")
	fmt.Fprintf(&out, "%-8s %10s %10s %10s\n", "workers", "vs BSP", "vs AP", "vs SSP")
	for _, n := range workerCounts {
		ds := SyntheticSim(n, Scale())
		p, err := SkewPartition(ds, n, 4)
		if err != nil {
			return "", err
		}
		rows, err := SimModes(p, pagerank.Job(pagerank.Config{Tol: 1e-4}), sim.Config{}, 0)
		if err != nil {
			return "", err
		}
		aap := rows[0].Seconds
		fmt.Fprintf(&out, "%-8d %10.2f %10.2f %10.2f\n", n, rows[1].Seconds/aap, rows[2].Seconds/aap, rows[3].Seconds/aap)
	}
	return out.String(), nil
}

// Exp2Comm reproduces Exp-2: communication cost of the four models for a
// workload (bytes shipped, counted by the codec-size of every designated
// message).
func Exp2Comm(workers int) (string, error) {
	ds := FriendsterSim(Scale())
	p, err := SkewPartition(ds, workers, 3)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	for _, algo := range []string{"sssp", "pagerank"} {
		var rows []Row
		switch algo {
		case "sssp":
			rows, err = SimModes(p, sssp.Job(ds.Source), sim.Config{}, 0)
		case "pagerank":
			rows, err = SimModes(p, pagerank.Job(pagerank.Config{Tol: 1e-4}), sim.Config{}, 0)
		}
		if err != nil {
			return "", err
		}
		out.WriteString(Table(fmt.Sprintf("Exp-2: %s communication on %s (%d workers)", algo, ds.Name, workers), rows))
		out.WriteString("\n")
	}
	return out.String(), nil
}

// Fig7 reproduces the Appendix B PageRank case study: 32 workers, one
// 4x straggler (P12, index 11), timing diagrams for the four models plus
// per-model makespans and straggler round counts.
func Fig7() (string, error) {
	ds := FriendsterSim(Scale())
	p, err := SkewPartition(ds, 32, 1)
	if err != nil {
		return "", err
	}
	speed := make([]float64, 32)
	for i := range speed {
		speed[i] = 1
	}
	speed[11] = 4 // P12 is the straggler
	var out strings.Builder
	out.WriteString("Figure 7: PageRank, 32 workers, P12 is a 4x straggler\n\n")
	for _, m := range Modes() {
		rec := sim.NewRecorder(32)
		cfg := sim.Config{Options: core.Options{Mode: m, Observe: rec.Observe}, Speed: speed}
		if m == core.SSP {
			cfg.Options.Staleness = 5 // the paper's c = 5 run
		}
		res, err := sim.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-4}), cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "(%s) makespan %.2f, straggler rounds %d, fastest-worker rounds %d\n",
			m, res.Stats.Seconds, res.Stats.Workers[11].Rounds, res.Stats.MaxRound)
		out.WriteString(sim.RenderTrace(rec.Intervals(), 32, 72))
		out.WriteString("\n")
	}
	return out.String(), nil
}

// CFCase reproduces the Appendix B CF case study: rounds and time under
// the four models, and AAP's robustness to the staleness bound c.
func CFCase() (string, error) {
	ds := NetflixSim(Scale())
	p, err := SkewPartition(ds, 16, 2)
	if err != nil {
		return "", err
	}
	cfg := cf.Config{Users: ds.Users, Products: ds.Prods, Rank: 8, Epochs: 15, Seed: 7}
	var out strings.Builder
	out.WriteString("Appendix B: CF on netflix-sim, 16 workers\n")
	rows, err := SimModes(p, cf.Job(cfg), sim.Config{}, 4)
	if err != nil {
		return "", err
	}
	out.WriteString(Table("model comparison (c=4 where bounded staleness applies)", rows))
	out.WriteString("\nAAP robustness to the staleness bound c:\n")
	fmt.Fprintf(&out, "%-6s %12s %12s\n", "c", "AAP time", "SSP time")
	for _, c := range []int{2, 8, 32} {
		ra, err := simRun("AAP", p, cf.Job(cfg), sim.Config{Options: core.Options{Mode: core.AAP, Staleness: c}})
		if err != nil {
			return "", err
		}
		rs, err := simRun("SSP", p, cf.Job(cfg), sim.Config{Options: core.Options{Mode: core.SSP, Staleness: c}})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "%-6d %12.2f %12.2f\n", c, ra.Seconds, rs.Seconds)
	}
	return out.String(), nil
}
