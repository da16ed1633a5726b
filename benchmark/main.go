// Command benchmark is this repository's one benchmark: the two paths a
// user feels (edge-list file to answer, and query to answer against a
// resident Session) on four workloads, with every answer checked
// against the sequential oracles of internal/algo/ref. BENCHMARK.json
// at the root names the command, the workloads and the metrics;
// README.md beside this file says what each is for.
//
//	bash benchmark/run.sh -seed 1 -out results.json          all workloads, end-to-end metrics
//	bash benchmark/run.sh -seed 1 -trace 1 -out layers.json  all workloads, per-layer metrics
//	bash benchmark/run.sh -workload wire_sssp_powerlaw -seed 3 -seconds 10 -trace 0
//	bash benchmark/run.sh -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, for the last workload run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, on every workload. A
// query is one engine job on the batch workloads and one RPC on
// serve_sssp_rpc.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // edge-list file on disk to ready to answer; median over reps
	{"run_s", "s"},           // wall of the rep's queries against the ready pipeline; median over reps
	{"answer_s", "s"},        // set-up and run as one interval; median over reps
	{"resident_mb", "MB"},    // heap the set-up leaves live (collected), from the warm-up rep
	{"qps", "1/s"},           // correct answers per second of run_s; median over reps
	{"latency_p50_ms", "ms"}, // caller-side latency of a query, over all queries of all reps
	{"latency_p95_ms", "ms"}, // nearest rank, so the slowest query where a run has under 20
}

// perLayer are the metrics of the traced run. A layer that is not on a
// workload's path reports 0 there.
var perLayer = []metricDef{
	{"graph.read_s", "s"}, {"graph.mb_per_s", "MB/s"}, {"graph.allocs", "count"}, {"graph.mmap_read_s", "s"}, {"graph.self_s", "s"},
	{"partition.build_s", "s"}, {"partition.skew", "ratio"}, {"partition.slot_table_bytes", "B"}, {"partition.routing_table_bytes", "B"}, {"partition.self_s", "s"},
	{"core.session_s", "s"}, {"core.query_s", "s"}, {"core.rounds_max", "count"}, {"core.rounds_sum", "count"},
	{"core.msgs", "count"}, {"core.msg_bytes", "B"}, {"core.busy_s", "s"}, {"core.idle_s", "s"}, {"core.idle_ratio", "ratio"}, {"core.arena_bytes", "B"},
	{"core.mode_s.aap", "s"}, {"core.mode_s.bsp", "s"}, {"core.mode_s.ap", "s"}, {"core.mode_s.ssp", "s"}, {"core.procs1_over_procsN", "ratio"}, {"core.self_s", "s"},
	{"algo.kernel_1frag_s", "s"}, {"algo.scanned_edges", "count"}, {"algo.work", "count"},
	{"codec.encode_ns_per_msg", "ns"}, {"codec.decode_ns_per_msg", "ns"}, {"codec.bytes_per_msg", "B"},
	{"transport.wire_bytes_out", "B"}, {"transport.wire_bytes_per_msg", "B"}, {"transport.retries", "count"}, {"transport.heartbeat_timeouts", "count"}, {"transport.tcp_minus_inproc_s", "s"},
	{"checkpoint.sealed", "count"}, {"checkpoint.bytes", "B"}, {"checkpoint.ckpt_minus_plain_s", "s"},
	{"checkpoint.write_epoch_ms", "ms"}, {"checkpoint.fsyncs", "count"}, {"checkpoint.bytes_written", "B"},
	{"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p95_ms", "ms"}, {"serve.engine_p50_ms", "ms"}, {"serve.rpc_overhead_p50_ms", "ms"}, {"serve.inproc_p50_ms", "ms"},
	{"serve.mean_batch", "count"}, {"serve.max_batch", "count"}, {"serve.rejected", "count"}, {"serve.scanned_edges_per_query", "count"}, {"serve.self_s", "s"},
	{"trace.answer_s", "s"}, {"trace.residual_s", "s"}, {"trace.overhead_ratio", "ratio"}, {"trace.spans", "count"},
}

// env is the header every result is recorded under.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
}

// result is one workload's run: a line of the -out file.
type result struct {
	Env       env                `json:"env"`
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

type config struct {
	env
	sz      sizes
	seconds float64
	reps    int // at least this many reps per workload
	trace   bool
	tmp     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run this workload only (default: all four)")
	seed := fs.Int64("seed", 1, "every input is generated from this seed")
	seconds := fs.Float64("seconds", 10, "keep starting reps until they have measured this long")
	reps := fs.Int("reps", 3, "and until this many reps are done")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	scale := fs.String("scale", "full", "input sizes: full, or tiny for a smoke test")
	out := fs.String("out", "", "append one JSON line per workload run to this file")
	tmp := fs.String("tmp", ".bench_build", "directory for generated inputs and trace.json")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's contract, read by -compare")
	doCompare := fs.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doCompare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two -out files")
			return 2
		}
		worse, err := compare(*specPath, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	sz, ok := scales[*scale]
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad -scale, -trace or stray argument")
		return 2
	}
	cfg := config{sz: sz, seconds: *seconds, reps: *reps, trace: *trace == 1, tmp: *tmp,
		env: env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPU: cpuModel(), Commit: commit(), Seed: *seed, Scale: *scale}}
	names := workloadNames
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "nproc %d  GOMAXPROCS %d  %s  cpu %q  commit %s  seed %d  scale %s\n",
		cfg.NProc, cfg.GOMAXPROCS, cfg.GoVersion, cfg.CPU, cfg.Commit, cfg.Seed, cfg.Scale)

	code := 0
	var spans []span
	var last string
	for _, name := range names {
		res, sp, err := runWorkload(cfg, name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 2
		}
		spans = append(spans, sp...)
		report(stdout, res)
		if !res.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendLine(*out, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
		}
		last = driverLine(res)
	}
	if cfg.trace {
		path := filepath.Join(cfg.tmp, "trace.json")
		if err := writeTrace(path, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%d spans written to %s\n", len(spans), path)
	}
	fmt.Fprintln(stdout, last)
	return code
}

// runWorkload generates one workload's inputs, warms up with one
// untimed rep, and measures reps until both -seconds and -reps are met.
// The traced run stops at -reps, leaves the first of them untraced as
// the base of trace.overhead_ratio, and ends with the per-layer passes.
func runWorkload(cfg config, name string) (*result, []span, error) {
	dir, err := os.MkdirTemp(cfg.tmp, name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	w, err := prepare(name, cfg.Seed, cfg.sz, dir)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Env: cfg.env, Workload: name}
	s := samples{}
	warm, err := w.rep(scope{}, true)
	if err != nil {
		return nil, nil, err
	}
	s.add("resident_mb", warm.residentMB)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(name)
		res.Trace = 1
	}
	var traced []repResult
	var untracedAnswer []float64
	seconds := cfg.seconds
	if tr != nil {
		seconds = 0 // -reps reps only: the per-layer passes take the rest of the time
	}
	for rep, measured := 0, 0.0; rep < cfg.reps || measured < seconds; rep++ {
		sc := scope{rep: rep}
		if rep > 0 {
			sc.tr = tr
		}
		r, err := w.rep(sc, false)
		if err != nil {
			return nil, nil, err
		}
		measured += r.spent
		for _, ps := range r.passes {
			res.Attempted += ps.attempted
			res.Failed += ps.failed
		}
		if sc.tr != nil {
			traced = append(traced, r)
			continue
		}
		untracedAnswer = append(untracedAnswer, r.answer)
		s.add("setup_s", r.setup)
		s.add("answer_s", r.answer)
		for _, ps := range r.passes {
			s.add("run_s", ps.wall)
			s.add("qps", ratio(float64(ps.attempted-ps.failed), ps.wall))
		}
		for _, l := range r.lat {
			s.add("latency_p50_ms", l*1e3)
		}
	}

	defs := endToEnd
	var spans []span
	if tr != nil {
		defs = perLayer
		spans = tr.spans
		for i, r := range traced {
			w.tracedRep(s, spans, i+1, r)
		}
		s.add("trace.overhead_ratio", ratio(summarize(s["trace.answer_s"], "").Value, summarize(untracedAnswer, "").Value))
		s.add("trace.spans", float64(len(spans)))
		attempted, failed, err := w.layerPasses(dir, s)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]summary, len(defs))
	for _, d := range defs {
		// A _p95_ metric is taken from the samples of its _p50_ twin.
		of := s[strings.Replace(d.name, "_p95_", "_p50_", 1)]
		m := summarize(of, d.unit)
		if strings.Contains(d.name, "_p95_") && m.N > 0 {
			sorted := append([]float64(nil), of...)
			sort.Float64s(sorted)
			m.Value = highPercentile(sorted, 0.95)
		}
		res.Metrics[d.name] = m
	}
	return res, spans, nil
}

// report prints every metric of a run by name, with its unit and the
// spread of the samples behind the value.
func report(out io.Writer, res *result) {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(out, "\n%s  (trace %d)  attempted %d  failed %d  failed_ratio %g\n",
		res.Workload, res.Trace, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Fprintf(out, "  %-32s %-6s %14s %14s %14s %14s %14s %5s\n", "metric", "unit", "value", "q1", "q3", "min", "max", "n")
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(out, "  %-32s %-6s %14.6g %14.6g %14.6g %14.6g %14.6g %5d\n", d.name, m.Unit, m.Value, m.Q1, m.Q3, m.Min, m.Max, m.N)
	}
	if res.Trace == 1 {
		answer := res.Metrics["trace.answer_s"].Value
		fmt.Fprintf(out, "  self time by layer, median of %d traced reps, as a share of answer_s %.4g s:\n", res.Metrics["trace.answer_s"].N, answer)
		for _, name := range []string{"graph.self_s", "partition.self_s", "core.self_s", "serve.self_s", "trace.residual_s"} {
			fmt.Fprintf(out, "    %-20s %10.4f s %6.1f%%\n", name, res.Metrics[name].Value, 100*ratio(res.Metrics[name].Value, answer))
		}
	}
}

// driverLine is the run as the driver reads it: value and unit only.
func driverLine(res *result) string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // every value is a finite float: ratio guards the divisions
	}
	return string(line)
}

func appendLine(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git in the working
// directory, without running git; a checkout that is not a repository
// gives "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
