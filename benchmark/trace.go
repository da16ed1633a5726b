package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded by
// the benchmark around its calls into a layer; a span named
// "<layer>.<call>" belongs to that layer, and the spans without a dot
// ("answer", "setup", "run", "client1") are the benchmark's own.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0: a root
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Start    float64 `json:"start_s"` // since the tracer was made
	End      float64 `json:"end_s"`
}

// tracer keeps the spans of one workload's traced run in memory.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// scope is where the next span is recorded: under which parent, in
// which rep. A scope with a nil tracer records nothing, which is how
// the untraced run goes through the same code.
type scope struct {
	tr     *tracer
	parent int
	rep    int
}

// enter opens a span and returns the scope of its children and the
// function that closes it.
func (s scope) enter(name string) (scope, func()) {
	if s.tr == nil {
		return s, func() {}
	}
	t := s.tr
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: s.parent, Name: name, Workload: t.workload, Rep: s.rep, Start: time.Since(t.t0).Seconds()})
	t.mu.Unlock()
	return scope{tr: t, parent: id, rep: s.rep}, func() {
		end := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// begin opens a span that will have no children.
func (s scope) begin(name string) func() {
	_, end := s.enter(name)
	return end
}

// layerOf names the layer a span belongs to; "" for the benchmark's own.
func layerOf(name string) string {
	layer, _, ok := strings.Cut(name, ".")
	if !ok {
		return ""
	}
	return layer
}

// account splits the wall time of the span tree under root into each
// layer's self time (a span's duration minus the part of it its
// children cover) and the residual: the self time of the benchmark's
// own spans, which no call into a layer explains.
func account(spans []span, root int) (wall float64, self map[string]float64, residual float64) {
	children := make(map[int][]span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	self = make(map[string]float64)
	var walk func(sp span)
	walk = func(sp span) {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		own := sp.End - sp.Start
		covered := sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, covered), min(k.End, sp.End)
			if hi > lo {
				own -= hi - lo
				covered = hi
			}
			walk(k)
		}
		if layer := layerOf(sp.Name); layer != "" {
			self[layer] += own
		} else {
			residual += own
		}
	}
	r := spans[root-1]
	walk(r)
	return r.End - r.Start, self, residual
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
