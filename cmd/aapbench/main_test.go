package main

import "testing"

// TestExperimentNames pins the -exp name space: every name -exp all
// runs resolves, nothing resolves that all does not run, and any other
// name is an error rather than a silent no-op.
func TestExperimentNames(t *testing.T) {
	exps := experiments([]int{16}, 32)
	for _, name := range allExperiments {
		if exps[name] == nil {
			t.Errorf("-exp all runs %q, which does not resolve", name)
		}
	}
	if len(exps) != len(allExperiments) {
		t.Errorf("%d experiments resolve, -exp all runs %d", len(exps), len(allExperiments))
	}
	for _, name := range []string{"", "fig6m", "ingest", "compute", "chaos", "serve"} {
		if err := run(name, []int{16}, 32); err == nil {
			t.Errorf("-exp %q ran, want an unknown-experiment error", name)
		}
	}
}
