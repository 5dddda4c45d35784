package main

import (
	"os"
	"path/filepath"
	"testing"
)

const specPath = "../BENCHMARK.json"

func specNames(ms []specMetric) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func defNames(ds []metricDef) map[string]string {
	out := make(map[string]string, len(ds))
	for _, d := range ds {
		out[d.name] = d.unit
	}
	return out
}

func sameNames(t *testing.T, what string, spec, got map[string]string) {
	t.Helper()
	for name, unit := range spec {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but not reported", what, name)
		} else if g != unit {
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, name, g, unit)
		}
	}
	for name := range got {
		if _, ok := spec[name]; !ok {
			t.Errorf("%s: %s is reported but not in BENCHMARK.json", what, name)
		}
	}
}

// BENCHMARK.json and the bench must name the same workloads and metrics.
func TestSpecMatchesBench(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "end_to_end", specNames(spec.EndToEnd), defNames(endToEndDefs))
	sameNames(t, "per_layer", specNames(spec.PerLayer), defNames(perLayerDefs))
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s := spec.Workloads[i]; s.Name != w.name || s.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the bench %q (%q)", i, s.Name, s.Why, w.name, w.why)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// The smoke run drives every workload through every phase, traced pass
// and probes included, with one-second phases, so the benchmark cannot
// rot between the changes that use it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for a few seconds each")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	results, err := runAll(options{workloads: workloads, seed: 1, seconds: 2, trace: -1, out: out, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(workloads); len(results) != want {
		t.Fatalf("%d results, want %d", len(results), want)
	}
	for _, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v, %d of %d operations failed", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted)
		}
		got := make(map[string]string, len(r.Metrics))
		for name, m := range r.Metrics {
			got[name] = m.Unit
		}
		if r.Trace == 0 {
			sameNames(t, r.Workload+" untraced", specNames(spec.EndToEnd), got)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", r.Workload, name, m.Value)
				}
			}
			continue
		}
		sameNames(t, r.Workload+" traced", specNames(spec.PerLayer), got)
		if v := r.Metrics["failed_share"].Value; v != 0 {
			t.Errorf("%s: failed_share = %v", r.Workload, v)
		}
		for _, f := range []string{r.Workload + ".trace.json", r.Workload + ".cpu.pprof"} {
			if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
				t.Errorf("traced run left no %s (err %v)", f, err)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(out, "result.json")); err != nil {
		t.Error(err)
	}
}
