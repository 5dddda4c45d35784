package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cobcast
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHotPathCodec-8         	 4000000	       300.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotPathPipeline/n=64-8 	    2000	    100000 ns/op	      10 B/op	       0 allocs/op
BenchmarkBrandNew-8             	 1000000	      50.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	cobcast	10.0s
`

func TestParseBench(t *testing.T) {
	got, order, err := parseBench(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(order), order)
	}
	rs, ok := got["BenchmarkHotPathPipeline/n=64"]
	if !ok {
		t.Fatalf("missing sub-benchmark (procs suffix not stripped?): %v", order)
	}
	if want := (result{NsPerOp: 100000, AllocsPerOp: 0}); len(rs) != 1 || rs[0] != want {
		t.Errorf("wrong metrics: %+v", rs)
	}
}

// writePins writes a pins file holding the given "benchmarks" map body
// and returns its path.
func writePins(t *testing.T, benchmarks string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pins.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks": {`+benchmarks+`}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeInput writes go test -bench output and returns its path.
func writeInput(t *testing.T, output string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.out")
	if err := os.WriteFile(path, []byte(output), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRepoPinsLoad keeps the default -baseline pointing at a real file:
// the repository's one pins file parses and is not empty.
func TestRepoPinsLoad(t *testing.T) {
	pins, err := loadPins(filepath.Join("..", "..", "bench_pins.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pins["BenchmarkFig8Tco/n=16"]; !ok {
		t.Errorf("bench_pins.json (%d rows) does not pin BenchmarkFig8Tco/n=16", len(pins))
	}
}

func TestRunPassesWithinTolerance(t *testing.T) {
	pins := writePins(t, `
		"BenchmarkHotPathCodec":           {"ns_per_op": 290, "allocs_per_op": 0},
		"BenchmarkHotPathPipeline/n=64":   {"ns_per_op": 99000, "allocs_per_op": 0}`)
	if err := run(pins, writeInput(t, sampleOutput), 10, false); err != nil {
		t.Errorf("within tolerance (+3.4%%, +1.0%%) but failed: %v", err)
	}
}

// repeats is `go test -count 3` output for one name: samples a, b, c in
// the order given.
func repeats(a, b, c float64) string {
	var sb strings.Builder
	for _, ns := range []float64{a, b, c} {
		fmt.Fprintf(&sb, "BenchmarkHotPathCodec-8 \t 4000000\t %.1f ns/op\t 0 B/op\t 0 allocs/op\n", ns)
	}
	return sb.String()
}

// TestRunGatesOnMedianOfRepeats: with -count k a row is judged by the
// median of its samples, not by whichever came last, and its tolerance
// widens to the spread those samples show.
func TestRunGatesOnMedianOfRepeats(t *testing.T) {
	pins := writePins(t, `"BenchmarkHotPathCodec": {"ns_per_op": 205, "allocs_per_op": 0}`)
	for _, tc := range []struct {
		name    string
		a, b, c float64
		wantErr bool
	}{
		// Median 210 is +2.4%; a last-sample-wins parse sees +95%.
		{"slow outlier last", 200, 210, 400, false},
		// Median 400 is +95%, past even the 52% spread; a
		// last-sample-wins parse sees −2.4% and passes.
		{"fast outlier last", 400, 410, 200, true},
		// Median 230 is +12.2%, over the 10% flag but inside the row's
		// own 26% spread: this host cannot resolve it.
		{"inside own noise floor", 200, 230, 260, false},
		// The same +12.2% from samples that agree to 1% is a regression.
		{"tight samples", 229, 230, 231, true},
	} {
		err := run(pins, writeInput(t, repeats(tc.a, tc.b, tc.c)), 10, false)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: samples %v/%v/%v vs pin 205: err = %v, want error = %v",
				tc.name, tc.a, tc.b, tc.c, err, tc.wantErr)
		}
	}
}

func TestRunFailsOnNsRegression(t *testing.T) {
	pins := writePins(t, `"BenchmarkHotPathCodec": {"ns_per_op": 200, "allocs_per_op": 0}`)
	in := writeInput(t, sampleOutput)
	if err := run(pins, in, 10, false); err == nil {
		t.Error("+50% ns/op accepted")
	}
	// The same regression passes the allocation-only CI gate.
	if err := run(pins, in, 10, true); err != nil {
		t.Errorf("-allocs-only rejected a pure timing regression: %v", err)
	}
}

func TestRunFailsOnAllocRegression(t *testing.T) {
	pins := writePins(t, `"BenchmarkHotPathPipeline/n=64": {"ns_per_op": 100000, "allocs_per_op": -1}`)
	// Pinned -1 (no benchmem data) vs measured 0: growth.
	if err := run(pins, writeInput(t, sampleOutput), 10, true); err == nil {
		t.Error("allocs/op growth accepted under -allocs-only")
	}
}

func TestRunFailsWithNoOverlap(t *testing.T) {
	pins := writePins(t, `"BenchmarkElsewhere": {"ns_per_op": 1, "allocs_per_op": 0}`)
	if err := run(pins, writeInput(t, sampleOutput), 10, false); err == nil {
		t.Error("disjoint benchmark sets must fail loudly, not pass vacuously")
	}
}

// TestRunFailsOnMissingPin: a pin the input never measures — its
// benchmark deleted or renamed — fails the run even though every
// measured row is within tolerance.
func TestRunFailsOnMissingPin(t *testing.T) {
	pins := writePins(t, `
		"BenchmarkHotPathCodec":  {"ns_per_op": 300, "allocs_per_op": 0},
		"BenchmarkFig8TcoGone/n=4": {"ns_per_op": 1000, "allocs_per_op": 0}`)
	err := run(pins, writeInput(t, sampleOutput), 10, false)
	if err == nil || !strings.Contains(err.Error(), "1 not measured") {
		t.Errorf("unmeasured pin: err = %v, want a failure naming it", err)
	}
}
