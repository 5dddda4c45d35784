// Command benchdiff compares `go test -bench` output against the pinned
// micro contracts in bench_pins.json at the repository root, and fails
// (exit 1) on an ns/op regression or any allocs/op growth on a benchmark
// the file pins, or on a pin the input does not measure (a deleted or
// renamed benchmark must take its pin with it).
//
// The pins file's "benchmarks" map holds the pins; its "session" object
// records the host and date they were measured on, and is not read:
//
//	"benchmarks": {
//	  "BenchmarkHotPathPipeline/n=64": {
//	    "ns_per_op": 123.4, "allocs_per_op": 0
//	  }
//	}
//
// Benchmark names are matched after stripping the -GOMAXPROCS suffix;
// output benchmarks absent from the pins are listed as new and do not
// fail the run. With `go test -count k` each name appears k times: the
// row's value is the median of its samples, and its ns/op tolerance is
// the larger of -max-ns-pct and the row's own (max−min)/median over
// those k samples — the noise floor of this host, taken on the spot, so
// a row that cannot repeat itself to within 10% is not failed for 11%.
// Timing on shared CI runners is noisier still, so the CI bench-smoke
// job passes -allocs-only and gates only on allocation regressions; the
// full ns/op gate is the opt-in `make benchdiff` target (or BENCHDIFF=1
// make check) on a quiet machine. The end-to-end gate is bench/ with
// BENCHMARK.json, not this tool.
//
// Usage:
//
//	make benchdiff
//	go run ./scripts/benchdiff -input bench.out -allocs-only
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's metrics: a pin, one measured sample, or the
// median of a row's samples. Allocs is -1 when the line carried no
// -benchmem columns.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// loadPins reads the "benchmarks" map of a pins file.
func loadPins(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Benchmarks map[string]result `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s has no \"benchmarks\" map", path)
	}
	return f.Benchmarks, nil
}

// stripProcs removes go test's -GOMAXPROCS benchmark-name suffix.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseBench extracts benchmark results from `go test -bench` text.
// A result line is "BenchmarkName-P  iters  v1 unit1  v2 unit2 ...";
// only the ns/op and allocs/op units are kept. Every repeat of a
// name (-count k) is kept, in order of appearance.
func parseBench(r *bufio.Scanner) (map[string][]result, []string, error) {
	out := make(map[string][]result)
	var order []string
	for r.Scan() {
		fields := strings.Fields(r.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other Benchmark... line
		}
		res := result{AllocsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		name := stripProcs(fields[0])
		if _, dup := out[name]; !dup {
			order = append(order, name)
		}
		out[name] = append(out[name], res)
	}
	return out, order, r.Err()
}

// summarize reduces a row's samples to its median per metric and its
// ns/op spread, (max−min)/median in percent — 0 for a single sample.
func summarize(samples []result) (med result, spreadPct float64) {
	sorted := func(get func(result) float64) []float64 {
		vs := make([]float64, len(samples))
		for i, s := range samples {
			vs[i] = get(s)
		}
		sort.Float64s(vs)
		return vs
	}
	mid := func(vs []float64) float64 { return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2 }
	ns := sorted(func(r result) float64 { return r.NsPerOp })
	med = result{
		NsPerOp:     mid(ns),
		AllocsPerOp: mid(sorted(func(r result) float64 { return r.AllocsPerOp })),
	}
	if med.NsPerOp > 0 {
		spreadPct = 100 * (ns[len(ns)-1] - ns[0]) / med.NsPerOp
	}
	return med, spreadPct
}

func main() {
	pinsPath := flag.String("baseline", "bench_pins.json", "pins file to gate against")
	input := flag.String("input", "-", "go test -bench output to check ('-' = stdin)")
	maxNsPct := flag.Float64("max-ns-pct", 10, "ns/op regression tolerance in percent (widened per row to its own spread across -count repeats)")
	allocsOnly := flag.Bool("allocs-only", false, "gate only on allocs/op (for noisy CI timing)")
	flag.Parse()

	if err := run(*pinsPath, *input, *maxNsPct, *allocsOnly); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(pinsPath, input string, maxNsPct float64, allocsOnly bool) error {
	pins, err := loadPins(pinsPath)
	if err != nil {
		return err
	}
	in := os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, order, err := parseBench(bufio.NewScanner(in))
	if err != nil {
		return err
	}

	fmt.Printf("benchdiff: pins %s (%d pinned benchmarks)\n", pinsPath, len(pins))
	matched, regressions := 0, 0
	for _, name := range order {
		now, spread := summarize(got[name])
		ref, ok := pins[name]
		if !ok {
			fmt.Printf("  new      %-52s %12.1f ns/op (no pin)\n", name, now.NsPerOp)
			continue
		}
		matched++
		limit := max(maxNsPct, spread)
		bad := ""
		if !allocsOnly && ref.NsPerOp > 0 && now.NsPerOp > ref.NsPerOp*(1+limit/100) {
			bad = fmt.Sprintf("ns/op +%.1f%% (limit +%.0f%%)",
				100*(now.NsPerOp/ref.NsPerOp-1), limit)
		}
		if now.AllocsPerOp > ref.AllocsPerOp {
			if bad != "" {
				bad += "; "
			}
			bad += fmt.Sprintf("allocs/op %.0f -> %.0f", ref.AllocsPerOp, now.AllocsPerOp)
		}
		if bad != "" {
			regressions++
			fmt.Printf("  REGRESS  %-52s %12.1f ns/op vs %.1f — %s\n", name, now.NsPerOp, ref.NsPerOp, bad)
		} else {
			fmt.Printf("  ok       %-52s %12.1f ns/op vs %.1f (%+.1f%%, median of %d, spread %.0f%%), %.0f allocs/op\n",
				name, now.NsPerOp, ref.NsPerOp, 100*(now.NsPerOp/ref.NsPerOp-1), len(got[name]), spread, now.AllocsPerOp)
		}
	}
	pinned := make([]string, 0, len(pins))
	for name := range pins {
		pinned = append(pinned, name)
	}
	sort.Strings(pinned)
	missing := 0
	for _, name := range pinned {
		if _, ok := got[name]; !ok {
			missing++
			fmt.Printf("  MISSING  %-52s pinned at %.1f ns/op, not measured\n", name, pins[name].NsPerOp)
		}
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark in the input matches the pins — wrong -bench pattern?")
	}
	if regressions > 0 || missing > 0 {
		return fmt.Errorf("%d of %d measured pins regressed, %d not measured", regressions, matched, missing)
	}
	fmt.Printf("benchdiff: %d benchmarks within tolerance\n", matched)
	return nil
}
