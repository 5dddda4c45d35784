// Command bench is the repository's end-to-end benchmark: four named
// workloads, each one cluster configuration driven through a timed
// set-up, an open-loop paced phase and a closed-loop saturation phase,
// with every delivery checked. See README.md in this directory for the
// metrics, the workloads and how to read a result, and BENCHMARK.json at
// the repository root for the regression bounds.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh                       every workload, untraced and traced
//	bash bench/run.sh -workload mem-lossy   one workload
//	bash bench/run.sh -aa                   end-to-end set twice, compared with the bounds
//	bash bench/run.sh --workload udp-steady --seed 7 --seconds 20 --trace 0   (the driver's form)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"cobcast/obsv"
)

// defaultSeed is the seed a run uses when none is given.
const defaultSeed = 1

type options struct {
	workloads []workload
	seed      int64
	seconds   int
	trace     int // 0 untraced only, 1 traced only, -1 both
	out       string
	spec      string
	smoke     bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of "+workloadNames()+")")
		seed    = flag.Int64("seed", defaultSeed, "seed for the arrival schedule, senders, payloads and injected loss")
		seconds = flag.Int("seconds", 20, "measured seconds per run, split over the paced and saturation phases")
		trace   = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics; -1: both")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "directory for result.json, span traces and CPU profiles")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition, read by -aa for the bounds")
		aa      = flag.Bool("aa", false, "run the end-to-end set twice on this build and compare the two with the bounds")
		smoke   = flag.Bool("smoke", false, "one-second phases and small probes: checks the benchmark itself, not the program")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds, trace: *trace, out: *out, spec: *spec, smoke: *smoke}
	err := func() error {
		if flag.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q", flag.Arg(0))
		}
		if *seconds < 1 || *seconds > 60 {
			return fmt.Errorf("-seconds %d outside 1..60", *seconds)
		}
		if *trace < -1 || *trace > 1 {
			return fmt.Errorf("-trace %d: want 0, 1 or -1", *trace)
		}
		opt.workloads = workloads
		if *name != "" {
			w, ok := findWorkload(*name)
			if !ok {
				return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
			}
			opt.workloads = []workload{w}
		}
		if err := os.MkdirAll(opt.out, 0o755); err != nil {
			return err
		}
		if *aa {
			return runAA(opt)
		}
		results, err := runAll(opt)
		if err != nil {
			return err
		}
		for _, r := range results {
			if !r.Correct {
				return errIncorrect
			}
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect ends a run whose result line was printed with
// "correct": false.
var errIncorrect = errors.New("deliveries failed verification")

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// outcome is what one run measured; its JSON form is the line the driver
// reads.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is an outcome with the run it belongs to, as result.json lists
// them.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	outcome
}

const (
	// untracedInstances is how many cluster instances an untraced run's
	// paced seconds are spread over.
	untracedInstances = 8
	// untracedSatEvery spreads the saturation seconds over every second
	// of them: the 33 budgets of udp-groups take most of a second to
	// fill and as long to drain, too long to pay eight times in a run.
	untracedSatEvery = 2
	// satRamp is how long an instance is saturated before the measured
	// intervals start.
	satRamp = 500 * time.Millisecond
)

// plans returns the plan of an untraced run and, for a traced
// invocation, of each of the two passes it is made of.
func plans(opt options, traced bool) plan {
	s := time.Duration(opt.seconds) * time.Second
	switch {
	case opt.smoke:
		return plan{instances: 1, paced: time.Second, satEvery: 1, sat: time.Second, satRamp: satRamp / 2}
	case !traced:
		return plan{
			instances: untracedInstances, paced: s * 6 / 10 / untracedInstances,
			satEvery: untracedSatEvery, sat: s * 4 / 10 * untracedSatEvery / untracedInstances, satRamp: satRamp,
		}
	default:
		// A traced invocation measures the workload twice, without and
		// with observability, inside the same --seconds.
		return plan{instances: 1, paced: s * 3 / 10, satEvery: 1, sat: s * 2 / 10, satRamp: satRamp}
	}
}

// runAll runs every selected workload in every selected mode, prints
// each result and writes them all to <out>/result.json.
func runAll(opt options) ([]result, error) {
	var results []result
	for _, w := range opt.workloads {
		for _, traced := range []bool{false, true} {
			if (traced && opt.trace == 0) || (!traced && opt.trace == 1) {
				continue
			}
			res, err := runOne(w, opt, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			results = append(results, res)
			if err := writeJSON(filepath.Join(opt.out, "result.json"), results); err != nil {
				return nil, err
			}
			printResult(res, traced)
		}
	}
	return results, nil
}

// runOne measures one workload in one mode and assembles its metrics.
func runOne(w workload, opt options, traced bool) (result, error) {
	p := plans(opt, traced)
	res := result{Workload: w.name, Seed: opt.seed}
	fmt.Printf("# %s seed=%d trace=%v: %s\n", w.name, opt.seed, traced, w.why)

	base, err := measure(w, opt.seed, p, "")
	if err != nil {
		return res, err
	}
	res.Attempted = base.paced.attempted + base.sat.attempted
	res.Failed = base.paced.failed + base.sat.failed
	var vals map[string]float64
	defs := endToEndDefs
	if !traced {
		vals = endToEnd(base)
	} else {
		res.Trace = 1
		defs = perLayerDefs
		tr, err := measure(w, opt.seed, p, opt.out)
		if err != nil {
			return res, err
		}
		res.Attempted += tr.paced.attempted + tr.sat.attempted
		res.Failed += tr.paced.failed + tr.sat.failed
		pr, err := runProbes(w, opt.seed, opt.smoke)
		if err != nil {
			return res, err
		}
		vals = perLayer(w, base, tr, pr)
	}
	if res.Metrics, err = collect(defs, vals); err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult prints every metric by name with its unit, then the
// machine-readable line, which is the last line of a single run.
func printResult(res result, traced bool) {
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	for _, d := range defs {
		fmt.Printf("%-42s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	b, err := json.Marshal(res.outcome)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Printf("%s\n", b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measured is one pass over a workload: its cluster instances' set-up
// times and merged phases, plus what only a traced pass collects.
type measured struct {
	setups    []time.Duration
	construct time.Duration // constructor calls of the last instance
	shards    int
	paced     pacedResult
	sat       satResult

	scrape map[string]float64 // /metrics counters over the paced phase
	stages [numStages]float64 // flight-recorder stage medians, µs
}

// measure runs one pass: p.instances clusters in turn, each set up,
// played its own stretch of the seeded schedule, saturated and closed.
// out is empty for an untraced pass; otherwise the pass (of one
// instance) runs with observability and the flight recorder on, under
// the CPU profiler, and leaves <workload>.trace.json and
// <workload>.cpu.pprof in out.
func measure(w workload, seed int64, p plan, out string) (*measured, error) {
	m := &measured{}
	stretch := p.paced
	if warmup > stretch {
		stretch = warmup
	}
	whole := newSchedule(seed, clusterSize, w.groups, w.rate, stretch*time.Duration(p.instances))
	var (
		paced pacedPart
		sat   satPart
	)
	for i := 0; i < p.instances; i++ {
		sched := whole.slice(stretch*time.Duration(i), stretch*time.Duration(i+1))
		pp, sp, err := m.instance(w, seed, sched, p, out, i%p.satEvery == p.satEvery-1)
		if err != nil {
			return nil, err
		}
		paced.merge(pp)
		sat.merge(sp)
	}
	m.paced = paced.result()
	m.sat = sat.result()
	fmt.Printf("# window p50s, us: %.0f\n# window p99s, us: %.0f\n", paced.winP50, paced.winP99)
	return m, nil
}

// instance takes one cluster through set-up, the paced phase and, if
// saturate is set, the saturation phase.
func (m *measured) instance(w workload, seed int64, sched *schedule, p plan, out string, saturate bool) (paced pacedPart, sat satPart, err error) {
	var reg *obsv.Registry
	if out != "" {
		reg = obsv.NewRegistry()
	}
	r := newRunner(seed, w.groups)
	d, err := r.setup(w, sched, reg)
	if err != nil {
		return paced, sat, err
	}
	defer r.close()
	m.setups = append(m.setups, d)
	m.construct = r.c.constructDur
	m.shards = r.c.shards()
	if reg == nil {
		paced = r.paced(sched, p)
		if saturate {
			sat = r.saturate(p)
		}
		return paced, sat, nil
	}

	stop, err := startProfile(filepath.Join(out, w.name+".cpu.pprof"))
	if err != nil {
		return paced, sat, err
	}
	defer func() {
		if cerr := stop(); err == nil {
			err = cerr
		}
	}()
	before, err := scrape(reg)
	if err != nil {
		return paced, sat, err
	}
	paced = r.paced(sched, p)
	after, err := scrape(reg)
	if err != nil {
		return paced, sat, err
	}
	m.scrape = make(map[string]float64, len(after))
	for name, v := range after {
		m.scrape[name] = v - before[name]
	}
	m.stages = foldFlight(reg.Tracez())
	if saturate {
		sat = r.saturate(p)
	}
	return paced, sat, writeSpans(filepath.Join(out, w.name+".trace.json"), r.lastPaced)
}

// startProfile starts the CPU profiler writing to path; the returned
// function stops it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profiler's error is the one to report
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// probes holds every probe's figures for one workload.
type probes struct {
	engine, n16, n64, total *engineProbe
	codec                   codecProbe
	insertCPINs             float64
	networkNsPerPDU         float64
	udpNsPerDatagram        float64
}

// runProbes runs the engine probe with the workload's configuration —
// and again at n=16, n=64 and in total order, so engine scaling has a
// number without an overloaded cluster — then feeds its PDUs to the
// log probe and to the probes of the layers the workload's PDUs cross.
func runProbes(w workload, seed int64, smoke bool) (*probes, error) {
	size := map[int]int{4: 20000, 16: 2000, 64: 200}
	if smoke {
		size = map[int]int{4: 2000, 16: 400, 64: 100}
	}
	spec := engineProbeSpec{n: clusterSize, groups: w.groups, loss: w.loss, rate: w.rate, msgs: size[4], seed: seed}
	pr := &probes{}
	var err error
	if pr.engine, err = probeEngine(spec); err != nil {
		return nil, err
	}
	variant := func(n int, total bool) (*engineProbe, error) {
		s := spec
		s.n, s.total, s.msgs, s.groups = n, total, size[n], 1
		return probeEngine(s)
	}
	if pr.n16, err = variant(16, false); err != nil {
		return nil, err
	}
	if pr.n64, err = variant(64, false); err != nil {
		return nil, err
	}
	if pr.total, err = variant(clusterSize, true); err != nil {
		return nil, err
	}
	pr.insertCPINs = probeLog(pr.engine, clusterSize)
	if !w.udp {
		pr.networkNsPerPDU, err = probeNetwork(pr.engine, clusterSize)
		return pr, err
	}
	if pr.codec, err = probeCodec(pr.engine, w.groups); err != nil {
		return nil, err
	}
	frame := int(pr.codec.bytesPerPDU * pr.codec.pdusPerFrame)
	pr.udpNsPerDatagram, err = probeUDP(clusterSize, frame)
	return pr, err
}

// benchSpec is the part of BENCHMARK.json the bench reads.
type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runAA runs the end-to-end set twice on this build and compares the
// two results metric by metric with the bounds: a benchmark whose own
// reruns disagree cannot judge a change.
func runAA(opt options) error {
	spec, err := loadSpec(opt.spec)
	if err != nil {
		return err
	}
	opt.trace = 0
	var sets [2][]result
	for i := range sets {
		fmt.Printf("# A/A set %d\n", i+1)
		if sets[i], err = runAll(opt); err != nil {
			return err
		}
	}
	fmt.Printf("\n%-12s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	disagree := 0
	for wi, first := range sets[0] {
		second := sets[1][wi]
		if !first.Correct || !second.Correct {
			disagree++
		}
		for _, m := range spec.EndToEnd {
			a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value
			diff := ratio(b-a, a)
			verdict := ""
			if diff > m.Bound || diff < -m.Bound {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", first.Workload, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d (metric, workload) pairs disagree beyond their bound", disagree)
	}
	return nil
}
