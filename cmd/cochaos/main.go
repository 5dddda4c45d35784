// Command cochaos drives the deterministic chaos harness (internal/chaos)
// from the shell: bounded parallel seed sweeps for CI, and single-seed
// replays with full trace dumps for debugging.
//
// Sweep 500 seeds on 4 workers, shrinking failures and writing their
// configs + flight dumps for artifact upload:
//
//	cochaos -sweep 500 -par 4 -shrink -faildir chaos-failures
//
// Sweep the same seeds with the wire codec in the loop (every simulated
// datagram is a frame through the runtime's delta-stamp link layer, and
// seeds that draw it corrupt some frames in flight):
//
//	cochaos -sweep 500 -par 4 -codec 2
//
// Replay one seed (for instance a sweep failure) standalone, verbosely,
// dumping every entity's flight stream, and check the dump against the
// Section 2.2 predicates offline:
//
//	cochaos -seed 4242 -v -trace seed-4242.flight.json
//	cotrace check seed-4242.flight.json
//
// Append a failing seed's (shrunk) config to the regression corpus:
//
//	cochaos -seed 4242 -shrink -corpus internal/chaos/corpus
//
// Replay with a live /metrics + /statez + pprof endpoint, kept up for
// five minutes after the run so it can be scraped:
//
//	cochaos -seed 4242 -obsv 127.0.0.1:9090 -hold 5m
//
// Exit status: 0 all runs passed, 1 at least one invariant violated,
// 2 usage or harness error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cobcast/internal/chaos"
	"cobcast/internal/core"
	"cobcast/internal/metrics"
	"cobcast/obsv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	sweep   int
	start   int64
	par     int
	seed    int64
	codec   int
	shrink  bool
	verbose bool
	trace   string
	faildir string
	corpus  string
	obsv    string
	hold    time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cochaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.sweep, "sweep", 0, "run this many consecutive seeds (sweep mode)")
	fs.Int64Var(&o.start, "start", 1, "first seed of the sweep")
	fs.IntVar(&o.par, "par", 4, "parallel workers for the sweep")
	fs.Int64Var(&o.seed, "seed", 0, "replay this single seed (replay mode)")
	fs.IntVar(&o.codec, "codec", 0, "2 routes every run's datagrams through the wire codec (delta-stamp v2); 0 keeps the PDU-pointer path")
	fs.BoolVar(&o.shrink, "shrink", false, "shrink failing configs to minimal form")
	fs.BoolVar(&o.verbose, "v", false, "print per-run statistics")
	fs.StringVar(&o.trace, "trace", "", "replay mode: write the run's flight dump (/tracez JSON, read by cotrace check) here")
	fs.StringVar(&o.faildir, "faildir", "", "write failing configs and flight dumps into this directory")
	fs.StringVar(&o.corpus, "corpus", "", "append failing (shrunk) configs to this corpus directory")
	fs.StringVar(&o.obsv, "obsv", "", "replay mode: serve /metrics, /statez and pprof on this address during the run")
	fs.DurationVar(&o.hold, "hold", 0, "replay mode: keep the -obsv endpoint up this long after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.codec != 0 && o.codec != 2 {
		fmt.Fprintln(stderr, "cochaos: -codec must be 0 or 2")
		return 2
	}
	switch {
	case o.sweep > 0 && o.seed != 0:
		fmt.Fprintln(stderr, "cochaos: -sweep and -seed are mutually exclusive")
		return 2
	case o.sweep > 0:
		return sweep(o, stdout, stderr)
	case o.seed != 0:
		return replay(o, stdout, stderr)
	default:
		fmt.Fprintln(stderr, "cochaos: need -sweep N or -seed N")
		fs.Usage()
		return 2
	}
}

// failure is one seed that violated an invariant during a sweep.
type failure struct {
	Seed      int64        `json:"seed"`
	Predicate string       `json:"predicate"`
	Detail    string       `json:"detail"`
	Config    chaos.Config `json:"config"`
	Shrunk    chaos.Config `json:"shrunk_config,omitempty"`
	// res is the failing run's evidence; nil when the config could not run.
	res *chaos.Result
}

// perEntityTable renders each entity's protocol counters as an aligned
// table — the first thing to read when a seed fails: it shows where the
// pipeline stalled (acceptance, loss detection, commit, delivery).
func perEntityTable(per []core.Stats) string {
	t := metrics.NewTable("per-entity protocol counters",
		"node", "data", "sync", "ackonly", "ret", "recv", "accepted", "dup", "parked",
		"f1", "f2", "retx", "committed", "delivered", "cpi", "cpi-pos", "deferred", "late")
	for i, s := range per {
		t.AddRow(i, s.DataSent, s.SyncSent, s.AckOnlySent, s.RetSent,
			s.DataRecv+s.SyncRecv+s.AckOnlyRecv+s.RetRecv,
			s.Accepted, s.Duplicates, s.Parked,
			s.F1Detections, s.F2Detections, s.Retransmitted,
			s.Committed, s.Delivered, s.CPIDisplaced, s.CPIDisplacement, s.DeferredConfirms, s.LateConfirms)
	}
	return t.String()
}

func sweep(o options, stdout, stderr io.Writer) int {
	if o.par < 1 {
		o.par = 1
	}
	seeds := make(chan int64)
	var mu sync.Mutex
	var failures []failure
	var passed int
	var agg struct {
		submitted                   int
		dropped, retx, parked, dups uint64
		desyncs, decodeDrops        uint64
		dataSent, syncSent          uint64
	}
	// regimes counts the seeds by the kind of run FromSeed expanded them
	// to, so a sweep log shows what it exercised.
	var regimes struct{ classic, stalled, multiGroup int }
	var wg sync.WaitGroup
	for w := 0; w < o.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				cfg := chaos.FromSeed(seed)
				cfg.WireVersion = o.codec
				res, err := chaos.Run(cfg)
				mu.Lock()
				switch {
				case cfg.Groups >= 2:
					regimes.multiGroup++
				case cfg.StalledPeers > 0:
					regimes.stalled++
				default:
					regimes.classic++
				}
				if err == nil {
					passed++
					agg.submitted += res.Submitted
					agg.dropped += res.Net.Dropped()
					agg.desyncs += res.Link.StampDesyncs.Load()
					agg.decodeDrops += res.Link.DecodeDrops.Load()
					agg.retx += res.Stats.Retransmitted
					agg.parked += res.Stats.Parked
					agg.dups += res.Stats.Duplicates
					agg.dataSent += res.Stats.DataSent
					agg.syncSent += res.Stats.SyncSent + res.Stats.AckOnlySent
					mu.Unlock()
					continue
				}
				f := failure{Seed: seed, Config: cfg, Detail: err.Error(), res: res}
				var v *chaos.Violation
				if errors.As(err, &v) {
					f.Predicate = v.Predicate
				}
				if o.shrink && f.Predicate != "" {
					if min, ok, _ := chaos.Shrink(cfg, 64); ok {
						f.Shrunk = min
					}
				}
				failures = append(failures, f)
				mu.Unlock()
			}
		}()
	}
	for i := int64(0); i < int64(o.sweep); i++ {
		seeds <- o.start + i
	}
	close(seeds)
	wg.Wait()

	sort.Slice(failures, func(i, j int) bool { return failures[i].Seed < failures[j].Seed })
	fmt.Fprintf(stdout, "cochaos: %d/%d seeds passed (seeds %d..%d)\n",
		passed, o.sweep, o.start, o.start+int64(o.sweep)-1)
	if o.verbose || len(failures) == 0 {
		fmt.Fprintf(stdout, "coverage: %d submissions, %d PDUs dropped (a frame counts one), %d retransmitted, %d parked, %d duplicate discards, %d DATA + %d SYNC/ACKONLY sends, %d stamp desyncs, %d frame decode drops\n",
			agg.submitted, agg.dropped, agg.retx, agg.parked, agg.dups, agg.dataSent, agg.syncSent, agg.desyncs, agg.decodeDrops)
		fmt.Fprintf(stdout, "regimes: %d classic, %d stalled, %d multi-group seeds\n",
			regimes.classic, regimes.stalled, regimes.multiGroup)
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "FAIL seed %d: [%s] %s\n", f.Seed, f.Predicate, f.Detail)
		fmt.Fprintf(stderr, "  replay: go run ./cmd/cochaos -seed %d -v -trace seed-%d.flight.json; go run ./cmd/cotrace check seed-%d.flight.json\n",
			f.Seed, f.Seed, f.Seed)
		if f.res != nil {
			fmt.Fprintln(stderr, perEntityTable(f.res.PerEntity))
		}
		if err := persistFailure(o, f, stderr); err != nil {
			fmt.Fprintln(stderr, "cochaos:", err)
			return 2
		}
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func replay(o options, stdout, stderr io.Writer) int {
	cfg := chaos.FromSeed(o.seed)
	cfg.WireVersion = o.codec
	if o.verbose {
		b, _ := json.MarshalIndent(cfg, "", "  ")
		fmt.Fprintf(stdout, "seed %d expands to:\n%s\n", o.seed, b)
	}
	var reg *obsv.Registry
	if o.obsv != "" {
		reg = obsv.NewRegistry()
		srv, err := obsv.Serve(reg, o.obsv)
		if err != nil {
			fmt.Fprintln(stderr, "cochaos: obsv endpoint:", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability: http://%s/metrics /statez /debug/pprof/\n", srv.Addr())
	}
	res, err := chaos.RunWithRegistry(cfg, reg)
	if res != nil {
		if o.trace != "" {
			if werr := writeDump(o.trace, res.Flight, res.Stalls); werr != nil {
				fmt.Fprintln(stderr, "cochaos:", werr)
				return 2
			}
			fmt.Fprintf(stdout, "flight dump (%d streams, trace sha256 %s) written to %s\n",
				len(res.Flight), res.TraceDigest, o.trace)
		}
		if o.verbose {
			fmt.Fprintf(stdout, "submitted %d, delivered %d, virtual elapsed %v (faults ceased at %v)\n",
				res.Submitted, res.Stats.Delivered, res.VirtualElapsed, res.FaultEnd)
			fmt.Fprintf(stdout, "net: %d PDUs sent, %d delivered, %d dropped (a frame counts one); retransmitted %d, parked %d, duplicates %d\n",
				res.Net.Sent, res.Net.Delivered, res.Net.Dropped(),
				res.Stats.Retransmitted, res.Stats.Parked, res.Stats.Duplicates)
			fmt.Fprintf(stdout, "link: %d stamp desyncs, %d frame decode drops (%d frames corrupted)\n",
				res.Link.StampDesyncs.Load(), res.Link.DecodeDrops.Load(), res.Corrupted)
		}
		if o.verbose || o.trace != "" {
			fmt.Fprintln(stdout, perEntityTable(res.PerEntity))
		}
	}
	if o.obsv != "" && o.hold > 0 {
		fmt.Fprintf(stdout, "holding endpoint for %v (ctrl-c to stop early)\n", o.hold)
		time.Sleep(o.hold)
	}
	if err == nil {
		fmt.Fprintf(stdout, "seed %d: all predicates hold\n", o.seed)
		return 0
	}
	f := failure{Seed: o.seed, Config: cfg, Detail: err.Error(), res: res}
	var v *chaos.Violation
	if !errors.As(err, &v) {
		fmt.Fprintln(stderr, "cochaos:", err)
		return 2
	}
	f.Predicate = v.Predicate
	fmt.Fprintf(stderr, "FAIL seed %d: [%s] %s\n", f.Seed, f.Predicate, f.Detail)
	for _, st := range res.Stalls {
		fmt.Fprintf(stderr, "  stall: node %s %s [%s] %s: %s (waiting on %v)\n",
			st.Node, st.Msg, st.Kind, st.Stage, st.Reason, st.WaitingOn)
	}
	if o.shrink {
		if min, ok, runs := chaos.Shrink(cfg, 64); ok {
			f.Shrunk = min
			b, _ := json.MarshalIndent(min, "", "  ")
			fmt.Fprintf(stdout, "shrunk (%d runs) to:\n%s\n", runs, b)
		}
	}
	if err := persistFailure(o, f, stderr); err != nil {
		fmt.Fprintln(stderr, "cochaos:", err)
		return 2
	}
	return 1
}

// persistFailure writes the failing config + flight dump into -faildir
// (for CI artifact upload) and appends the minimal config to -corpus if
// asked.
func persistFailure(o options, f failure, stderr io.Writer) error {
	if o.faildir != "" {
		if err := os.MkdirAll(o.faildir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		cfgPath := filepath.Join(o.faildir, fmt.Sprintf("seed-%d.config.json", f.Seed))
		if err := os.WriteFile(cfgPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		if f.res != nil {
			// The per-entity streams say what each entity did, and the
			// analyzer says which unmet condition holds what where.
			flightPath := filepath.Join(o.faildir, fmt.Sprintf("seed-%d.flight.json", f.Seed))
			if err := writeDump(flightPath, f.res.Flight, f.res.Stalls); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "  artifacts: %s\n", cfgPath)
	}
	if o.corpus != "" {
		cfg := f.Config
		if f.Shrunk != (chaos.Config{}) {
			cfg = f.Shrunk
		}
		path, err := chaos.AppendCorpus(o.corpus, chaos.CorpusEntry{
			Name:      fmt.Sprintf("seed-%d", f.Seed),
			Note:      fmt.Sprintf("sweep failure at seed %d", f.Seed),
			Predicate: f.Predicate,
			Config:    cfg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "  corpus: %s\n", path)
	}
	return nil
}

// writeDump writes a run's flight streams and stall verdicts as one
// /tracez-shaped JSON document: the file cotrace check reads.
func writeDump(path string, nodes []obsv.NodeFlight, stalls []obsv.Stall) error {
	dump, err := json.Marshal(struct {
		Stalls []obsv.Stall      `json:"stalls,omitempty"`
		Nodes  []obsv.NodeFlight `json:"nodes"`
	}{Stalls: stalls, Nodes: nodes})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(dump, '\n'), 0o644)
}
