package chaos

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
	"cobcast/internal/simrun"
	"cobcast/internal/workload"
)

// TestFromSeedStaysInBounds checks the exploration distribution honors
// its documented envelope for many seeds.
func TestFromSeedStaysInBounds(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		cfg := FromSeed(seed)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cfg.N < 2 || cfg.N > 8 {
			t.Fatalf("seed %d: n=%d outside 2..8", seed, cfg.N)
		}
		if cfg.Loss > 0.30 {
			t.Fatalf("seed %d: loss=%v > 0.30", seed, cfg.Loss)
		}
		if cfg.Duplicate > 0.10 {
			t.Fatalf("seed %d: duplicate=%v > 0.10", seed, cfg.Duplicate)
		}
	}
}

// TestSweep runs a bounded seed sweep and requires every predicate to
// hold; it also asserts the sweep genuinely exercised the fault machinery
// (drops, retransmissions, parking, duplicates) rather than passing
// vacuously. CI's chaos-sweep job runs the 500-seed version through
// cmd/cochaos.
func TestSweep(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	var agg struct {
		dropped, retx, parked, dups uint64
		partitions, pauses, toRuns  int
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := FromSeed(seed)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
		if res.Submitted == 0 || res.Stats.Delivered == 0 {
			t.Fatalf("seed %d: empty run (%d submitted)", seed, res.Submitted)
		}
		agg.dropped += res.Net.Dropped()
		agg.retx += res.Stats.Retransmitted
		agg.parked += res.Stats.Parked
		agg.dups += res.Stats.Duplicates
		agg.partitions += cfg.Partitions
		agg.pauses += cfg.Pauses
		if cfg.TotalOrder {
			agg.toRuns++
		}
	}
	if agg.dropped == 0 {
		t.Error("sweep injected no datagram loss")
	}
	if agg.retx == 0 {
		t.Error("sweep triggered no retransmissions")
	}
	if agg.parked == 0 {
		t.Error("sweep produced no out-of-order parking")
	}
	if agg.dups == 0 {
		t.Error("sweep produced no duplicate discards")
	}
	if agg.partitions == 0 || agg.pauses == 0 {
		t.Errorf("sweep scheduled %d partitions, %d pauses; want both > 0",
			agg.partitions, agg.pauses)
	}
	if !testing.Short() && agg.toRuns == 0 {
		t.Error("sweep never exercised total-order mode")
	}
}

// TestStalledPeerRuns exercises the bounded-memory overload regime the
// expansion draws: for several seeds that freeze a peer, the run must
// pass every survivor predicate, and — whenever the frozen peer left
// survivors with undelivered obligations — the suspicion timer must have
// evicted it. Aggregate evidence requirements keep the regime honest:
// the seeds must actually trigger evictions, and replaying the corpus
// reproducers must actually shed.
func TestStalledPeerRuns(t *testing.T) {
	want := 4
	if testing.Short() {
		want = 2
	}
	ran := 0
	var autoEvictions uint64
	for seed := int64(0); seed < 4000 && ran < want; seed++ {
		cfg := FromSeed(seed)
		if cfg.StalledPeers == 0 {
			continue
		}
		ran++
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
		if len(res.Stalled) != cfg.StalledPeers {
			t.Fatalf("seed %d: stalled %v, want %d entities", seed, res.Stalled, cfg.StalledPeers)
		}
		autoEvictions += res.Stats.AutoSuspected
	}
	if ran < want {
		t.Fatalf("only %d stalled seeds found in 0..4000; expansion draw broken?", ran)
	}
	if autoEvictions == 0 {
		t.Error("no stalled run auto-evicted its frozen peer")
	}
}

// TestLullDoesNotEndRunEarly: a submission lull longer than the time to
// quiesce must not end a stalled or shedding run before its schedule has
// come due. These three sweep seeds once did — 308 ran none of its 35
// submissions and passed every predicate vacuously — and Run now reports
// such a run under schedule-executed.
func TestLullDoesNotEndRunEarly(t *testing.T) {
	for _, seed := range []int64{208, 308, 398} {
		cfg := FromSeed(seed)
		if cfg.StalledPeers == 0 && !cfg.Shed {
			t.Fatalf("seed %d no longer draws a stalled or shedding run", seed)
		}
		if _, err := Run(cfg); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestStalledDeterminism extends the determinism contract to the stall
// machinery: the first expansion-drawn stalled seed must replay to a
// byte-identical trace with identical shed and eviction counts.
func TestStalledDeterminism(t *testing.T) {
	for seed := int64(0); seed < 4000; seed++ {
		cfg := FromSeed(seed)
		if cfg.StalledPeers == 0 {
			continue
		}
		a, errA := Run(cfg)
		b, errB := Run(cfg)
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: run errors %v / %v", seed, errA, errB)
		}
		if a.TraceDigest != b.TraceDigest || !reflect.DeepEqual(a.Flight, b.Flight) {
			t.Fatalf("seed %d: stalled run not deterministic", seed)
		}
		if a.ShedSubmits != b.ShedSubmits || a.Stats.AutoSuspected != b.Stats.AutoSuspected {
			t.Fatalf("seed %d: shed/eviction counts differ across replays", seed)
		}
		return
	}
	t.Fatal("no stalled seed found in 0..4000")
}

// TestStalledCorpusSheds pins the satellite requirement: the corpus holds
// at least two bounded-memory reproducers (configs that fail without
// backpressure and stall suspicion), and replaying them both sheds
// producers and evicts the frozen peer.
func TestStalledCorpusSheds(t *testing.T) {
	entries, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	var stalled []CorpusEntry
	for _, e := range entries {
		if e.Config.StalledPeers > 0 {
			stalled = append(stalled, e)
		}
	}
	if len(stalled) < 2 {
		t.Fatalf("corpus holds %d stalled-peer reproducers, want >= 2", len(stalled))
	}
	for _, e := range stalled {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := Run(e.Config)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if res.ShedSubmits == 0 {
				t.Error("reproducer shed no submissions; budget too large to bite")
			}
			if res.Stats.AutoSuspected == 0 {
				t.Error("survivors never evicted the frozen peer")
			}
			if res.Stats.PressureEvicted == 0 {
				t.Error("no eviction fired on the pressure-shortened timer")
			}
		})
	}
}

// TestDeterminism is the contract: same seed, identical flight streams.
func TestDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		cfg := FromSeed(seed)
		a, errA := Run(cfg)
		b, errB := Run(cfg)
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: run errors %v / %v", seed, errA, errB)
		}
		if a.TraceDigest != b.TraceDigest {
			t.Fatalf("seed %d: trace digests differ: %s vs %s", seed, a.TraceDigest, b.TraceDigest)
		}
		if !reflect.DeepEqual(a.Flight, b.Flight) {
			t.Fatalf("seed %d: flight streams not identical", seed)
		}
		if a.VirtualElapsed != b.VirtualElapsed || a.Net != b.Net {
			t.Fatalf("seed %d: run statistics differ", seed)
		}
	}
}

// TestCorpusReplay replays every checked-in regression config and
// requires all predicates to hold now.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty; expected checked-in entries")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := Run(e.Config)
			if err != nil {
				t.Fatalf("corpus entry %s (%s): %v", e.Name, e.Note, err)
			}
			if res.Submitted == 0 {
				t.Fatalf("corpus entry %s ran empty", e.Name)
			}
		})
	}
}

// TestCorpusRoundTrip exercises append + load + append-only refusal.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := CorpusEntry{
		Note:      "synthetic",
		Predicate: PredLivenessDrain,
		Config:    FromSeed(99),
	}
	path, err := AppendCorpus(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendCorpus(dir, CorpusEntry{Name: "seed-99", Config: FromSeed(99)}); err == nil {
		t.Fatal("overwriting an existing entry should fail")
	}
	got, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "seed-99" || got[0].Config != e.Config {
		t.Fatalf("round trip mismatch: %+v (from %s)", got, path)
	}
	if es, err := LoadCorpus(dir + "/missing"); err != nil || es != nil {
		t.Fatalf("missing dir should be empty corpus, got %v, %v", es, err)
	}
}

// TestShrinkWithMinimizes drives the shrinker with a synthetic failure
// predicate and checks it reaches the minimal failing config.
func TestShrinkWithMinimizes(t *testing.T) {
	cfg := Config{
		Seed: 7, N: 8, Workload: WorkloadContinuous, Messages: 64,
		PayloadSize: 32, MeanGapUS: 500, DelayBaseUS: 500, JitterUS: 900,
		Loss: 0.3, Duplicate: 0.1, BurstProb: 0.05, BurstLen: 4,
		Partitions: 2, Pauses: 2, SlowEntities: 1,
	}
	// Fails whenever a partition exists and at least 4 messages flow:
	// everything else should shrink away.
	fails := func(c Config) bool { return c.Partitions >= 1 && c.Messages >= 4 }
	min, runs := ShrinkWith(cfg, fails, 200)
	if !fails(min) {
		t.Fatal("shrinker returned a passing config")
	}
	if min.Messages != 4 || min.Partitions != 1 {
		t.Errorf("not minimal: messages=%d partitions=%d", min.Messages, min.Partitions)
	}
	if min.Pauses != 0 || min.Loss != 0 || min.Duplicate != 0 || min.BurstProb != 0 ||
		min.JitterUS != 0 || min.SlowEntities != 0 || min.N != 2 {
		t.Errorf("irrelevant knobs survived shrinking: %+v", min)
	}
	if runs > 200 {
		t.Errorf("shrinker overspent: %d runs", runs)
	}
}

// TestShrinkConfirmsFailureFirst checks Shrink refuses configs that pass.
func TestShrinkConfirmsFailureFirst(t *testing.T) {
	cfg := FromSeed(5)
	if _, ok, _ := Shrink(cfg, 3); ok {
		t.Fatal("Shrink claimed a passing config fails")
	}
}

// TestViolationError pins the error wording used by cochaos and CI logs.
func TestViolationError(t *testing.T) {
	v := &Violation{Predicate: PredCausalOrder, Detail: "entity 1 delivered s0#2 before s0#1"}
	var err error = v
	var got *Violation
	if !errors.As(err, &got) || got.Predicate != PredCausalOrder {
		t.Fatal("Violation does not round-trip through errors.As")
	}
	if want := "chaos: causality-preserved violated: entity 1 delivered s0#2 before s0#1"; v.Error() != want {
		t.Fatalf("Error() = %q, want %q", v.Error(), want)
	}
}

// TestBadConfigRejected checks Run surfaces config errors as ErrBadConfig,
// not Violations.
func TestBadConfigRejected(t *testing.T) {
	_, err := Run(Config{Seed: 1, N: 1, Workload: WorkloadSingle, Messages: 1})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("got %v, want ErrBadConfig", err)
	}
	var v *Violation
	if errors.As(err, &v) {
		t.Fatal("config error misreported as a Violation")
	}
}

// TestMessageOrderPredicate shows the message-level predicate is not
// vacuous: on a converged cluster whose backlog rode packed it holds,
// and a repeat, a gap or a swap in one entity's delivery sequence each
// break it — faults the PDU-level trace predicates cannot see inside a
// pack.
func TestMessageOrderPredicate(t *testing.T) {
	c, err := simrun.New(simrun.Options{N: 3, Core: core.Config{Window: 2}})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewSingleSource(1, 40, 24))
	if _, err := c.RunToQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := c.TotalStats(); st.MsgsSent <= st.DataSent {
		t.Fatalf("%d messages rode %d DATA PDUs: nothing packed", st.MsgsSent, st.DataSent)
	}
	alive := []pdu.EntityID{0, 1, 2}
	if v := checkMessageOrder(c, alive); v != nil {
		t.Fatalf("clean run: %v", v)
	}
	clean := c.Delivered[2]
	doctored := map[string][]core.Delivery{
		"repeat": append(append([]core.Delivery{}, clean[:6]...), clean[5:]...),
		"gap":    append(append([]core.Delivery{}, clean[:5]...), clean[6:]...),
		"swap":   append(append(append([]core.Delivery{}, clean[:5]...), clean[6], clean[5]), clean[7:]...),
		"short":  clean[:len(clean)-1],
	}
	for name, ds := range doctored {
		c.Delivered[2] = ds
		if v := checkMessageOrder(c, alive); v == nil || v.Predicate != PredMessageOrder {
			t.Errorf("%s: got %v, want a %s violation", name, v, PredMessageOrder)
		}
	}
}
