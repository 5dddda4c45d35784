package chaos

import (
	"errors"
	"testing"
	"time"

	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/simrun"
	"cobcast/internal/trace"
)

// TestWireVersionDeterminism extends the determinism contract to the
// codec byte path: same Config ⇒ same trace digest and network counters
// under either wire version.
func TestWireVersionDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		for _, v := range []int{0, 2} {
			cfg := FromSeed(seed)
			cfg.WireVersion = v
			a, errA := Run(cfg)
			b, errB := Run(cfg)
			if errA != nil || errB != nil {
				t.Fatalf("seed %d v%d: run errors %v / %v", seed, v, errA, errB)
			}
			if a.TraceDigest != b.TraceDigest {
				t.Fatalf("seed %d v%d: digests differ: %s vs %s", seed, v, a.TraceDigest, b.TraceDigest)
			}
			if a.Net != b.Net {
				t.Fatalf("seed %d v%d: net stats differ: %+v vs %+v", seed, v, a.Net, b.Net)
			}
		}
	}
}

// TestStampIntervals runs one lossy, duplicating workload under the
// codec's full-stamp sync intervals K. At K=1 every PDU is full-stamped,
// so the round trip is lossless per PDU and the run must be
// trace-identical to the pointer path — the codec layer changes only the
// representation in flight. At K=2 and the default, loss strands deltas
// (the link layer's stamp desyncs > 0) and the CO service must hold
// regardless.
func TestStampIntervals(t *testing.T) {
	run := func(wire, k int) (digest string, desyncs uint64) {
		c, err := simrun.New(simrun.Options{
			N: 4,
			Net: []network.Option{network.WithUniformDelay(time.Millisecond),
				network.WithLossRate(0.15), network.WithDuplicateRate(0.05), network.WithSeed(9)},
			Trace: true, WireVersion: wire, StampInterval: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			c.SubmitAt(pdu.EntityID(i%4), []byte{byte(i)}, time.Duration(i)*300*time.Microsecond)
		}
		if _, err := c.RunToQuiescence(time.Minute); err != nil {
			t.Fatalf("wire %d K=%d: %v", wire, k, err)
		}
		if a, err := c.Analyze(); err != nil || a.CheckCOService() != nil {
			t.Fatalf("wire %d K=%d: CO service violated (analysis error %v)", wire, k, err)
		}
		digest = trace.Digest(c.Flight.Snapshot(nil))
		if n := c.Link.DecodeDrops.Load(); n != 0 {
			t.Fatalf("wire %d K=%d: %d frames failed to decode on a network that corrupts nothing", wire, k, n)
		}
		return digest, c.Link.StampDesyncs.Load()
	}
	pointer, _ := run(0, 0)
	if full, desyncs := run(2, 1); full != pointer || desyncs != 0 {
		t.Errorf("K=1 (full stamps only): digest %s, %d stamp desyncs; want the pointer path's %s and none", full, desyncs, pointer)
	}
	for _, k := range []int{2, 0} {
		if _, desyncs := run(2, k); desyncs == 0 {
			t.Errorf("K=%d: 15%% loss stranded no delta stamp", k)
		}
	}
}

// TestCodecV2ExercisesDeltaResync sweeps seeds under wire codec v2 and
// requires both that every predicate holds and that the sweep actually
// hit the delta-desync path: loss or duplication must strand at least
// one delta stamp without its reference (the link layer counts a stamp
// desync), proving the protocol recovers from codec-level loss, not just
// datagram loss.
func TestCodecV2ExercisesDeltaResync(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	var desyncs, dropped uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := FromSeed(seed)
		cfg.WireVersion = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
		if res.Submitted == 0 || res.Stats.Delivered == 0 {
			t.Fatalf("seed %d: empty run", seed)
		}
		desyncs += res.Link.StampDesyncs.Load()
		dropped += res.Net.Dropped()
	}
	if dropped == 0 {
		t.Error("v2 sweep injected no datagram loss")
	}
	if desyncs == 0 {
		t.Error("v2 sweep never desynchronized a delta stamp; resync path untested")
	}
}

// TestCorruptFramesDropAsLoss sweeps seeds over the byte path with the
// corrupt-frame fault drawn as FromSeed draws it: the link layer must
// drop every mangled frame from its fault on as loss — the sweep counts
// decode drops — without a panic, and every predicate must hold.
func TestCorruptFramesDropAsLoss(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 10
	}
	corrupting := 0
	var decodeDrops uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := FromSeed(seed)
		cfg.WireVersion = 2
		if cfg.Corrupt > 0 {
			corrupting++
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
		decodeDrops += res.Link.DecodeDrops.Load()
	}
	if corrupting == 0 {
		t.Fatal("no seed of the sweep drew frame corruption")
	}
	if decodeDrops == 0 {
		t.Errorf("%d corrupting seeds, yet no frame failed to decode", corrupting)
	}
}

// TestLinkFaultsFailTheRun shows the link-integrity predicate catching
// what RET would otherwise repair as loss, on seeds that draw no frame
// corruption: one frame cut short by a hook the harness does not know
// of, or one PDU its receiver rejects, fails every run of the sweep.
func TestLinkFaultsFailTheRun(t *testing.T) {
	faults := map[string]func(cfg Config) (*Result, error){
		"undecodable frame": func(cfg Config) (*Result, error) {
			cut := false
			return run(cfg, nil, nil, network.WithCorrupt(func(_, _ pdu.EntityID, frame []byte) []byte {
				if cut {
					return frame
				}
				cut = true
				return frame[:len(frame)-1]
			}))
		},
		"rejected PDU": func(cfg Config) (*Result, error) {
			bad := false
			return run(cfg, nil, func(_, _ pdu.EntityID, p *pdu.PDU) {
				// An unsequenced PDU is the decoder's scratch, this
				// receiver's alone.
				if !bad && !p.Kind.Sequenced() {
					bad = true
					p.CID++
				}
			})
		},
	}
	for name, fault := range faults {
		ran := 0
		for seed := int64(1); ran < 4; seed++ {
			cfg := FromSeed(seed)
			if cfg.Corrupt > 0 {
				continue
			}
			cfg.WireVersion = 2
			ran++
			_, err := fault(cfg)
			var v *Violation
			if !errors.As(err, &v) || v.Predicate != PredLinkIntegrity {
				t.Errorf("%s, seed %d: got %v, want a %s violation", name, seed, err, PredLinkIntegrity)
			}
		}
	}
}

// TestCorpusReplayUnderV2 replays every checked-in regression config
// through the v2 byte path: the corpus's loss, duplication, overrun and
// partition regimes must not break any predicate when delta stamps (and
// their desync-as-loss semantics) are in the loop.
func TestCorpusReplayUnderV2(t *testing.T) {
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
			cfg := e.Config
			cfg.WireVersion = 2
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("corpus entry %s under v2 (%s): %v", e.Name, e.Note, err)
			}
			if res.Submitted == 0 {
				t.Fatalf("corpus entry %s ran empty", e.Name)
			}
		})
	}
}

// TestBadWireVersionRejected pins config validation for the codec knob:
// 1 named the fixed-width codec until it was deleted.
func TestBadWireVersionRejected(t *testing.T) {
	for _, v := range []int{-1, 1, 3} {
		cfg := FromSeed(1)
		cfg.WireVersion = v
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("wire_version=%d: got %v, want ErrBadConfig", v, err)
		}
	}
}
