package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cobcast/internal/flight"
)

// pinnedMultiGroup is the fixed scenario whose per-group digests are
// pinned below: three groups sharing one lossy, partitioning, pausing
// network. Any change to the multi-group harness, the v3 frame codec, or
// the protocol core that alters what any group delivers shows up here.
var pinnedMultiGroup = Config{
	Seed: 11, N: 3, Groups: 3,
	Workload: WorkloadContinuous, Messages: 18, PayloadSize: 32,
	MeanGapUS: 400, DelayBaseUS: 300, JitterUS: 200,
	Loss: 0.15, Duplicate: 0.05,
	Partitions: 1, Pauses: 1,
}

// pinnedMultiGroupDigests are pinnedMultiGroup's expected per-group trace
// digests (regenerate with: go test -run TestMultiGroupPinnedDigests -v
// after an intentional protocol change). They were last re-captured when
// the shard began to decide each engine's deferred confirmation once per
// step instead of once per input, which moves group 2's confirmations.
var pinnedMultiGroupDigests = []string{
	"15d5d81d441ba3deb3b8153b7b8c608f3b75c86ca3292b87c07d59caf3345b02",
	"133b13da580d3043d79af6b900bff49bef291722228525be264926995b6cb497",
	"02fa05c850ea12bd34eb54a8dfccb95014f873c9a7e98d206e5015257a5af28c",
}

// TestMultiGroupConverges runs 2..4 groups over one faulty network,
// with the groups of each process on one shard and split across two,
// and requires every per-group predicate to hold, every group to carry
// traffic, and the faults to have genuinely bitten.
func TestMultiGroupConverges(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for groups := 2; groups <= 4; groups++ {
			cfg := pinnedMultiGroup
			cfg.Groups, cfg.Shards = groups, shards
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("shards=%d groups=%d: %v", shards, groups, err)
			}
			if res.Submitted != cfg.Messages {
				t.Fatalf("shards=%d groups=%d: submitted %d, want %d", shards, groups, res.Submitted, cfg.Messages)
			}
			if len(res.GroupDigests) != groups {
				t.Fatalf("shards=%d groups=%d: %d group digests", shards, groups, len(res.GroupDigests))
			}
			seen := map[string]int{}
			for g, d := range res.GroupDigests {
				if d == "" {
					t.Fatalf("shards=%d groups=%d: empty digest for group %d", shards, groups, g)
				}
				seen[d]++
			}
			if len(seen) != groups {
				t.Fatalf("shards=%d groups=%d: digests collide (%v) — groups not isolated", shards, groups, res.GroupDigests)
			}
			// Deliveries count every (message, entity) pair exactly once
			// across all groups: group isolation means no message reaches a
			// group it was not submitted to.
			if want := uint64(cfg.Messages * cfg.N); res.Stats.Delivered != want {
				t.Fatalf("shards=%d groups=%d: delivered %d engine-deliveries, want %d", shards, groups, res.Stats.Delivered, want)
			}
			if res.Net.Dropped() == 0 {
				t.Errorf("shards=%d groups=%d: no datagram loss injected", shards, groups)
			}
			// Every engine contributes a flight dump, attributed "i/gG".
			if want := groups * cfg.N; len(res.Flight) != want {
				t.Fatalf("shards=%d groups=%d: %d flight dumps, want %d", shards, groups, len(res.Flight), want)
			}
			names := map[string]bool{}
			for _, nf := range res.Flight {
				if nf.Recorded == 0 || len(nf.Events) == 0 {
					t.Fatalf("shards=%d groups=%d: node %s recorded no flight events", shards, groups, nf.Node)
				}
				names[nf.Node] = true
			}
			for g := 0; g < groups; g++ {
				for i := 0; i < cfg.N; i++ {
					if node := fmt.Sprintf("%d/g%d", i, g); !names[node] {
						t.Fatalf("shards=%d groups=%d: missing flight dump for %s", shards, groups, node)
					}
				}
			}
			// A clean converged run leaves nothing stuck.
			if len(res.Stalls) != 0 {
				t.Fatalf("shards=%d groups=%d: unexpected stall verdicts: %+v", shards, groups, res.Stalls)
			}
		}
	}
}

// TestMultiGroupDeterminism is the contract extended to groups: same
// config, identical per-group digests, run over run.
func TestMultiGroupDeterminism(t *testing.T) {
	for _, wire := range []int{0, 2} {
		cfg := pinnedMultiGroup
		cfg.WireVersion = wire
		a, errA := Run(cfg)
		b, errB := Run(cfg)
		if errA != nil || errB != nil {
			t.Fatalf("wire=%d: run errors %v / %v", wire, errA, errB)
		}
		if a.TraceDigest != b.TraceDigest {
			t.Fatalf("wire=%d: combined digests differ: %s vs %s", wire, a.TraceDigest, b.TraceDigest)
		}
		for g := range a.GroupDigests {
			if a.GroupDigests[g] != b.GroupDigests[g] {
				t.Fatalf("wire=%d: group %d digests differ", wire, g)
			}
		}
		if a.VirtualElapsed != b.VirtualElapsed || a.Net != b.Net {
			t.Fatalf("wire=%d: run statistics differ", wire)
		}
	}
}

// TestMultiGroupPinnedDigests replays the fixed scenario and compares
// against the checked-in digests, so a behavior change anywhere in the
// multi-group path is a visible diff, not a silent drift.
func TestMultiGroupPinnedDigests(t *testing.T) {
	res, err := Run(pinnedMultiGroup)
	if err != nil {
		t.Fatal(err)
	}
	for g, want := range pinnedMultiGroupDigests {
		if got := res.GroupDigests[g]; got != want {
			t.Errorf("group %d digest drifted:\n got  %s\n want %s", g, got, want)
		}
	}
	if t.Failed() {
		t.Logf("full digest list for re-pinning: %q", res.GroupDigests)
	}
}

// TestMultiGroupV2Wire runs the scenario with the delta-stamp entry codec
// in the loop: per-(channel, group) stamp caches must keep each group's
// sequence space intact under loss and duplication.
// (Several groups ride that codec whatever wire_version says; that the 0
// and 2 runs of a seed coincide is pinned by TestGoldenSweepDigests.)
func TestMultiGroupV2Wire(t *testing.T) {
	cfg := pinnedMultiGroup
	cfg.WireVersion = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(cfg.Messages * cfg.N); res.Stats.Delivered != want {
		t.Fatalf("delivered %d engine-deliveries, want %d", res.Stats.Delivered, want)
	}
}

// TestMultiGroupTotalOrder checks the TO release stage per group.
func TestMultiGroupTotalOrder(t *testing.T) {
	cfg := pinnedMultiGroup
	cfg.TotalOrder = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMultiGroupLedgerSheds pins the bounded-memory regime on several
// groups: every group's entities get their own ledger, so a budget far
// below the offered load must shed at the producers. (The separate
// multi-group runner this harness once had accepted mem_budget_bytes and
// shed and silently ignored both: this config shed 0 and delivered all
// 1600 copies.)
func TestMultiGroupLedgerSheds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := Config{
			Seed: 5, N: 4, Groups: 2, Shards: shards,
			Workload: WorkloadContinuous, Messages: 400, PayloadSize: 512,
			DelayBaseUS: 500, MemBudgetBytes: 8 << 10, Shed: true,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.ShedSubmits == 0 {
			t.Fatalf("shards=%d: an 8 KiB budget under 400 × 512 B shed nothing: ledgers not attached to group engines", shards)
		}
		// Shed submissions never became broadcasts; every executed one is
		// delivered by all N engines of its group.
		if want := uint64((cfg.Messages - res.ShedSubmits) * cfg.N); res.Stats.Delivered != want {
			t.Fatalf("shards=%d: delivered %d engine-deliveries with %d shed, want %d", shards, res.Stats.Delivered, res.ShedSubmits, want)
		}
	}
}

// TestMultiGroupStalledPeer replays the stalled-single-source corpus
// reproducer on two groups, on one shard per process and on two: the
// freeze stops the peer's engine in every group, so each group's
// survivors must evict it on their own — groups share links, never
// protocol state — and every predicate must hold over the survivors of
// each group.
func TestMultiGroupStalledPeer(t *testing.T) {
	entries, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	for _, e := range entries {
		if e.Name == "stalled-single-source" {
			cfg = e.Config
		}
	}
	if cfg.StalledPeers != 1 {
		t.Fatal("corpus entry stalled-single-source missing or no longer stalled")
	}
	for _, shards := range []int{1, 2} {
		cfg.Groups, cfg.Shards = 2, shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(res.Stalled) != 1 || len(res.GroupDigests) != 2 {
			t.Fatalf("shards=%d: stalled %v over %d groups, want 1 entity over 2", shards, res.Stalled, len(res.GroupDigests))
		}
		// Each engine's flight ring (attributed "i/gG", far from wrapping on
		// this run) records its evictions: every surviving engine of every
		// group must have evicted the frozen peer, and the frozen peer's own
		// engines nothing.
		frozen := res.Stalled[0]
		if want := cfg.Groups * cfg.N; len(res.Flight) != want {
			t.Fatalf("shards=%d: %d flight dumps, want %d", shards, len(res.Flight), want)
		}
		for _, nf := range res.Flight {
			if nf.Recorded > uint64(nf.Capacity) {
				t.Fatalf("shards=%d %s: flight ring wrapped (%d > %d); evictions may be lost", shards, nf.Node, nf.Recorded, nf.Capacity)
			}
			evictedFrozen, evictions := false, 0
			for _, ev := range nf.Events {
				if ev.Type == flight.EvEvict {
					evictions++
					evictedFrozen = evictedFrozen || int(ev.Peer) == frozen
				}
			}
			if strings.HasPrefix(nf.Node, fmt.Sprintf("%d/", frozen)) {
				if evictions != 0 {
					t.Errorf("shards=%d %s is frozen yet evicted %d peers", shards, nf.Node, evictions)
				}
			} else if !evictedFrozen {
				t.Errorf("shards=%d %s never evicted frozen peer %d", shards, nf.Node, frozen)
			}
		}
		if res.ShedSubmits == 0 {
			t.Errorf("shards=%d: reproducer shed no submissions; budget too large to bite", shards)
		}
	}
}

// TestSweepMultiGroupTwoShards re-runs every multi-group seed of the
// 500-seed sweep with two shards per process, which the runtime's hash
// splits a run's groups across (even groups on one, odd on the other):
// the registry's routing, each shard's own step and flush, and a tick
// that visits the shards in turn must keep every predicate green.
// -short runs the seeds of 1..64.
func TestSweepMultiGroupTwoShards(t *testing.T) {
	last, runs := int64(500), 0
	if testing.Short() {
		last = 64
	}
	for seed := int64(1); seed <= last; seed++ {
		cfg := FromSeed(seed)
		if cfg.Groups < 2 {
			continue
		}
		cfg.Shards = 2
		if _, err := Run(cfg); err != nil {
			t.Errorf("seed %d at shards=2: %v", seed, err)
		}
		runs++
	}
	if runs == 0 {
		t.Fatal("no multi-group seed in the sweep")
	}
}

// TestFromSeedDrawsGroups checks the exploration distribution actually
// emits multi-group configs (about a quarter of seeds) and stays in the
// validated 0..4 envelope.
func TestFromSeedDrawsGroups(t *testing.T) {
	multi := 0
	for seed := int64(0); seed < 400; seed++ {
		cfg := FromSeed(seed)
		if cfg.Groups < 0 || cfg.Groups == 1 || cfg.Groups > 4 {
			t.Fatalf("seed %d: groups=%d outside {0, 2..4}", seed, cfg.Groups)
		}
		if cfg.Groups >= 2 {
			multi++
		}
	}
	if multi < 50 || multi > 150 {
		t.Errorf("%d/400 seeds drew multi-group; want roughly a quarter", multi)
	}
}

// TestShrinkReducesGroups checks the fewer-groups step: a failure that
// needs at least two groups keeps exactly two, and one that does not
// care shrinks back to the classic single-group run.
func TestShrinkReducesGroups(t *testing.T) {
	cfg := pinnedMultiGroup
	cfg.Groups = 4
	needsGroups := func(c Config) bool { return c.Groups >= 2 && c.Messages >= 2 }
	min, _ := ShrinkWith(cfg, needsGroups, 200)
	if min.Groups != 2 {
		t.Errorf("groups-dependent failure shrank to groups=%d, want 2", min.Groups)
	}
	anyFailure := func(c Config) bool { return c.Messages >= 2 }
	min, _ = ShrinkWith(cfg, anyFailure, 200)
	if min.Groups != 0 {
		t.Errorf("groups-independent failure kept groups=%d, want 0", min.Groups)
	}
}

// TestMultiGroupBadConfig pins the Groups validation bound.
func TestMultiGroupBadConfig(t *testing.T) {
	cfg := pinnedMultiGroup
	cfg.Groups = 5
	_, err := Run(cfg)
	if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "groups") {
		t.Fatalf("groups=5 not rejected: %v", err)
	}
}
