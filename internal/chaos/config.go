// Package chaos is a deterministic, seed-driven fault-exploration engine
// for the CO protocol: FoundationDB-style simulation testing on the
// virtual-time simulator. A seed expands into a randomized cluster run —
// cluster size, workload shape, per-link loss and delay distributions,
// correlated loss bursts (the paper's receive-buffer-overrun failure
// mode), partitions that form and heal, paused entities — and the run is
// recorded through internal/trace and checked against every safety
// predicate of Section 2.2 plus liveness predicates (every broadcast
// delivered everywhere, no DATA PDU stuck in any log at quiesce).
//
// Determinism contract: a run reads no wall clock and draws randomness
// from exactly two seeded streams — the chaos RNG (schedule derivation
// and fault rolls, in simulator-event order) and the network's RNG
// (duplication and delay jitter, same seed) — so the same Config always yields
// a byte-identical trace. Failing seeds auto-shrink to minimal configs
// (shrink.go) and land in a regression corpus replayed by plain go test
// (corpus.go, corpus/*.json). cmd/cochaos runs bounded parallel sweeps
// and replays single seeds with full trace dumps.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Workload shapes the engine can draw. Mixed overlays a file transfer on
// conversational chatter; the rest map to one internal/workload generator.
const (
	WorkloadContinuous  = "continuous"
	WorkloadSingle      = "single"
	WorkloadBursty      = "bursty"
	WorkloadInteractive = "interactive"
	WorkloadMixed       = "mixed"
)

// workloadShapes lists every shape FromSeed draws from.
var workloadShapes = []string{
	WorkloadContinuous, WorkloadSingle, WorkloadBursty, WorkloadInteractive, WorkloadMixed,
}

// Config fully determines one chaos run. It is the unit stored in the
// regression corpus, so every field must round-trip through JSON; the
// concrete fault schedule (which links are slow, per-link loss rates,
// partition groups, window times) is re-derived from Seed inside Run, not
// stored.
type Config struct {
	// Seed drives every random choice of the run.
	Seed int64 `json:"seed"`
	// N is the cluster size, 2..16.
	N int `json:"n"`
	// TotalOrder runs the cluster in TO mode and additionally checks
	// total-order preservation.
	TotalOrder bool `json:"total_order,omitempty"`
	// DenseFold disables the engines' sparse ACK-fold fast paths so the
	// run exercises the dense reference arithmetic. The two modes must
	// be byte-identical in every trace digest — the differential tests
	// replay the same seed both ways to pin that equivalence.
	DenseFold bool `json:"dense_fold,omitempty"`

	// Workload names the traffic shape (see the Workload constants);
	// Messages is the total submission count and PayloadSize the
	// application payload bytes. MeanGapUS spaces submissions (µs).
	Workload    string `json:"workload"`
	Messages    int    `json:"messages"`
	PayloadSize int    `json:"payload_size"`
	MeanGapUS   int    `json:"mean_gap_us"`

	// DelayBaseUS bounds the per-link base propagation delay (µs, drawn
	// per directed link); JitterUS bounds the additional per-datagram
	// jitter. SlowEntities marks that many entities as slow: every link
	// touching one runs at 8× its base delay.
	DelayBaseUS  int `json:"delay_base_us"`
	JitterUS     int `json:"jitter_us,omitempty"`
	SlowEntities int `json:"slow_entities,omitempty"`

	// Loss bounds the per-directed-link datagram loss probability (each
	// link draws its own rate in [0, Loss]). Duplicate is the uniform
	// datagram duplication probability. BurstProb triggers a correlated
	// loss burst at the receiving entity — the next BurstLen datagrams
	// addressed to it are dropped, modeling a receive-buffer overrun.
	Loss      float64 `json:"loss,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	BurstProb float64 `json:"burst_prob,omitempty"`
	BurstLen  int     `json:"burst_len,omitempty"`
	// Corrupt is the probability that a delivered copy of a frame has
	// one byte past its header flipped, or is truncated past its header;
	// the receiver's link layer drops it from the fault on as loss. It
	// bites where frames fly (wire version 2, every run of several
	// groups) and, like loss, ceases before the drain phase.
	Corrupt float64 `json:"corrupt,omitempty"`

	// Partitions cuts the cluster into two groups that many times for a
	// random window; Pauses isolates one random entity (a stop-the-world
	// pause whose traffic overruns and drops) that many times. Fault
	// windows are disjoint and all heal before the drain phase.
	Partitions int `json:"partitions,omitempty"`
	Pauses     int `json:"pauses,omitempty"`

	// WireVersion 2 routes every simulated datagram through the real
	// wire codec, so loss and duplication exercise its per-source stamp
	// caches; 0 keeps the PDU-pointer path and its pinned trace digests
	// (with Groups >= 2 it means 2: several groups always ride real
	// frames). The codec changes only the byte representation in flight,
	// never the PDU sequence a fault-free channel delivers, so 0 and 2
	// runs of one seed share a trace digest when no delta loses its
	// reference.
	WireVersion int `json:"wire_version,omitempty"`

	// Groups is the number of independent ordered groups the run drives
	// over the one faulty network; 0 or 1 is the classic single-group
	// run. There is one runner: each group is an ordinary simrun.Cluster
	// on the shared simulator and network, so every other field means
	// per group what it means for one — the same per-link
	// loss/delay/partition schedule hits every group's datagrams (v3
	// group-addressed frames for groups other than 0), each submission
	// draws its group, and every safety and liveness predicate is
	// checked per group.
	Groups int `json:"groups,omitempty"`

	// StalledPeers freezes that many entities at a random point mid-run:
	// they stop reading, acking and submitting — permanently and in
	// every group (the process stalled, not one engine), while their
	// links stay up (distinct from a partition or pause, which heal).
	// Stalled runs derive a suspicion timeout spanning the fault horizon
	// so each group's survivors evict the frozen peers, and every
	// predicate is checked over the survivors. Lossy faults are rejected
	// alongside stalls: a frozen source can never serve retransmissions
	// (source-only repair, see internal/core/evict.go), so any loss of
	// its pre-freeze messages would be unrecoverable by design.
	StalledPeers int `json:"stalled_peers,omitempty"`
	// MemBudgetBytes gives every entity of every group its own memory
	// ledger with this byte budget (the node runtime's per-group
	// ledgers), and Shed sheds application submissions at an
	// over-budget sender (the node runtime's BackpressureShed
	// admission). Each requires the other: a producer cannot block in
	// virtual time, so a budget there always sheds.
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
	Shed           bool  `json:"shed,omitempty"`

	// Shards is every process's group-shard count K (0 means 1): the
	// runtime's registry spreads a run's groups over K shards by its
	// hash. FromSeed does not draw it.
	Shards int `json:"shards,omitempty"`
}

// ErrBadConfig reports an unusable chaos configuration.
var ErrBadConfig = errors.New("chaos: bad config")

// Validate reports whether the configuration can run.
func (c Config) Validate() error {
	if c.N < 2 || c.N > 16 {
		return fmt.Errorf("%w: n=%d (want 2..16)", ErrBadConfig, c.N)
	}
	switch c.Workload {
	case WorkloadContinuous, WorkloadSingle, WorkloadBursty, WorkloadInteractive, WorkloadMixed:
	default:
		return fmt.Errorf("%w: workload %q", ErrBadConfig, c.Workload)
	}
	if c.Messages < 1 {
		return fmt.Errorf("%w: messages=%d", ErrBadConfig, c.Messages)
	}
	if c.Loss < 0 || c.Loss > 0.5 {
		return fmt.Errorf("%w: loss=%v (want 0..0.5)", ErrBadConfig, c.Loss)
	}
	if c.Duplicate < 0 || c.Duplicate > 0.5 {
		return fmt.Errorf("%w: duplicate=%v", ErrBadConfig, c.Duplicate)
	}
	if c.BurstProb < 0 || c.BurstProb > 0.2 {
		return fmt.Errorf("%w: burst_prob=%v (want 0..0.2)", ErrBadConfig, c.BurstProb)
	}
	if c.Corrupt < 0 || c.Corrupt > 0.2 {
		return fmt.Errorf("%w: corrupt=%v (want 0..0.2)", ErrBadConfig, c.Corrupt)
	}
	if c.BurstProb > 0 && c.BurstLen < 1 {
		return fmt.Errorf("%w: burst_prob set with burst_len=%d", ErrBadConfig, c.BurstLen)
	}
	if c.Partitions < 0 || c.Pauses < 0 || c.SlowEntities < 0 {
		return fmt.Errorf("%w: negative fault count", ErrBadConfig)
	}
	if c.SlowEntities >= c.N {
		return fmt.Errorf("%w: slow_entities=%d with n=%d", ErrBadConfig, c.SlowEntities, c.N)
	}
	if c.WireVersion != 0 && c.WireVersion != 2 {
		return fmt.Errorf("%w: wire_version=%d (want 0 or 2)", ErrBadConfig, c.WireVersion)
	}
	if c.Groups < 0 || c.Groups > 4 {
		return fmt.Errorf("%w: groups=%d (want 0..4)", ErrBadConfig, c.Groups)
	}
	if c.StalledPeers < 0 || c.MemBudgetBytes < 0 {
		return fmt.Errorf("%w: negative stalled_peers or mem_budget_bytes", ErrBadConfig)
	}
	if c.StalledPeers > 0 {
		if c.N-c.StalledPeers < 2 {
			return fmt.Errorf("%w: stalled_peers=%d with n=%d (need 2 survivors)",
				ErrBadConfig, c.StalledPeers, c.N)
		}
		if c.Loss > 0 || c.BurstProb > 0 || c.Corrupt > 0 || c.Partitions > 0 || c.Pauses > 0 {
			return fmt.Errorf("%w: stalled_peers with lossy faults (a frozen source cannot serve retransmissions)",
				ErrBadConfig)
		}
	}
	if c.Shed != (c.MemBudgetBytes > 0) {
		return fmt.Errorf("%w: shed=%v with mem_budget_bytes=%d (each requires the other)",
			ErrBadConfig, c.Shed, c.MemBudgetBytes)
	}
	if c.Shards < 0 || c.Shards > 4 {
		return fmt.Errorf("%w: shards=%d (want 0..4)", ErrBadConfig, c.Shards)
	}
	return nil
}

// FromSeed expands a seed into a randomized run configuration: n ∈ 2..8,
// loss up to 30%, duplication up to 10%, overrun bursts, frame
// corruption up to 5%, up to two partitions and two pauses, every
// workload shape. The expansion is the sweep's exploration distribution;
// Run re-derives the concrete fault schedule from cfg.Seed, so a Config
// shrunk or stored in the corpus replays identically without this
// function.
func FromSeed(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Seed:        seed,
		N:           2 + rng.Intn(7),
		TotalOrder:  rng.Intn(4) == 0,
		Workload:    workloadShapes[rng.Intn(len(workloadShapes))],
		Messages:    12 + rng.Intn(61),
		PayloadSize: 16 + rng.Intn(113),
		MeanGapUS:   200 + rng.Intn(1800),
		DelayBaseUS: 100 + rng.Intn(1900),
		JitterUS:    rng.Intn(1500),
		Loss:        float64(rng.Intn(31)) / 100,
		Duplicate:   float64(rng.Intn(11)) / 100,
	}
	if rng.Intn(2) == 0 {
		cfg.BurstProb = float64(1+rng.Intn(5)) / 100
		cfg.BurstLen = 2 + rng.Intn(6)
	}
	cfg.Partitions = rng.Intn(3)
	cfg.Pauses = rng.Intn(3)
	if cfg.N > 2 && rng.Intn(3) == 0 {
		cfg.SlowEntities = 1
	}
	// Drawn last so every earlier field keeps its historical value for a
	// given seed (corpus entries and pinned results stay comparable):
	// a quarter of the seeds run 2..4 groups over the one faulty network.
	if rng.Intn(4) == 0 {
		cfg.Groups = 2 + rng.Intn(3)
	}
	// Also drawn last: a sixth of the remaining single-group seeds run
	// the bounded-memory overload regime — one peer freezes mid-run and
	// every entity gets a small shedding ledger budget. Lossy faults are
	// cleared (see the StalledPeers field comment: a frozen source can
	// never repair a lost pre-freeze message), so the stall is the fault.
	if cfg.Groups == 0 && cfg.N > 2 && rng.Intn(6) == 0 {
		cfg.StalledPeers = 1
		cfg.MemBudgetBytes = int64(32+rng.Intn(97)) << 10 // 32..128 KiB
		cfg.Shed = true
		cfg.Loss, cfg.BurstProb, cfg.BurstLen = 0, 0, 0
		cfg.Partitions, cfg.Pauses = 0, 0
	}
	// Drawn after everything else, for the same reason: a third of the
	// seeds corrupt up to 5% of the frames they deliver. A stalled run
	// stays free of lossy faults.
	if rng.Intn(3) == 0 && cfg.StalledPeers == 0 {
		cfg.Corrupt = float64(1+rng.Intn(5)) / 100
	}
	return cfg
}

// durations derived from the config; µs fields become time.Durations here.
func (c Config) meanGap() time.Duration { return time.Duration(c.MeanGapUS) * time.Microsecond }
func (c Config) delayBase() time.Duration {
	return time.Duration(c.DelayBaseUS) * time.Microsecond
}
