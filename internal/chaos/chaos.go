package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/network"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
	"cobcast/internal/simrun"
	"cobcast/internal/trace"
	"cobcast/internal/workload"
)

// Violation is a failed invariant: the error Run returns when the
// protocol, not the harness, is wrong. Predicate names the broken
// property ("information-preserved", "liveness-drain", ...) so corpus
// entries and CI artifacts can say what a seed once broke.
type Violation struct {
	Predicate string `json:"predicate"`
	Detail    string `json:"detail"`
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("chaos: %s violated: %s", v.Predicate, v.Detail)
}

// Predicate names checked by Run, in checking order.
const (
	PredScheduleExecuted  = "schedule-executed"
	PredLinkIntegrity     = "link-integrity"
	PredLivenessDelivered = "liveness-delivered"
	PredInformation       = "information-preserved"
	PredLocalOrder        = "local-order-preserved"
	PredCausalOrder       = "causality-preserved"
	PredTotalOrder        = "total-order-preserved"
	PredCOService         = "co-service"
	PredMessageOrder      = "message-order"
	PredLivenessDrain     = "liveness-drain"
)

// Result reports one completed chaos run (returned even when Run also
// returns a Violation, so failures still carry their evidence).
type Result struct {
	Config Config
	// Submitted is the number of application broadcasts scheduled.
	Submitted int
	// VirtualElapsed is the virtual time at quiescence (or at abandonment).
	VirtualElapsed time.Duration
	// FaultEnd is the virtual time after which the harness injected no
	// further loss; everything later is pure protocol recovery.
	FaultEnd time.Duration
	// Stats sums the counters of every engine; PerEntity is each
	// entity's own counters, summed over its groups (indexed by entity
	// ID); Net counts the simulated network's PDUs, a frame as one.
	Stats     core.Stats
	PerEntity []core.Stats
	Net       network.Stats
	// Link is the processes' link-layer counters (simrun.Cluster.Link);
	// Corrupted counts the frame copies the corrupt fault mangled, the
	// most Link.DecodeDrops may be.
	Link      *obsv.LinkMetrics
	Corrupted uint64
	// TraceDigest is the SHA-256 of the run's checked flight events
	// (trace.Digest), the determinism witness: same Config ⇒ same digest.
	TraceDigest string
	// GroupDigests is set by multi-group runs (Config.Groups >= 2): one
	// trace digest per group, in group order; TraceDigest then binds
	// them all. Nil for single-group runs.
	GroupDigests []string
	// Stalled lists the entities frozen mid-run (nil when none);
	// ShedSubmits counts submissions dropped by producer-side ledger
	// admission (Config.Shed).
	Stalled     []int
	ShedSubmits int
	// Flight holds each entity's complete flight stream as a /tracez dump
	// (virtual-time timestamps) and Stalls the stall-analyzer verdicts at
	// the end of the run — the evidence cochaos writes for a seed, which
	// cotrace check reads. Multi-group runs record one dump per engine,
	// attributed "i/gG" (entity i of group g).
	Flight []obsv.NodeFlight
	Stalls []obsv.Stall
}

// schedule is the concrete fault plan derived from Config.Seed. It exists
// only inside Run; corpus entries store the Config and re-derive it.
type schedule struct {
	baseDelay [][]time.Duration // per directed link
	lossRate  [][]float64       // per directed link
	windows   []faultWindow
}

type faultWindow struct {
	start, end time.Duration
	partition  []int // entity→group (0/1) when a partition; nil for a pause
	paused     pdu.EntityID
}

// stall freezes one entity at a point in time, forever.
type stall struct {
	id pdu.EntityID
	at time.Duration
}

// Run executes one chaos run. It returns a non-nil *Violation error when
// an invariant fails, ErrBadConfig for unusable configs, and nil when
// every predicate holds. The Result is non-nil whenever the config was
// runnable.
func Run(cfg Config) (*Result, error) { return RunWithRegistry(cfg, nil) }

// RunWithRegistry is Run with live instrumentation: when reg is non-nil
// every entity publishes its counters and state snapshots into it, so an
// obsv HTTP endpoint can watch the run. Instrumentation does not affect
// the run's determinism (the trace digest is identical with and without
// a registry).
//
// A run is max(1, cfg.Groups) ordered groups — each an ordinary
// simrun.Cluster with its own engines, sequence space and trace — on one
// simulator and one faulted network. The schedule's per-link loss rates,
// delays, bursts, partitions and pauses hit every group's datagrams alike
// (the groups share the links), a stall freezes the entity in every
// group (the process stopped, not one engine), and every predicate is
// checked per group. The classic run is the one-group case.
func RunWithRegistry(cfg Config, reg *obsv.Registry) (*Result, error) { return run(cfg, reg, nil) }

// run is RunWithRegistry with tap, when non-nil, observing every PDU as
// it arrives at an entity (simrun.Options.PDUTap), and extra applied
// after the harness's own network options (a test's fault of its own).
func run(cfg Config, reg *obsv.Registry, tap func(to, from pdu.EntityID, p *pdu.PDU), extra ...network.Option) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	groups := max(1, cfg.Groups)
	// The chaos RNG: first derives the static schedule (below, in fixed
	// order), then serves fault rolls during the run (in simulator-event
	// order, which is itself deterministic).
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := buildWorkload(cfg, rng)

	// Submission times: generator think time plus chaos spacing, so even
	// gap-free workloads spread across the fault horizon.
	type submission struct {
		at    time.Duration
		group int
		m     workload.Message
	}
	var subs []submission
	var at time.Duration
	for {
		m, ok := gen.Next()
		if !ok {
			break
		}
		at += m.Gap
		if cfg.MeanGapUS > 0 {
			at += time.Duration(rng.Intn(cfg.MeanGapUS+1)) * time.Microsecond
		}
		subs = append(subs, submission{at: at, m: m})
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("%w: workload produced no messages", ErrBadConfig)
	}
	// Each message draws its group; the first min(groups, len) messages
	// cover every group so no per-group predicate is vacuous. One group
	// has nothing to draw — and must not: a draw here would shift every
	// later roll of a classic seed.
	if groups > 1 {
		for i := range subs {
			subs[i].group = rng.Intn(groups)
			if i < groups {
				subs[i].group = i
			}
		}
	}
	submitEnd := subs[len(subs)-1].at
	// All injected loss ceases at faultEnd so the drain phase converges;
	// duplication and delay jitter may continue (they cannot stall the
	// protocol).
	faultEnd := submitEnd + 10*time.Millisecond

	sched := deriveSchedule(cfg, rng, faultEnd)
	stalls := deriveStalls(cfg, rng, faultEnd)

	// Stalled runs are the one place suspicion is on (see the Core
	// comment below): the timeout spans the whole fault horizon, so only
	// a permanently frozen peer can ever accumulate that much silence.
	var suspectAfter time.Duration
	if len(stalls) > 0 {
		suspectAfter = faultEnd
	}

	// The net options need the virtual clock before the simulator
	// exists; capture through a pointer filled in below.
	var s *sim.Sim
	burstLeft := make([]int, cfg.N)
	dropDatagram := func(from, to pdu.EntityID, _ network.Inbound) bool {
		if s.Now() >= faultEnd {
			return false
		}
		if burstLeft[to] > 0 {
			burstLeft[to]--
			return true
		}
		if r := sched.lossRate[from][to]; r > 0 && rng.Float64() < r {
			return true
		}
		if cfg.BurstProb > 0 && rng.Float64() < cfg.BurstProb {
			// Receive-buffer overrun at to: this datagram and the next
			// BurstLen-1 addressed to it are lost together.
			burstLeft[to] = cfg.BurstLen - 1
			return true
		}
		return false
	}
	jitterUS := cfg.JitterUS
	delay := func(from, to pdu.EntityID, netRNG *rand.Rand) time.Duration {
		d := sched.baseDelay[from][to]
		if jitterUS > 0 {
			d += time.Duration(netRNG.Intn(jitterUS+1)) * time.Microsecond
		}
		return d
	}

	// Frame corruption: one byte past the header flipped, or the frame
	// cut short past its header, on the receiver's own copy.
	var corrupted uint64
	corrupt := func(_, _ pdu.EntityID, frame []byte) []byte {
		hdr := pdu.FrameHeaderSize
		if g, _ := pdu.FrameGroup(frame); g != 0 {
			hdr = pdu.FrameHeaderSizeV3
		}
		if cfg.Corrupt == 0 || s.Now() >= faultEnd || len(frame) <= hdr || rng.Float64() >= cfg.Corrupt {
			return frame
		}
		corrupted++
		if rng.Intn(2) == 0 {
			frame[hdr+rng.Intn(len(frame)-hdr)] ^= byte(1 + rng.Intn(255))
			return frame
		}
		return frame[:hdr+rng.Intn(len(frame)-hdr)]
	}

	// Several groups always ride real frames: the v3 group-addressed
	// header is what such a run exists to exercise.
	wire := cfg.WireVersion
	if groups > 1 {
		wire = 2
	}
	clusters, err := simrun.NewGroups(simrun.Options{
		N: cfg.N,
		Core: core.Config{
			TotalOrder: cfg.TotalOrder,
			// SuspectAfter stays zero for classic runs: eviction would
			// legitimately shed a paused entity, and information-preserved
			// requires all N to deliver everything. Stalled runs are the
			// exception — the fault never heals, so survivors must evict
			// the frozen peer (predicates then quantify over survivors).
			SuspectAfter: suspectAfter,
			Ledger:       nil, // per-entity ledgers: MemBudgetBytes below
		},
		Net: append([]network.Option{
			network.WithSeed(cfg.Seed),
			network.WithDelay(delay),
			network.WithDuplicateRate(cfg.Duplicate),
			network.WithDropFilter(dropDatagram),
			network.WithCorrupt(corrupt),
		}, extra...),
		Trace:          true,
		PDUTap:         tap,
		Registry:       reg,
		WireVersion:    wire,
		MemBudgetBytes: cfg.MemBudgetBytes,
		Shards:         cfg.Shards,
	}, groups)
	if err != nil {
		return nil, fmt.Errorf("chaos: build cluster: %w", err)
	}
	s = clusters[0].Sim
	net := clusters[0].Net

	for _, sub := range subs {
		clusters[sub.group].SubmitAt(sub.m.Sender, sub.m.Payload, sub.at)
	}
	for _, w := range sched.windows {
		w := w
		if w.partition != nil {
			s.At(w.start, func() { applyPartition(net, w.partition, true) })
			s.At(w.end, func() { applyPartition(net, w.partition, false) })
		} else {
			s.At(w.start, func() { net.Isolate(w.paused) })
			s.At(w.end, func() { net.Rejoin(w.paused) })
		}
	}
	res := &Result{Config: cfg, Submitted: len(subs), FaultEnd: faultEnd}
	stalled := make(map[pdu.EntityID]bool, len(stalls))
	for _, st := range stalls {
		s.At(st.at, func() { clusters[0].Freeze(st.id) })
		res.Stalled = append(res.Stalled, int(st.id))
		stalled[st.id] = true
	}
	alive := make([]pdu.EntityID, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if !stalled[pdu.EntityID(i)] {
			alive = append(alive, pdu.EntityID(i))
		}
	}

	// Liveness: every group's survivors quiescent, having delivered every
	// executed submission of every surviving sender, within a generous
	// recovery budget after faults cease. Quantifying over survivors and
	// executed submissions covers every regime: a frozen entity never
	// drains, a submission shed by the ledger never became a broadcast,
	// and with neither the survivors are everyone and the executed
	// submissions are all of them once the last one has fired.
	groupDone := func(c *simrun.Cluster) bool {
		for _, i := range alive {
			if !c.Entities[i].Quiescent() {
				return false
			}
		}
		sub := c.SubmittedBy()
		for _, i := range alive {
			got := make([]int, cfg.N)
			for _, d := range c.Delivered[i] {
				got[d.Src]++
			}
			for _, src := range alive {
				if got[src] != sub[src] {
					return false
				}
			}
		}
		return true
	}
	deadline := faultEnd + 3*time.Second
	_, liveErr := clusters[0].RunUntil(func() bool {
		// Before the last submission fires, "everything executed so far is
		// delivered" must not end the run — in every regime: a lull longer
		// than the time to quiesce would otherwise cut a stalled or
		// shedding run short of its schedule.
		if s.Now() < submitEnd {
			return false
		}
		for _, c := range clusters {
			if !groupDone(c) {
				return false
			}
		}
		return true
	}, deadline)

	// The result is assembled whatever the outcome, so failures carry
	// their evidence.
	res.VirtualElapsed = s.Now()
	res.PerEntity = make([]core.Stats, cfg.N)
	res.Net = net.Stats()
	res.Link, res.Corrupted = clusters[0].Link, corrupted
	digests := make([]string, groups)
	unfired := 0 // scheduled submissions the run ended before
	for g, c := range clusters {
		for i, e := range c.Entities {
			st := e.Stats()
			res.Stats.Add(st)
			res.PerEntity[i].Add(st)
		}
		digests[g] = trace.Digest(c.Flight.Snapshot(nil))
		res.ShedSubmits += c.ShedCount()
		unfired += c.Submitted() - c.Skipped()
		for _, k := range c.SubmittedBy() {
			unfired -= k
		}
		res.Flight = append(res.Flight, c.FlightDumps()...)
		res.Stalls = append(res.Stalls, c.StallReport()...)
	}
	// One group's digest is the run's digest; several are reported one
	// by one in GroupDigests and bound together by a hash over them, so
	// TraceDigest stays the one-line determinism witness.
	res.TraceDigest = digests[0]
	if groups > 1 {
		res.GroupDigests = digests
		sum := sha256.Sum256([]byte(strings.Join(digests, "")))
		res.TraceDigest = hex.EncodeToString(sum[:])
	}

	if unfired > 0 {
		return res, &Violation{Predicate: PredScheduleExecuted, Detail: fmt.Sprintf(
			"run ended at %v with %d of %d scheduled submissions not yet due (last at %v)",
			res.VirtualElapsed, unfired, res.Submitted, submitEnd)}
	}
	if v := checkLink(res); v != nil {
		return res, v
	}
	if liveErr != nil {
		detail := liveErr.Error()
		for g, c := range clusters {
			if !groupDone(c) {
				delivered := make([]int, cfg.N)
				for i := range delivered {
					delivered[i] = len(c.Delivered[i])
				}
				detail = fmt.Sprintf("%v: group %d executed per sender %v, delivered per entity %v (stalled %v, shed %d)",
					liveErr, g, c.SubmittedBy(), delivered, res.Stalled, res.ShedSubmits)
				break
			}
		}
		return res, &Violation{Predicate: PredLivenessDelivered, Detail: detail}
	}
	for g, c := range clusters {
		if err := checkGroup(c, cfg.TotalOrder, alive, stalled); err != nil {
			var v *Violation
			if groups > 1 && errors.As(err, &v) {
				v.Detail = fmt.Sprintf("group %d: %s", g, v.Detail)
			}
			return res, err
		}
	}
	return res, nil
}

// checkLink fails a run whose datagrams the runtime could not handle.
// The simulated network hands over only what an entity sent, so every
// PDU must encode, every frame must decode unless the corrupt fault
// mangled it, every datagram must name a group of the run, and every
// entity must accept every PDU. RET would repair any of these as loss
// and let the ordering predicates pass; this one does not.
func checkLink(res *Result) *Violation {
	bad := func(format string, a ...any) *Violation {
		return &Violation{Predicate: PredLinkIntegrity, Detail: fmt.Sprintf(format, a...)}
	}
	switch l := res.Link; {
	case l.EncodeDrops.Load() > 0:
		return bad("%d PDUs failed to encode", l.EncodeDrops.Load())
	case l.DecodeDrops.Load() > res.Corrupted:
		return bad("%d frames failed to decode, %d were corrupted", l.DecodeDrops.Load(), res.Corrupted)
	case l.UnknownGroups.Load() > 0:
		return bad("%d datagrams named an unknown group", l.UnknownGroups.Load())
	}
	for i, st := range res.PerEntity {
		if st.InvalidPDUs > 0 {
			return bad("entity %d rejected %d PDUs", i, st.InvalidPDUs)
		}
	}
	return nil
}

// checkGroup runs the safety battery over one group's trace, each
// predicate reported under its own name, then the message-level order
// check and the drain check. With
// stalled entities it uses the survivor-restricted information and
// total-order forms; local and causal order are prefix-safe, so a frozen
// entity's truncated delivery sequence is checked like any other.
func checkGroup(c *simrun.Cluster, totalOrder bool, alive []pdu.EntityID, stalled map[pdu.EntityID]bool) error {
	an, err := c.Analyze()
	if err != nil {
		return fmt.Errorf("chaos: analyze trace: %w", err)
	}
	information, total := an.CheckInformationPreserved, an.CheckTotalOrderPreserved
	if len(stalled) > 0 {
		information = func() error { return an.CheckInformationPreservedAmong(alive) }
		total = func() error { return an.CheckTotalOrderPreservedAmong(alive) }
	}
	if err := information(); err != nil {
		return &Violation{Predicate: PredInformation, Detail: err.Error()}
	}
	if err := an.CheckLocalOrderPreserved(); err != nil {
		return &Violation{Predicate: PredLocalOrder, Detail: err.Error()}
	}
	if err := an.CheckCausalOrderPreserved(); err != nil {
		return &Violation{Predicate: PredCausalOrder, Detail: err.Error()}
	}
	if totalOrder {
		if err := total(); err != nil {
			return &Violation{Predicate: PredTotalOrder, Detail: err.Error()}
		}
	}
	if len(stalled) == 0 {
		if err := an.CheckCOService(); err != nil {
			return &Violation{Predicate: PredCOService, Detail: err.Error()}
		}
	}

	if err := checkMessageOrder(c, alive); err != nil {
		return err
	}

	// Liveness: no DATA PDU stuck anywhere. Trailing SYNCs legitimately
	// remain in the logs (needsToSpeak tracks only data obligations), so
	// only the data-specific snapshot fields must be zero. A frozen
	// entity legitimately quiesced with its pipeline full; it is skipped.
	for i, e := range c.Entities {
		if stalled[pdu.EntityID(i)] {
			continue
		}
		d := e.Snapshot()
		switch {
		case d.DataResident != 0:
			return drainViolation(i, "resident DATA PDUs", d.DataResident)
		case d.ParkedData != 0:
			return drainViolation(i, "parked DATA PDUs", d.ParkedData)
		case d.PendingSubmits != 0:
			return drainViolation(i, "flow-blocked submissions", d.PendingSubmits)
		case d.SendLogData != 0:
			return drainViolation(i, "unconfirmed DATA in sendlog", d.SendLogData)
		case d.ReleasePending != 0:
			return drainViolation(i, "PDUs held by TO release stage", d.ReleasePending)
		}
	}
	return nil
}

// checkMessageOrder is the message-level predicate beside the PDU-level
// ones above (the trace records PDUs, and a backlog rides several
// messages to a PDU): at every live entity the payloads delivered from a
// source are that source's executed submissions in order — ordinals 1, 2,
// 3, … with no gap and no repeat — and complete for every live source. A
// frozen entity's own stream may stop short at the survivors (it froze
// with submissions unsent or unrepaired) but never skips or repeats.
func checkMessageOrder(c *simrun.Cluster, alive []pdu.EntityID) *Violation {
	for _, i := range alive {
		next := make([]int, len(c.Entities))
		for _, d := range c.Delivered[i] {
			sent := c.SentBy(d.Src)
			if k := next[d.Src]; k >= len(sent) || !bytes.Equal(d.Data, sent[k]) {
				return &Violation{Predicate: PredMessageOrder, Detail: fmt.Sprintf(
					"entity %d: s%d#%d.%d is not source %d's message of ordinal %d (of %d)",
					i, d.Src, d.SEQ, d.Index, d.Src, k+1, len(sent))}
			}
			next[d.Src]++
		}
		for _, src := range alive {
			if sent := c.SentBy(src); next[src] != len(sent) {
				return &Violation{Predicate: PredMessageOrder, Detail: fmt.Sprintf(
					"entity %d delivered ordinals 1..%d of source %d's %d messages", i, next[src], src, len(sent))}
			}
		}
	}
	return nil
}

func drainViolation(entity int, what string, n int) *Violation {
	return &Violation{
		Predicate: PredLivenessDrain,
		Detail:    fmt.Sprintf("entity %d quiesced with %d %s", entity, n, what),
	}
}

// buildWorkload maps the config's shape name to a generator, drawing
// sub-seeds and shape parameters from the chaos RNG.
func buildWorkload(cfg Config, rng *rand.Rand) workload.Generator {
	n, msgs, size := cfg.N, cfg.Messages, cfg.PayloadSize
	switch cfg.Workload {
	case WorkloadSingle:
		return workload.NewSingleSource(pdu.EntityID(rng.Intn(n)), msgs, size)
	case WorkloadBursty:
		burstLen := 2 + rng.Intn(3)
		bursts := (msgs + burstLen - 1) / burstLen
		return workload.NewBursty(n, bursts, burstLen, size, 4*cfg.meanGap(), rng.Int63())
	case WorkloadInteractive:
		return workload.NewInteractive(n, msgs, size, cfg.meanGap(), rng.Int63())
	case WorkloadMixed:
		transfer := msgs / 2
		if transfer < 1 {
			transfer = 1
		}
		chatter := msgs - transfer
		if chatter < 1 {
			chatter = 1
		}
		return workload.NewMixed(rng.Int63(),
			workload.NewSingleSource(pdu.EntityID(rng.Intn(n)), transfer, size),
			workload.NewInteractive(n, chatter, size, cfg.meanGap(), rng.Int63()),
		)
	default: // WorkloadContinuous
		perSender := (msgs + n - 1) / n
		return workload.NewContinuous(n, perSender, size)
	}
}

// deriveSchedule draws the static fault plan: per-link delays and loss
// rates, which entities are slow, and disjoint partition/pause windows
// that all close before faultEnd.
func deriveSchedule(cfg Config, rng *rand.Rand, faultEnd time.Duration) schedule {
	n := cfg.N
	slow := make([]bool, n)
	for k := 0; k < cfg.SlowEntities; k++ {
		for {
			i := rng.Intn(n)
			if !slow[i] {
				slow[i] = true
				break
			}
		}
	}
	s := schedule{
		baseDelay: make([][]time.Duration, n),
		lossRate:  make([][]float64, n),
	}
	base := cfg.delayBase()
	for i := 0; i < n; i++ {
		s.baseDelay[i] = make([]time.Duration, n)
		s.lossRate[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := base/4 + time.Duration(rng.Int63n(int64(base)/4*3+1))
			if slow[i] || slow[j] {
				d *= 8
			}
			s.baseDelay[i][j] = d
			if cfg.Loss > 0 {
				s.lossRate[i][j] = rng.Float64() * cfg.Loss
			}
		}
	}

	// Fault windows: one per slot of the fault horizon, so windows never
	// overlap. Overlap would corrupt healing — Net.blocked is a plain
	// bool map, and an Unblock from one fault would heal another's cuts.
	k := cfg.Partitions + cfg.Pauses
	if k == 0 {
		return s
	}
	horizon := faultEnd - 2*time.Millisecond
	if horizon <= 0 {
		return s
	}
	kinds := make([]bool, 0, k) // true = partition
	for i := 0; i < cfg.Partitions; i++ {
		kinds = append(kinds, true)
	}
	for i := 0; i < cfg.Pauses; i++ {
		kinds = append(kinds, false)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	slot := horizon / time.Duration(k)
	for i, isPartition := range kinds {
		slotStart := 2*time.Millisecond + slot*time.Duration(i)
		start := slotStart + time.Duration(rng.Int63n(int64(slot)/4+1))
		length := slot/4 + time.Duration(rng.Int63n(int64(slot)/2+1))
		end := start + length
		if max := slotStart + slot - time.Microsecond; end > max {
			end = max
		}
		w := faultWindow{start: start, end: end}
		if isPartition {
			w.partition = bipartition(n, rng)
		} else {
			w.paused = pdu.EntityID(rng.Intn(n))
		}
		s.windows = append(s.windows, w)
	}
	return s
}

// deriveStalls picks which entities freeze and when: distinct victims,
// each at a uniform point in the middle half of the fault horizon, so
// traffic exists both before the stall (building up retention) and after
// it (sustaining the overload the ledger must bound).
func deriveStalls(cfg Config, rng *rand.Rand, faultEnd time.Duration) []stall {
	if cfg.StalledPeers == 0 {
		return nil
	}
	taken := make([]bool, cfg.N)
	out := make([]stall, 0, cfg.StalledPeers)
	for k := 0; k < cfg.StalledPeers; k++ {
		for {
			i := rng.Intn(cfg.N)
			if !taken[i] {
				taken[i] = true
				out = append(out, stall{
					id: pdu.EntityID(i),
					at: faultEnd/4 + time.Duration(rng.Int63n(int64(faultEnd)/2+1)),
				})
				break
			}
		}
	}
	return out
}

// bipartition assigns each entity to group 0 or 1, both non-empty.
func bipartition(n int, rng *rand.Rand) []int {
	groups := make([]int, n)
	for {
		ones := 0
		for i := range groups {
			groups[i] = rng.Intn(2)
			ones += groups[i]
		}
		if ones > 0 && ones < n {
			return groups
		}
	}
}

// applyPartition blocks (or heals) every cross-group channel.
func applyPartition(net *network.Net, groups []int, cut bool) {
	for i := range groups {
		for j := range groups {
			if i == j || groups[i] == groups[j] {
				continue
			}
			if cut {
				net.Block(pdu.EntityID(i), pdu.EntityID(j))
			} else {
				net.Unblock(pdu.EntityID(i), pdu.EntityID(j))
			}
		}
	}
}
