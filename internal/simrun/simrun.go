// Package simrun wires core CO-protocol entities to the discrete-event
// simulator: it routes broadcast output PDUs through a simulated MC
// network, drives the entities' deferred-confirmation and retransmission
// timers with virtual ticks, and collects deliveries, latencies and
// traces. Tests, benchmarks and cmd/cobench all reproduce the paper's
// experiments through this harness, so results are deterministic and
// machine-independent.
package simrun

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
	"cobcast/internal/trace"
	"cobcast/internal/workload"
)

// Options configures a simulated cluster.
type Options struct {
	// N is the cluster size.
	N int
	// Core is the template entity configuration; ID/N/ClusterID/Tracer
	// are filled per entity. Zero fields take protocol defaults.
	Core core.Config
	// Net configures the simulated network (delay, loss, seed).
	Net []sim.NetOption
	// TickEvery is the virtual tick period driving entity timers; it
	// defaults to the deferred-ack interval.
	TickEvery time.Duration
	// Trace enables event recording (needed for latency analysis and the
	// ordering checkers).
	Trace bool
	// PDUTap, if set, observes every PDU arriving at an entity before the
	// entity processes it (used to capture realistic PDU streams for
	// replay microbenchmarks).
	PDUTap func(to, from pdu.EntityID, p *pdu.PDU)
	// Registry, if set, receives each entity's live metrics and a state
	// snapshot provider, so an obsv HTTP endpoint can watch a simulated
	// run. Snapshot providers serialize against the simulation steps of
	// RunToQuiescence via the cluster's step mutex; callers stepping
	// c.Sim directly while a scraper is live should hold c.StepLock.
	Registry *obsv.Registry
	// WireVersion 2 routes every broadcast datagram through the real
	// wire codec: each datagram is encoded once at the sender and decoded
	// per delivered copy, so simulated loss and duplication exercise the
	// per-source stamp caches exactly as on a lossy wire. Zero keeps the
	// PDU-pointer path (and its pinned trace digests); NewGroups rejects
	// any other value. Delta stamps rejected for a lost reference are
	// dropped like lost PDUs and show up in the network's CodecDropped
	// counter; the protocol recovers them by retransmission or the next
	// full-stamp sync point.
	WireVersion int
	// StampInterval is the codec's full-stamp sync interval K (0 selects
	// the codec default; 1 full-stamps every PDU). Ignored unless
	// WireVersion is 2.
	StampInterval int
	// MemBudgetBytes, when > 0, gives every entity its own memory ledger
	// with that byte budget (core.Config.Ledger), so log retention is
	// accounted and pressure-shortened suspicion can fire. Shed
	// additionally drops application submissions at an over-budget
	// sender, mirroring the node runtime's BackpressureShed admission
	// (the simulator cannot block a producer in virtual time).
	MemBudgetBytes int64
	Shed           bool
	// FlightEvents, when > 0, gives every entity its own flight-recorder
	// ring of that many events (rounded up to a power of two), exposed on
	// Cluster.Flights. Timestamps are virtual time (epoch 0). The chaos
	// harness dumps these rings — with each entity's stall verdicts —
	// when a failing seed is persisted.
	FlightEvents int
}

// Cluster is a simulated CO-protocol cluster: one ordered group's N
// entities. Clusters built together by NewGroups share Sim, Net and
// StepLock; everything else is the group's own.
type Cluster struct {
	Sim      *sim.Sim
	Net      *sim.Net
	Entities []*core.Entity
	Recorder *trace.Recorder

	// Ledgers[i] is entity i's memory ledger; nil entries without
	// Options.MemBudgetBytes.
	Ledgers []*core.Ledger

	// Flights[i] is entity i's flight recorder; nil entries without
	// Options.FlightEvents.
	Flights []*flight.Ring

	// Delivered[i] is entity i's delivery sequence.
	Delivered [][]core.Delivery

	// StepLock serializes virtual-time stepping against concurrent
	// state-snapshot scrapes; RunToQuiescence holds it across each step.
	StepLock *sync.Mutex

	n int
	// group is the tag this cluster's datagrams carry on Net; suffix is
	// appended to the entity index in node names ("" for a lone cluster,
	// "/g<group>" among several, as the node runtime labels group engines).
	group     uint32
	suffix    string
	tickEvery time.Duration
	submitted int
	// frozen[i] marks entity i stalled: it stops reading, ticking and
	// submitting, permanently, while its links stay up. sent[i] lists, in
	// order, the payloads of the submissions entity i actually executed
	// (scheduled ones skipped by a freeze or shed by the ledger are
	// counted in skipped and shedCount instead).
	frozen    []bool
	sent      [][][]byte
	skipped   int
	shedCount int
	shed      bool
	sendTimes map[trace.MsgID]time.Duration
	// Tap[i] per-message application-to-application delay samples for
	// deliveries at entity i (Figure 8's Tap).
	tapSamples []time.Duration
}

// New builds a simulated cluster of n entities.
func New(opts Options) (*Cluster, error) {
	cs, err := NewGroups(opts, 1)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// NewGroups builds groups clusters from one Options — ordered groups
// 0..groups-1, each with its own engines, sequence space, recorder,
// ledgers and flight rings — on ONE simulator and ONE network, the way a
// node runtime multiplexes its groups over one socket. The network's
// delays, loss, duplication, partitions and Options.Net hooks hit every
// group's datagrams alike (the groups share the links); ordering state
// never crosses groups, because each datagram carries its group tag and,
// under Options.WireVersion, the codec keeps stamp state per (channel,
// group). The protocol configuration is identical for every group:
// isolation comes from datagram routing, never from the entity
// configuration. Stepping any one cluster (RunUntil, RunToQuiescence)
// advances them all.
func NewGroups(opts Options, groups int) ([]*Cluster, error) {
	if opts.N < 2 {
		return nil, fmt.Errorf("simrun: need at least 2 entities, got %d", opts.N)
	}
	if groups < 1 {
		return nil, fmt.Errorf("simrun: need at least 1 group, got %d", groups)
	}
	s := sim.New()
	netOpts := opts.Net
	switch opts.WireVersion {
	case 0:
	case 2:
		netOpts = append(append([]sim.NetOption{}, opts.Net...), wireCodec(opts.N, opts.StampInterval))
	default:
		return nil, fmt.Errorf("simrun: unsupported wire version %d", opts.WireVersion)
	}
	net := sim.NewNet(s, opts.N, netOpts...)
	lock := new(sync.Mutex)
	cs := make([]*Cluster, groups)
	for g := range cs {
		suffix := ""
		if groups > 1 {
			suffix = "/g" + strconv.Itoa(g)
		}
		c, err := newCluster(opts, s, net, lock, uint32(g), suffix)
		if err != nil {
			return nil, err
		}
		cs[g] = c
	}
	return cs, nil
}

// newCluster builds one group's entities and attaches them to net under
// the group's tag.
func newCluster(opts Options, s *sim.Sim, net *sim.Net, lock *sync.Mutex, group uint32, suffix string) (*Cluster, error) {
	c := &Cluster{
		Sim:       s,
		Net:       net,
		Entities:  make([]*core.Entity, opts.N),
		Ledgers:   make([]*core.Ledger, opts.N),
		Flights:   make([]*flight.Ring, opts.N),
		Delivered: make([][]core.Delivery, opts.N),
		StepLock:  lock,
		n:         opts.N,
		group:     group,
		suffix:    suffix,
		frozen:    make([]bool, opts.N),
		sent:      make([][][]byte, opts.N),
		shed:      opts.Shed,
		sendTimes: make(map[trace.MsgID]time.Duration),
	}
	if opts.Trace {
		c.Recorder = &trace.Recorder{}
	}
	cfg := opts.Core
	cfg.N = opts.N
	cfg.Tracer = c.Recorder
	for i := 0; i < opts.N; i++ {
		cfg.ID = pdu.EntityID(i)
		cfg.Metrics = nil
		cfg.Ledger = nil
		cfg.Flight = nil
		if opts.FlightEvents > 0 {
			c.Flights[i] = flight.NewRing(opts.FlightEvents)
			cfg.Flight = c.Flights[i]
		}
		if opts.MemBudgetBytes > 0 {
			// One ledger per entity: the single-writer accounting
			// invariant holds trivially on the simulator's one goroutine,
			// and per-entity budgets mirror the node runtime.
			c.Ledgers[i] = core.NewLedger(opts.MemBudgetBytes)
			cfg.Ledger = c.Ledgers[i]
		}
		if opts.Registry != nil {
			cfg.Metrics = obsv.NewEntityMetrics()
		}
		ent, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("simrun: entity %s: %w", c.node(i), err)
		}
		c.Entities[i] = ent
		if opts.Registry != nil {
			opts.Registry.RegisterNode(c.node(i), cfg.Metrics, nil, func() (obsv.StateSnapshot, bool) {
				c.StepLock.Lock()
				defer c.StepLock.Unlock()
				snap := ent.Snapshot()
				snap.Group = group
				return snap, true
			})
		}
	}
	c.tickEvery = opts.TickEvery
	if c.tickEvery == 0 {
		withDefaults := cfg
		if withDefaults.DeferredAckInterval == 0 {
			withDefaults.DeferredAckInterval = core.DefaultDeferredAckInterval
		}
		c.tickEvery = withDefaults.DeferredAckInterval
	}
	for i := 0; i < opts.N; i++ {
		id := pdu.EntityID(i)
		net.AttachGroup(group, id, func(from pdu.EntityID, p *pdu.PDU) {
			if c.frozen[id] {
				// The stalled process never reads: the datagram reached
				// its socket but is dropped unprocessed.
				return
			}
			if opts.PDUTap != nil {
				opts.PDUTap(id, from, p)
			}
			out, err := c.Entities[id].Receive(p, s.Now())
			if err != nil {
				// Simulated networks deliver only valid PDUs; an error
				// here is a harness bug worth surfacing loudly.
				panic(fmt.Sprintf("simrun: entity %s receive: %v", c.node(int(id)), err))
			}
			c.dispatch(id, out)
		})
		c.scheduleTick(id)
	}
	return c, nil
}

// node is entity i's name in registries, flight dumps and stall reports.
func (c *Cluster) node(i int) string { return strconv.Itoa(i) + c.suffix }

// wireCodec builds the sim.NetCodec for clusters of n entities: one frame
// encoder per sender and one frame decoder per directed channel, plus —
// per ordered group, allocated at the group's first datagram — one stamp
// encoder per sender (its reference advances once per datagram, like a
// real link's) and one stamp decoder per directed channel (mirroring the
// per-sender FIFO cache a receiving link keeps). Each group is its own
// sequence space, so a delta reference must never resolve across groups.
func wireCodec(n, stampK int) sim.NetOption {
	type groupStamps struct {
		enc []*pdu.StampEncoder  // enc[from]
		dec [][]pdu.StampDecoder // dec[to][from]
	}
	stamps := make(map[uint32]*groupStamps)
	stampsOf := func(group uint32) *groupStamps {
		gs := stamps[group]
		if gs == nil {
			gs = &groupStamps{enc: make([]*pdu.StampEncoder, n), dec: make([][]pdu.StampDecoder, n)}
			for i := 0; i < n; i++ {
				gs.dec[i] = make([]pdu.StampDecoder, n)
				gs.enc[i] = pdu.NewStampEncoder(stampK)
			}
			stamps[group] = gs
		}
		return gs
	}
	encs := make([]pdu.FrameEncoder, n)
	decs := make([][]pdu.FrameDecoder, n) // decs[to][from]
	for to := range decs {
		decs[to] = make([]pdu.FrameDecoder, n)
	}
	encode := func(from pdu.EntityID, group uint32, batch []*pdu.PDU) []byte {
		e := &encs[from]
		// The v2 header for group 0 and the group-addressed v3 header
		// otherwise, exactly as the node runtime's wireFrames.begin.
		if st := stampsOf(group).enc[from]; group != 0 {
			e.BeginGroup(nil, group, pdu.WireVersion2, st)
		} else {
			e.BeginV2(nil, st)
		}
		for _, p := range batch {
			if err := e.Append(p); err != nil {
				// Entities only emit encodable PDUs; failing to encode
				// one is a harness bug worth surfacing loudly.
				panic(fmt.Sprintf("simrun: encode group %d from %d: %v", group, from, err))
			}
		}
		return e.Bytes()
	}
	decode := func(from, to pdu.EntityID, group uint32, frame []byte) []*pdu.PDU {
		d := &decs[to][from]
		if err := d.Reset(frame); err != nil {
			panic(fmt.Sprintf("simrun: frame %d->%d: %v", from, to, err))
		}
		if d.Group() != group {
			panic(fmt.Sprintf("simrun: frame %d->%d of group %d names group %d", from, to, group, d.Group()))
		}
		d.SetStampDecoder(&stampsOf(group).dec[to][from])
		var out []*pdu.PDU
		var p pdu.PDU
		for {
			ok, err := d.Next(&p)
			if err != nil {
				if errors.Is(err, pdu.ErrDeltaDesync) {
					// A delta whose reference this (channel, group) lost
					// (or a duplicated delivery replaying one): the
					// datagram's remainder is dropped like loss, exactly
					// as the link layer treats it.
					return out
				}
				panic(fmt.Sprintf("simrun: decode %d->%d: %v", from, to, err))
			}
			if !ok {
				return out
			}
			// Clone: p.ACK/p.Data are scratch, overwritten by the next
			// decode, while the network replays these PDUs later; Delta
			// aliases the stamp decoder's scratch and Clone shares it,
			// so OwnDelta detaches an owned copy.
			out = append(out, p.Clone().OwnDelta())
		}
	}
	return sim.NetCodec(encode, decode)
}

// scheduleTick arms a self-rescheduling virtual timer for one entity.
// The chain ends when the entity is frozen (freezes never heal).
func (c *Cluster) scheduleTick(id pdu.EntityID) {
	c.Sim.After(c.tickEvery, func() {
		if c.frozen[id] {
			return
		}
		out := c.Entities[id].Tick(c.Sim.Now())
		c.dispatch(id, out)
		c.scheduleTick(id)
	})
}

// Freeze stalls entity id from the current virtual time on: it stops
// reading, ticking and submitting, permanently, while its links stay up
// (datagrams addressed to it are still transported and then dropped
// unread). Distinct from Net.Isolate, which models the link going down.
func (c *Cluster) Freeze(id pdu.EntityID) { c.frozen[id] = true }

// Frozen reports whether entity id has been frozen.
func (c *Cluster) Frozen(id pdu.EntityID) bool { return c.frozen[id] }

// dispatch routes an entity's output: PDUs onto the network as one
// batched datagram, deliveries into the per-entity record and the Tap
// histogram.
func (c *Cluster) dispatch(id pdu.EntityID, out core.Output) {
	for _, p := range out.PDUs {
		if p.Kind.Sequenced() && p.Src == id {
			m := trace.MsgID{Src: p.Src, Seq: p.SEQ}
			if _, seen := c.sendTimes[m]; !seen {
				c.sendTimes[m] = c.Sim.Now()
			}
		}
	}
	c.Net.BroadcastGroup(id, c.group, out.PDUs...)
	for _, d := range out.Deliveries {
		c.Delivered[id] = append(c.Delivered[id], d)
		if sent, ok := c.sendTimes[trace.MsgID{Src: d.Src, Seq: d.SEQ}]; ok {
			c.tapSamples = append(c.tapSamples, c.Sim.Now()-sent)
		}
	}
}

// SubmitAt schedules an application broadcast from sender at virtual time
// at.
func (c *Cluster) SubmitAt(sender pdu.EntityID, data []byte, at time.Duration) {
	c.submitted++
	c.Sim.At(at, func() {
		if c.frozen[sender] {
			c.skipped++
			return
		}
		if c.shed && c.Ledgers[sender] != nil && c.Ledgers[sender].OverBudget() {
			// Producer-side admission, as in Node.admit's shed mode: the
			// submission never reaches the entity, so no protocol state
			// records it.
			c.Ledgers[sender].NoteShed()
			c.skipped++
			c.shedCount++
			return
		}
		c.sent[sender] = append(c.sent[sender], data)
		out := c.Entities[sender].Submit(data, c.Sim.Now())
		c.dispatch(sender, out)
	})
}

// LoadWorkload schedules every message of a workload generator, spacing
// messages by their generator-provided gaps starting at virtual time 0.
func (c *Cluster) LoadWorkload(gen workload.Generator) {
	var at time.Duration
	for {
		m, ok := gen.Next()
		if !ok {
			return
		}
		at += m.Gap
		c.SubmitAt(m.Sender, m.Payload, at)
	}
}

// Submitted returns the number of scheduled application broadcasts.
func (c *Cluster) Submitted() int { return c.submitted }

// SubmittedBy returns per-sender counts of submissions actually executed
// (scheduled minus frozen-skipped minus shed).
func (c *Cluster) SubmittedBy() []int {
	out := make([]int, c.n)
	for i, sent := range c.sent {
		out[i] = len(sent)
	}
	return out
}

// SentBy returns the payloads of the submissions sender actually
// executed, in submission order: the k-th is the sender's message of
// ordinal k+1, whatever PDU it later rode.
func (c *Cluster) SentBy(sender pdu.EntityID) [][]byte { return c.sent[sender] }

// ShedCount returns the number of submissions shed by producer-side
// ledger admission; Skipped additionally includes submissions skipped
// because their sender was frozen.
func (c *Cluster) ShedCount() int { return c.shedCount }

// Skipped returns the number of scheduled submissions that never reached
// an entity (frozen sender or shed).
func (c *Cluster) Skipped() int { return c.skipped }

// AllDelivered reports whether every entity has delivered every submitted
// message.
func (c *Cluster) AllDelivered() bool {
	for i := 0; i < c.n; i++ {
		if len(c.Delivered[i]) < c.submitted {
			return false
		}
	}
	return true
}

// Quiescent reports whether every entity owes the cluster nothing.
func (c *Cluster) Quiescent() bool {
	for _, e := range c.Entities {
		if !e.Quiescent() {
			return false
		}
	}
	return true
}

// RunToQuiescence advances virtual time in tick-sized steps until all
// submitted messages are delivered everywhere and every entity is
// quiescent, or until deadline virtual time passes. It returns the virtual
// time at completion.
func (c *Cluster) RunToQuiescence(deadline time.Duration) (time.Duration, error) {
	step := c.tickEvery
	for c.Sim.Now() < deadline {
		c.StepLock.Lock()
		c.Sim.RunFor(step)
		done := c.AllDelivered() && c.Quiescent()
		c.StepLock.Unlock()
		if done {
			return c.Sim.Now(), nil
		}
	}
	for i := 0; i < c.n; i++ {
		if len(c.Delivered[i]) < c.submitted {
			return c.Sim.Now(), fmt.Errorf(
				"simrun: deadline %v: entity %d delivered %d/%d (stats %+v)",
				deadline, i, len(c.Delivered[i]), c.submitted, c.Entities[i].Stats())
		}
	}
	return c.Sim.Now(), fmt.Errorf("simrun: deadline %v: delivered but not quiescent", deadline)
}

// RunUntil advances virtual time in tick-sized steps until done reports
// true or deadline virtual time passes. It is RunToQuiescence with a
// caller-supplied completion predicate, for runs where whole-cluster
// quiescence is unreachable (a frozen entity never drains).
func (c *Cluster) RunUntil(done func() bool, deadline time.Duration) (time.Duration, error) {
	for c.Sim.Now() < deadline {
		c.StepLock.Lock()
		c.Sim.RunFor(c.tickEvery)
		ok := done()
		c.StepLock.Unlock()
		if ok {
			return c.Sim.Now(), nil
		}
	}
	return c.Sim.Now(), fmt.Errorf("simrun: deadline %v: completion condition not met", deadline)
}

// TapSamples returns the application-to-application delivery delays
// (Figure 8's Tap) observed so far.
func (c *Cluster) TapSamples() []time.Duration {
	out := make([]time.Duration, len(c.tapSamples))
	copy(out, c.tapSamples)
	return out
}

// Drains returns each entity's pipeline snapshot. The chaos harness's
// liveness predicates read it after RunToQuiescence to assert no DATA PDU
// is stuck anywhere in the cluster.
func (c *Cluster) Drains() []core.DrainState {
	out := make([]core.DrainState, c.n)
	for i, e := range c.Entities {
		out[i] = e.Drain()
	}
	return out
}

// FlightDumps returns each recorded entity's flight events as /tracez-
// style dumps. EpochUnixNano stays 0: timestamps are virtual time.
// Entities without rings (Options.FlightEvents unset) are omitted.
func (c *Cluster) FlightDumps() []obsv.NodeFlight {
	var out []obsv.NodeFlight
	for i, fr := range c.Flights {
		if fr == nil {
			continue
		}
		out = append(out, obsv.NodeFlight{
			Node:     c.node(i),
			Recorded: fr.Recorded(),
			Capacity: fr.Cap(),
			Events:   fr.Snapshot(nil),
		})
	}
	return out
}

// StallReport returns every entity's stall-analyzer verdicts at the
// current virtual time, attributed by entity index. Empty when no data
// is stuck anywhere.
func (c *Cluster) StallReport() []obsv.Stall {
	var out []obsv.Stall
	for i, e := range c.Entities {
		for _, st := range e.Stalls(c.Sim.Now(), 0) {
			st.Node = c.node(i)
			out = append(out, st)
		}
	}
	return out
}

// Analyze runs the trace checkers over the recorded run. It requires the
// cluster to have been created with Trace: true.
func (c *Cluster) Analyze() (*trace.Analysis, error) {
	if c.Recorder == nil {
		return nil, fmt.Errorf("simrun: cluster was built without tracing")
	}
	return trace.Analyze(c.Recorder.Events(), c.n)
}

// TotalStats sums entity counters across the cluster.
func (c *Cluster) TotalStats() core.Stats {
	var t core.Stats
	for _, e := range c.Entities {
		t.Add(e.Stats())
	}
	return t
}
