// Package simrun runs the node runtime in virtual time: each simulated
// process is one stepped groups.Registry whose K shards own its entity
// of every group and send through the runtime's frames adapter onto a
// simulated MC network. A submission or an arriving datagram enters
// through the registry's Submit (admission included) or Inbound, which
// steps the shard — the runtime's shard step, for a burst of one. Tests
// and cmd/cobench reproduce the paper's experiments through it, so
// results are deterministic and machine-independent.
package simrun

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/groups"
	"cobcast/internal/network"
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
	// Core is the template entity configuration; ID, N and the hooks are
	// filled per entity. Zero fields take protocol defaults.
	Core core.Config
	// Net configures the simulated network (delay, loss, seed, faults),
	// the runtime's MC network model on the simulator's clock.
	Net []network.Option
	// Trace records every entity's flight events, in virtual time, into
	// one never-wrapping log per group (Cluster.Flight), which the
	// ordering checkers, latency analysis and flight dumps read.
	Trace bool
	// PDUTap, if set, observes every PDU arriving at an entity before the
	// entity processes it (used to capture realistic PDU streams for
	// replay microbenchmarks). Under WireVersion 2 an unsequenced PDU is
	// the decoder's scratch, valid only during the call, exactly as the
	// entity receives it.
	PDUTap func(to, from pdu.EntityID, p *pdu.PDU)
	// Registry, if set, receives each entity's live metrics and a state
	// snapshot provider, so an obsv HTTP endpoint can watch a simulated
	// run. Snapshot providers serialize against the simulation steps of
	// RunToQuiescence via the cluster's step mutex; callers stepping
	// c.Sim directly while a scraper is live should hold c.StepLock.
	Registry *obsv.Registry
	// WireVersion picks the runtime's frames adapter each process sends
	// and decodes through: 0 the in-memory network's (PDU pointers
	// tagged with their group), 2 the byte transport's (batch frames
	// through the delta-stamp codec, whose losses Cluster.Link counts).
	// NewGroups rejects any other value.
	WireVersion int
	// StampInterval is the codec's full-stamp sync interval K (0 selects
	// the codec default; 1 full-stamps every PDU). Ignored unless
	// WireVersion is 2.
	StampInterval int
	// MemBudgetBytes, when > 0, gives every entity its own memory ledger
	// with that byte budget (core.Config.Ledger), so log retention is
	// accounted and pressure-shortened suspicion can fire, and the
	// registry sheds application submissions at an over-budget sender:
	// a producer cannot block in virtual time.
	MemBudgetBytes int64
	// Shards is each process's shard count K (0 means 1), over which the
	// runtime's hash spreads the groups.
	Shards int
}

// Cluster is a simulated CO-protocol cluster: one ordered group's N
// entities. Clusters built together by NewGroups share Sim, Net, Link,
// StepLock and the processes that own their entities; everything else
// is the group's own.
type Cluster struct {
	Sim *sim.Sim
	Net *network.Net
	// Link counts, over every process, what the frames adapters sent and
	// dropped (obsv.LinkMetrics): under WireVersion 2 the frames that
	// failed to decode and the delta entries stranded without their
	// reference stamp.
	Link     *obsv.LinkMetrics
	Entities []*core.Entity
	// Flight is the group's event log, shared by its entities (nil
	// without Options.Trace). Streams splits it per entity.
	Flight *flight.Ring

	// Delivered[i] is entity i's delivery sequence.
	Delivered [][]core.Delivery

	// StepLock serializes virtual-time stepping against concurrent
	// state-snapshot scrapes; RunToQuiescence holds it across each step.
	StepLock *sync.Mutex

	n int
	// group is the group this cluster's entities are on their shards;
	// suffix is appended to the entity index in node names ("" for a
	// lone cluster, "/g<group>" among several, as the node runtime labels
	// group engines).
	group  uint32
	suffix string
	// nodes are the run's processes, shared by every cluster of one
	// NewGroups call.
	nodes     []*node
	tickEvery time.Duration
	submitted int
	// sent[i] lists, in order, the payloads of the submissions entity i
	// actually executed (scheduled ones skipped by a freeze or shed by
	// the ledger are counted in skipped and shedCount instead).
	sent      [][][]byte
	skipped   int
	shedCount int
	sendTimes map[trace.MsgID]time.Duration
	// Tap[i] per-message application-to-application delay samples for
	// deliveries at entity i (Figure 8's Tap).
	tapSamples []time.Duration
}

// node is one simulated process. Its shards share it as their Frames
// (the simulator steps one at a time, and every step ends flushed): the
// runtime's adapter plus the harness's observation points (Tap send
// times, Options.PDUTap), and wireFrames' sender onto Net; memFrames
// sends on the process's port itself.
type node struct {
	groups.Frames
	id   pdu.EntityID
	rt   *groups.Registry
	port *network.Port
	cs   []*Cluster
	tap  func(to, from pdu.EntityID, p *pdu.PDU)
	// frozen marks the process stalled: it stops reading, ticking and
	// submitting, permanently, while its links stay up.
	frozen bool
	// from is the sender of the datagram being delivered, for tap.
	from pdu.EntityID
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
// 0..groups-1, each with its own engines, sequence space, ledgers and
// flight log — on ONE simulator and ONE network, with ONE registry per
// process owning that process's engine of every group on its shards,
// the way a node runtime multiplexes its groups over one socket. The
// network's delays, loss, duplication, partitions and Options.Net hooks
// hit every group's datagrams alike (the groups share the links);
// ordering state never crosses groups, because each datagram names its
// group and the frames adapter keeps stamp state per group. The protocol
// configuration is identical for every group: isolation comes from
// datagram routing, never from the entity configuration. Stepping any
// one cluster (RunUntil, RunToQuiescence) advances them all.
func NewGroups(opts Options, groupCount int) ([]*Cluster, error) {
	if opts.N < 2 {
		return nil, fmt.Errorf("simrun: need at least 2 entities, got %d", opts.N)
	}
	if groupCount < 1 {
		return nil, fmt.Errorf("simrun: need at least 1 group, got %d", groupCount)
	}
	if opts.WireVersion != 0 && opts.WireVersion != 2 {
		return nil, fmt.Errorf("simrun: unsupported wire version %d", opts.WireVersion)
	}
	s, lm := sim.New(), obsv.NewLinkMetrics()
	lock := new(sync.Mutex)
	// Ticks come every deferred-ack interval, as on the runtime.
	tickEvery := opts.Core.DeferredAckInterval
	if tickEvery == 0 {
		tickEvery = core.DefaultDeferredAckInterval
	}
	net := network.NewVirtual(s, opts.N, opts.Net...)
	nodes := make([]*node, opts.N)
	cs := make([]*Cluster, groupCount)
	for g := range cs {
		suffix := ""
		if groupCount > 1 {
			suffix = "/g" + strconv.Itoa(g)
		}
		cs[g] = &Cluster{
			Sim:       s,
			Net:       net,
			Link:      lm,
			Entities:  make([]*core.Entity, opts.N),
			Delivered: make([][]core.Delivery, opts.N),
			StepLock:  lock,
			n:         opts.N,
			nodes:     nodes,
			group:     uint32(g),
			suffix:    suffix,
			tickEvery: tickEvery,
			sent:      make([][][]byte, opts.N),
			sendTimes: make(map[trace.MsgID]time.Duration),
		}
		if opts.Trace {
			cs[g].Flight = flight.NewLog()
		}
	}
	for i := range nodes {
		nd := &node{id: pdu.EntityID(i), port: net.Endpoint(pdu.EntityID(i)), cs: cs, tap: opts.PDUTap}
		if opts.WireVersion == 2 {
			nd.Frames = groups.NewWireFrames(nd, lm, opts.StampInterval)
		} else {
			nd.Frames = groups.NewMemFrames(nd.port, lm)
		}
		// The group bound drops an inbound naming no run group as loss.
		nd.rt = groups.NewStepped(groups.Config{
			Shards:         max(1, opts.Shards),
			MaxGroups:      groupCount,
			MemBudgetBytes: opts.MemBudgetBytes,
			NewEntity: func(g uint32, l *core.Ledger) (*core.Entity, error) {
				return cs[g].newEntity(opts, i, l)
			},
			NewFrames:      func(int) groups.Frames { return nd },
			Deliver:        func(g uint32, batch []core.Delivery) { cs[g].deliver(nd.id, batch) },
			DroppedUnknown: lm.UnknownGroup,
			Now:            s.Now,
		})
		// Every engine starts at virtual time 0, in group order: each
		// shard visits its engines in that order ever after.
		for g, c := range cs {
			if err := nd.rt.Start(uint32(g)); err != nil {
				return nil, fmt.Errorf("simrun: entity %s: %w", c.node(i), err)
			}
		}
		nodes[i] = nd
	}
	for _, nd := range nodes {
		if err := nd.port.Attach(nd.arrive); err != nil {
			return nil, fmt.Errorf("simrun: %w", err)
		}
		nd.tick(s, tickEvery)
	}
	return cs, nil
}

// newEntity builds entity i of the cluster's group around the group's
// ledger, recording into the group's flight log, with its registry entry.
func (c *Cluster) newEntity(opts Options, i int, ledger *core.Ledger) (*core.Entity, error) {
	cfg := opts.Core
	cfg.N = opts.N
	cfg.ID = pdu.EntityID(i)
	cfg.Metrics, cfg.Ledger, cfg.Flight = nil, ledger, c.Flight
	if opts.Registry != nil {
		cfg.Metrics = obsv.NewEntityMetrics()
	}
	ent, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	c.Entities[i] = ent
	if opts.Registry != nil {
		opts.Registry.RegisterNode(c.node(i), cfg.Metrics, nil, func() (obsv.StateSnapshot, bool) {
			c.StepLock.Lock()
			defer c.StepLock.Unlock()
			snap := ent.Snapshot()
			snap.Group = c.group
			return snap, true
		})
	}
	return ent, nil
}

// node is entity i's name in registries, flight dumps and stall reports.
func (c *Cluster) node(i int) string { return strconv.Itoa(i) + c.suffix }

// tick ticks the process's shards every period of virtual time, the
// runtime shards' tickers; it stops at a freeze (freezes never heal).
func (nd *node) tick(s *sim.Sim, period time.Duration) {
	s.After(period, func() {
		if nd.frozen {
			return
		}
		nd.rt.Tick()
		nd.tick(s, period)
	})
}

// arrive is one datagram reaching the process: classified by group as
// the node runtime's router classifies it, then routed to its shard,
// which handles it. It always takes the datagram: the simulated process
// has no receive-buffer bound.
func (nd *node) arrive(d network.Inbound) bool {
	if nd.frozen {
		// The stalled process never reads: the datagram reached its
		// socket but is dropped unprocessed.
		return true
	}
	g, in, ok := d.Group, groups.Inbound{PDUs: d.PDUs}, true
	if d.Raw != nil {
		g, in, ok = groups.RouteFrame(d.Raw, nd.cs[0].Link)
	}
	if ok {
		nd.from = d.From
		nd.rt.Inbound(g, in)
	}
	return true
}

// Broadcast is wireFrames' send: one frame datagram, whose bytes the
// network copies per delivered copy.
func (nd *node) Broadcast(frame []byte) error { return nd.port.BroadcastFrame(frame) }

// Append notes the first send time of every sequenced PDU the process
// sources, for the Tap samples, then stages p.
func (nd *node) Append(g uint32, p *pdu.PDU) {
	if p.Kind.Sequenced() && p.Src == nd.id {
		c := nd.cs[g]
		m := trace.MsgID{Src: p.Src, Seq: p.SEQ}
		if _, seen := c.sendTimes[m]; !seen {
			c.sendTimes[m] = c.Sim.Now()
		}
	}
	nd.Frames.Append(g, p)
}

// Deliver decodes one inbound, showing each PDU to Options.PDUTap before
// the entity receives it.
func (nd *node) Deliver(g uint32, in groups.Inbound, fn func(p *pdu.PDU)) {
	if nd.tap != nil {
		receive := fn
		fn = func(p *pdu.PDU) {
			nd.tap(nd.id, nd.from, p)
			receive(p)
		}
	}
	nd.Frames.Deliver(g, in, fn)
}

// deliver records one engine output's deliveries at entity id and their
// Tap samples.
func (c *Cluster) deliver(id pdu.EntityID, batch []core.Delivery) {
	for _, d := range batch {
		c.Delivered[id] = append(c.Delivered[id], d)
		if sent, ok := c.sendTimes[trace.MsgID{Src: d.Src, Seq: d.SEQ}]; ok {
			c.tapSamples = append(c.tapSamples, c.Sim.Now()-sent)
		}
	}
}

// Freeze stalls process id from the current virtual time on — its
// entity in every group of the run: it stops reading, ticking and
// submitting, permanently, while its links stay up (datagrams addressed
// to it are still transported and then dropped unread). Distinct from
// Net.Isolate, which models the link going down.
func (c *Cluster) Freeze(id pdu.EntityID) { c.nodes[id].frozen = true }

// SubmitAt schedules an application broadcast from sender at virtual time
// at.
func (c *Cluster) SubmitAt(sender pdu.EntityID, data []byte, at time.Duration) {
	c.submitted++
	c.Sim.At(at, func() {
		nd := c.nodes[sender]
		if nd.frozen {
			c.skipped++
			return
		}
		// The engine keeps what it is handed; the runtime's Broadcast
		// hands it a copy of the caller's payload, and so does this.
		owned := make([]byte, len(data))
		copy(owned, data)
		if err := nd.rt.Submit(context.Background(), c.group, owned); errors.Is(err, groups.ErrOverBudget) {
			// Shed by admission: the submission never reached the
			// entity, so no protocol state records it.
			c.skipped++
			c.shedCount++
			return
		}
		c.sent[sender] = append(c.sent[sender], data)
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
	at, err := c.RunUntil(func() bool { return c.AllDelivered() && c.Quiescent() }, deadline)
	if err == nil {
		return at, nil
	}
	for i, ds := range c.Delivered {
		if len(ds) < c.submitted {
			return at, fmt.Errorf("simrun: deadline %v: entity %d delivered %d/%d (stats %+v)",
				deadline, i, len(ds), c.submitted, c.Entities[i].Stats())
		}
	}
	return at, fmt.Errorf("simrun: deadline %v: delivered but not quiescent", deadline)
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

// Streams splits the group's flight log into one stream per entity, each
// in record order: what a node's ring would hold had it never wrapped.
// Nil without Options.Trace.
func (c *Cluster) Streams() [][]flight.Event {
	if c.Flight == nil {
		return nil
	}
	out := make([][]flight.Event, c.n)
	for _, ev := range c.Flight.Snapshot(nil) {
		out[ev.Entity] = append(out[ev.Entity], ev)
	}
	return out
}

// FlightDumps returns each entity's stream as a /tracez dump, labelled as
// the node runtime labels its rings; cotrace check reads them.
// EpochUnixNano stays 0: timestamps are virtual time. Nil without
// Options.Trace.
func (c *Cluster) FlightDumps() []obsv.NodeFlight {
	var out []obsv.NodeFlight
	for i, evs := range c.Streams() {
		out = append(out, obsv.NodeFlight{
			Node:     c.node(i),
			Recorded: uint64(len(evs)),
			Capacity: len(evs),
			Events:   evs,
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
	if c.Flight == nil {
		return nil, fmt.Errorf("simrun: cluster was built without tracing")
	}
	return trace.Analyze(c.Streams())
}

// TotalStats sums entity counters across the cluster.
func (c *Cluster) TotalStats() core.Stats {
	var t core.Stats
	for _, e := range c.Entities {
		t.Add(e.Stats())
	}
	return t
}
