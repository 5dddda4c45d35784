// Package network is the multi-channel (MC) network the CO protocol runs
// on (Section 2.3 of the paper): per-sender order on every channel, loss
// mainly by receive-buffer overrun, any interleaving across senders. One
// model runs on two clocks: New on the wall clock (the runtime's
// Cluster), NewVirtual on a simulator's (the simulated cluster). Each
// transmission meets the same seeded faults in the same order, and
// arrives after its link's earlier arrivals, so jitter never reorders a
// channel. Each datagram is handed without blocking to the receiver its
// endpoint's owner attached, or to an inbox channel read through Recv; a
// refusal is overrun loss. In virtual time each arrival is a simulator
// event. On the wall clock the sender's broadcast hands a datagram due
// now, on a link with nothing in flight, itself; others wait for the one
// delivery goroutine of a network with a delay.
//
// PDUs are shared, not copied: every receiver of a broadcast gets the
// same *pdu.PDU, which must not be written once handed to the network.
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
)

// Inbound is one datagram arriving at an endpoint from From: a batch of
// PDUs in the sender's order or one encoded frame, moved, lost and
// duplicated as a unit. Receivers share the PDUs and their slice, both
// read-only.
type Inbound struct {
	From pdu.EntityID
	// Group tags the datagram's ordered group (0 = the default group) —
	// the in-memory analogue of the v3 frame header's group field.
	Group uint32
	PDUs  []*pdu.PDU
	// Raw, when non-nil, is a frame naming its group in its own header
	// (Group and PDUs unused); each receiver owns its copy.
	Raw []byte
}

// size is what Stats count for the datagram: its PDUs, or one for a
// frame, whose PDUs the network does not decode.
func (in Inbound) size() uint64 {
	if in.Raw != nil {
		return 1
	}
	return uint64(len(in.PDUs))
}

// Stats counts network events in PDUs (a frame counts as one), so they
// are comparable across batching configurations.
type Stats struct {
	// Sent counts point-to-point transmissions (a k-PDU broadcast among
	// n counts k×(n-1)); Delivered counts PDUs handed over, duplicates
	// included.
	Sent, Delivered uint64
	// DroppedLoss counts the loss rate's and drop filter's drops;
	// DroppedOverrun a full receive buffer's or link queue's, the
	// paper's loss mode; DroppedPartition a blocked channel's.
	DroppedLoss, DroppedOverrun, DroppedPartition uint64
}

// Dropped is every PDU the network lost, whatever the cause.
func (s Stats) Dropped() uint64 { return s.DroppedLoss + s.DroppedOverrun + s.DroppedPartition }

// queueCap bounds a link's datagrams in flight on the wall clock, far
// above what milliseconds of delay hold; one beyond it is overrun loss.
const queueCap = 4096

type config struct {
	seed          int64
	lossRate      float64
	duplicateRate float64
	delay         func(from, to pdu.EntityID, rng *rand.Rand) time.Duration
	drop          func(from, to pdu.EntityID, in Inbound) bool
	corrupt       func(from, to pdu.EntityID, frame []byte) []byte
	inboxCap      int
}

// Option configures a Net.
type Option func(*config)

// WithSeed seeds the network's RNG (default 1).
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithLossRate loses each transmission with probability p (0 ≤ p < 1).
func WithLossRate(p float64) Option { return func(c *config) { c.lossRate = p } }

// WithDuplicateRate delivers each transmission twice with probability p.
func WithDuplicateRate(p float64) Option { return func(c *config) { c.duplicateRate = p } }

// WithDelay sets a per-link propagation-delay model, drawing jitter from
// the network's RNG. A burst sent at once arrives at once.
func WithDelay(fn func(from, to pdu.EntityID, rng *rand.Rand) time.Duration) Option {
	return func(c *config) { c.delay = fn }
}

// WithUniformDelay gives every link the same propagation delay (the
// paper's R is the maximum such delay); zero, the default, means none.
func WithUniformDelay(d time.Duration) Option {
	if d <= 0 {
		return WithDelay(nil)
	}
	return WithDelay(func(_, _ pdu.EntityID, _ *rand.Rand) time.Duration { return d })
}

// WithDropFilter installs a loss hook, consulted exactly once per
// transmission after the blocked-link and loss-rate checks, whatever the
// datagram's size; true drops the datagram.
func WithDropFilter(fn func(from, to pdu.EntityID, in Inbound) bool) Option {
	return func(c *config) { c.drop = fn }
}

// WithCorrupt installs a byte-fault hook for frames, consulted once per
// copy with the receiver's own bytes; it returns the bytes to deliver.
func WithCorrupt(fn func(from, to pdu.EntityID, frame []byte) []byte) Option {
	return func(c *config) { c.corrupt = fn }
}

// WithInboxCapacity bounds each Recv inbox channel (default 1024); an
// arrival at a full one is overrun loss.
func WithInboxCapacity(n int) Option { return func(c *config) { c.inboxCap = n } }

// Net is an in-memory MC network connecting n entities. Create it with
// New or NewVirtual, attach entities via Endpoint, and Close when done.
type Net struct {
	cfg   config
	ports []*Port
	clock *sim.Sim  // the virtual clock; nil on the wall clock
	start time.Time // the wall clock's epoch

	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[[2]pdu.EntityID]bool
	closed  bool
	// horizon[link] is a directed link's (from*n + to) latest arrival;
	// inFlight[link] counts its datagrams in queue, the wall clock's
	// datagrams in flight by due time.
	horizon  []time.Duration
	inFlight []int
	queue    []arrival
	// wake rouses the delivery goroutine, which closes done on exit.
	wake, done chan struct{}
	m          obsv.NetworkMetrics // loaded from any goroutine
}

// arrival is one datagram in flight to its receiver on the wall clock.
type arrival struct {
	due  time.Duration
	link int
	to   *Port
	in   Inbound
}

// ErrClosed is returned by sends on a closed network.
var ErrClosed = errors.New("network: closed")

// New creates an MC network for n entities on the wall clock. Only a
// network with a delay model starts a goroutine: one, whatever n.
func New(n int, opts ...Option) *Net {
	net := newNet(nil, n, opts)
	if net.cfg.delay != nil {
		net.wake, net.done = make(chan struct{}, 1), make(chan struct{})
		go net.deliver()
	}
	return net
}

// NewVirtual creates an MC network for n entities on s's virtual clock.
func NewVirtual(s *sim.Sim, n int, opts ...Option) *Net { return newNet(s, n, opts) }

func newNet(clock *sim.Sim, n int, opts []Option) *Net {
	cfg := config{seed: 1, inboxCap: 1024}
	for _, o := range opts {
		o(&cfg)
	}
	net := &Net{
		cfg:      cfg,
		ports:    make([]*Port, n),
		clock:    clock,
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(cfg.seed)),
		blocked:  make(map[[2]pdu.EntityID]bool),
		horizon:  make([]time.Duration, n*n),
		inFlight: make([]int, n*n),
	}
	for i := range net.ports {
		net.ports[i] = &Port{net: net, id: pdu.EntityID(i)}
	}
	return net
}

// deliver is a delayed wall-clock network's goroutine: it hands every
// due datagram over under the lock, then sleeps until the next is due or
// wake signals a new head or Close (a stale timer costs one pass).
func (n *Net) deliver() {
	defer close(n.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		now, wait := time.Since(n.start), time.Hour
		for len(n.queue) > 0 && n.queue[0].due <= now {
			a := n.queue[0]
			n.queue[0] = arrival{}
			n.queue = n.queue[1:]
			n.inFlight[a.link]--
			n.hand(a.to, a.in)
		}
		if len(n.queue) > 0 {
			wait = n.queue[0].due - now
		}
		n.mu.Unlock()
		timer.Reset(wait)
		select {
		case <-n.wake:
		case <-timer.C:
		}
	}
}

// hand gives in to p's receiver and counts the outcome.
func (n *Net) hand(p *Port, in Inbound) {
	if p.receiver()(in) {
		n.m.Delivered.Add(in.size())
	} else {
		n.m.DroppedOverrun.Add(in.size())
	}
}

// Endpoint returns entity i's attachment point.
func (n *Net) Endpoint(i pdu.EntityID) *Port { return n.ports[i] }

// Block partitions the directed channel from→to until Unblock.
func (n *Net) Block(from, to pdu.EntityID) { n.setBlocked(from, to, true) }

// Unblock heals the directed channel from→to.
func (n *Net) Unblock(from, to pdu.EntityID) { n.setBlocked(from, to, false) }

// Isolate blocks every channel to and from entity i.
func (n *Net) Isolate(i pdu.EntityID) { n.setPeerLinks(i, true) }

// Rejoin heals every channel to and from entity i.
func (n *Net) Rejoin(i pdu.EntityID) { n.setPeerLinks(i, false) }

func (n *Net) setPeerLinks(i pdu.EntityID, blocked bool) {
	for j := range n.ports {
		if pdu.EntityID(j) != i {
			n.setBlocked(i, pdu.EntityID(j), blocked)
			n.setBlocked(pdu.EntityID(j), i, blocked)
		}
	}
}

func (n *Net) setBlocked(from, to pdu.EntityID, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]pdu.EntityID{from, to}] = blocked
}

// Stats returns a snapshot of the network counters.
func (n *Net) Stats() Stats {
	return Stats{
		Sent:             n.m.Sent.Load(),
		Delivered:        n.m.Delivered.Load(),
		DroppedLoss:      n.m.DroppedLoss.Load(),
		DroppedOverrun:   n.m.DroppedOverrun.Load(),
		DroppedPartition: n.m.DroppedPartition.Load(),
	}
}

// Metrics returns the live counters, for registry registration.
func (n *Net) Metrics() *obsv.NetworkMetrics { return &n.m }

// Close shuts the network down, discarding datagrams in flight, and
// closes the inbox channels; no receiver is called once it returns.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	if n.done != nil {
		n.signal()
		<-n.done
	}
	for _, p := range n.ports {
		// An unattached port gets its inbox now, for a later Recv.
		if p.receiver(); p.inbox != nil {
			close(p.inbox)
		}
	}
}

// signal wakes the delivery goroutine without waiting.
func (n *Net) signal() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// send transmits in to every other entity, drawing the faults per
// destination in ID order — loss roll, drop filter, duplicate roll, then
// per copy delay draw and byte-fault hook: the simulator's pinned
// digests rest on that order.
func (n *Net) send(in Inbound) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("broadcast from %d: %w", in.From, ErrClosed)
	}
	k := in.size()
	if k == 0 {
		return nil
	}
	now := time.Since(n.start)
	if n.clock != nil {
		now = n.clock.Now()
	}
	for _, to := range n.ports {
		if to.id == in.From {
			continue
		}
		n.m.Sent.Add(k)
		switch {
		case n.blocked[[2]pdu.EntityID{in.From, to.id}]:
			n.m.DroppedPartition.Add(k)
		case n.cfg.lossRate > 0 && n.rng.Float64() < n.cfg.lossRate,
			n.cfg.drop != nil && n.cfg.drop(in.From, to.id, in):
			n.m.DroppedLoss.Add(k)
		case n.cfg.duplicateRate > 0 && n.rng.Float64() < n.cfg.duplicateRate:
			n.transmit(to, in, now)
			n.transmit(to, in, now)
		default:
			n.transmit(to, in, now)
		}
	}
	return nil
}

// transmit schedules one copy of in to p after its link's earlier
// arrivals. On the wall clock a copy due now, on a link with nothing in
// flight, is handed at once: no goroutine, no allocation.
func (n *Net) transmit(p *Port, in Inbound, now time.Duration) {
	at := now
	if n.cfg.delay != nil {
		at += n.cfg.delay(in.From, p.id, n.rng)
	}
	if in.Raw != nil {
		in.Raw = append([]byte(nil), in.Raw...)
		if n.cfg.corrupt != nil {
			in.Raw = n.cfg.corrupt(in.From, p.id, in.Raw)
		}
	}
	link := int(in.From)*len(n.ports) + int(p.id)
	if n.clock == nil && at == now && n.inFlight[link] == 0 {
		n.hand(p, in)
		return
	}
	if prev := n.horizon[link]; at <= prev {
		at = prev + time.Nanosecond
	}
	n.horizon[link] = at
	if n.clock != nil {
		// No lock is held: a simulated process's receiver may broadcast.
		n.clock.At(at, func() {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if !closed {
				n.hand(p, in)
			}
		})
		return
	}
	if n.inFlight[link] >= queueCap {
		n.m.DroppedOverrun.Add(in.size())
		return
	}
	n.inFlight[link]++
	i := sort.Search(len(n.queue), func(i int) bool { return n.queue[i].due > at })
	n.queue = slices.Insert(n.queue, i, arrival{due: at, link: link, to: p, in: in})
	if i == 0 {
		n.signal()
	}
}

// Port is an entity's endpoint on a Net.
type Port struct {
	net *Net
	id  pdu.EntityID
	// once fixes recv: Attach's function or, at the first Recv or
	// arrival, a non-blocking send on inbox (nil on an attached port).
	once  sync.Once
	recv  func(Inbound) bool
	inbox chan Inbound
}

// ErrAttached is returned by Attach on a port that has a receiver.
var ErrAttached = errors.New("network: port already has a receiver")

// Attach makes recv the port's receiver, called with each arrival in
// order: true counts the datagram delivered, false lost to overrun. On
// the wall clock it runs under the network's lock — in the sender's
// broadcast or the delivery goroutine — and must neither block nor call
// back into the Net; in virtual time it is a simulator event and may
// broadcast. It has one caller at a time, none after Close, and may
// retain the Inbound. After the port's first Recv or arrival, which fall
// back to the inbox channel, Attach returns ErrAttached.
func (p *Port) Attach(recv func(Inbound) bool) error {
	attached := false
	p.once.Do(func() { p.recv, attached = recv, true })
	if !attached {
		return fmt.Errorf("attach %d: %w", p.id, ErrAttached)
	}
	return nil
}

// receiver returns the port's receiver, giving a port nobody attached
// its bounded inbox channel.
func (p *Port) receiver() func(Inbound) bool {
	p.once.Do(func() {
		inbox := make(chan Inbound, p.net.cfg.inboxCap)
		p.inbox = inbox
		p.recv = func(in Inbound) bool {
			select {
			case inbox <- in:
				return true
			default:
				return false
			}
		}
	})
	return p.recv
}

// Broadcast sends the batch to every other entity on the default group
// (never to the sender: the CO protocol self-accepts at send time).
func (p *Port) Broadcast(batch ...*pdu.PDU) error { return p.BroadcastGroup(0, batch...) }

// BroadcastGroup sends the batch, tagged with group, to every other
// entity without blocking. The caller may reuse the slice but not write
// the shared PDUs. Shards may broadcast through one port concurrently.
func (p *Port) BroadcastGroup(group uint32, batch ...*pdu.PDU) error {
	return p.net.send(Inbound{From: p.id, Group: group, PDUs: append([]*pdu.PDU(nil), batch...)})
}

// BroadcastFrame sends one encoded frame to every other entity. Each
// receiver gets its own copy, so the caller may reuse frame at once.
func (p *Port) BroadcastFrame(frame []byte) error { return p.net.send(Inbound{From: p.id, Raw: frame}) }

// Recv returns the inbox channel of a port nobody attached to; it is
// closed when the network closes. On an attached port it returns nil.
func (p *Port) Recv() <-chan Inbound {
	p.receiver()
	return p.inbox
}
