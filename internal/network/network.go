// Package network provides the multi-channel (MC) network substrate the CO
// protocol runs on (Section 2.3 of the paper): a fully connected set of
// high-speed channels that
//
//   - preserves per-sender order on every channel (the MC service is
//     local-order-preserved), but
//   - may lose PDUs, primarily through receive-buffer overrun, because the
//     network is faster than the receiving entities, and
//   - imposes an arbitrary interleaving across senders (entities may
//     receive PDUs from different entities in different orders).
//
// The in-memory implementation models buffer overrun faithfully: every
// endpoint has a bounded receive buffer and a PDU arriving at a full one
// is dropped, exactly the loss mode the paper designs for. Each datagram
// is handed to the receiving endpoint's receiver without blocking. The
// receiver is either the function its owner attached (a cluster node
// enqueues straight on its shard's inbox) or, for an endpoint nobody
// attaches to, a bounded inbox channel read through Recv. With no delay
// configured the sender's broadcast makes that hand-off itself, under
// the network lock, so each sender's order survives and a receiver has
// one caller at a time. With a delay, each receiving endpoint has one
// in-flight FIFO and one delivery goroutine, which keeps every sender's
// datagrams in order and holds each one back until its uniform
// propagation delay has passed. Random loss and partitions are
// available too. All randomness is seeded so tests are reproducible.
//
// PDUs are shared, not copied: every receiver of a broadcast gets the
// same *pdu.PDU, so a PDU must not be written once it is handed to the
// network (the engine's Receive retains PDUs and never writes them).
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// Inbound is a batch of PDUs arriving at an endpoint, tagged with its
// sender. A batch models one datagram: it is transmitted, delayed, lost
// and delivered as a unit, and its PDUs are in the sender's append order,
// so per-sender order holds within and across batches (the MC service
// contract). Every receiver of a broadcast shares the PDUs and the slice
// holding them: both are read-only.
type Inbound struct {
	From pdu.EntityID
	// Group tags the datagram's ordered group (0 = the default group) —
	// the in-memory analogue of the v3 frame header's group field.
	Group uint32
	PDUs  []*pdu.PDU
}

// Stats counts network-level events since the network was created. All
// counters are in PDUs, not batches, so they are comparable across
// batching configurations.
type Stats struct {
	// Sent counts point-to-point PDU transmissions (a broadcast of a
	// k-PDU batch in a cluster of n counts k×(n-1)).
	Sent uint64
	// Delivered counts PDUs handed to receivers.
	Delivered uint64
	// DroppedLoss counts PDUs dropped by random loss.
	DroppedLoss uint64
	// DroppedOverrun counts PDUs dropped because the receiver's in-flight
	// queue or receive buffer was full — the paper's buffer-overrun
	// failure mode.
	DroppedOverrun uint64
	// DroppedPartition counts PDUs dropped on blocked channels.
	DroppedPartition uint64
}

// queueCap bounds each receiver's in-flight queue on a delayed network:
// datagrams sent but not yet due. It is far above what a delay of a few
// milliseconds holds at any rate the runtime reaches; a datagram
// arriving at a full queue is lost as overrun.
const queueCap = 4096

type config struct {
	lossRate float64
	seed     int64
	delay    time.Duration
	inboxCap int
}

// Option configures a Net.
type Option func(*config)

// WithLossRate makes every point-to-point transmission independently lost
// with probability p (0 ≤ p < 1).
func WithLossRate(p float64) Option { return func(c *config) { c.lossRate = p } }

// WithSeed seeds the loss RNG; networks with equal seeds and traffic lose
// the same PDUs.
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithUniformDelay sets the same propagation delay on every channel (the
// paper's parameter R is the maximum such delay). The default is zero.
// Delay is propagation, not spacing: a burst sent at once arrives at once.
// A non-zero delay gives every endpoint an in-flight queue and a delivery
// goroutine; without one, the sender delivers.
func WithUniformDelay(d time.Duration) Option { return func(c *config) { c.delay = d } }

// WithInboxCapacity bounds the inbox channel of each endpoint read
// through Recv; arrivals at a full inbox are dropped (buffer overrun).
// An attached endpoint's receiver sets its own bound. The default is
// 1024.
func WithInboxCapacity(n int) Option { return func(c *config) { c.inboxCap = n } }

// Net is an in-memory MC network connecting n entities. Create with New,
// attach entities via Endpoint, and Close when done; Close waits for a
// delayed network's delivery goroutines to exit.
type Net struct {
	cfg   config
	ports []*Port

	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[[2]pdu.EntityID]bool
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	// m holds the network counters on the shared obsv atomic type.
	// Senders and the delivery goroutines increment concurrently; Stats
	// and registry scrapers load from any goroutine.
	m obsv.NetworkMetrics
}

// ErrClosed is returned by sends on a closed network.
var ErrClosed = errors.New("network: closed")

// New creates an MC network for n entities. Only a network with a delay
// starts goroutines: one delivery goroutine per entity.
func New(n int, opts ...Option) *Net {
	cfg := config{seed: 1, inboxCap: 1024}
	for _, o := range opts {
		o(&cfg)
	}
	net := &Net{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		blocked: make(map[[2]pdu.EntityID]bool),
		stop:    make(chan struct{}),
		ports:   make([]*Port, n),
	}
	for i := range net.ports {
		p := &Port{net: net, id: pdu.EntityID(i)}
		net.ports[i] = p
		if cfg.delay > 0 {
			p.queue = make(chan datagram, queueCap)
			net.wg.Add(1)
			go net.deliver(p)
		}
	}
	return net
}

// datagram is one batch in flight to a receiver, due at its send time
// plus the propagation delay.
type datagram struct {
	in  Inbound
	due time.Time
}

// deliver is receiver p's delivery goroutine on a delayed network. Its
// one FIFO holds every sender's datagrams in send order, so each
// sender's order survives; it waits until the head is due, then hands it
// to the port's receiver.
func (n *Net) deliver(p *Port) {
	defer n.wg.Done()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-n.stop:
			return
		case d := <-p.queue:
			if wait := time.Until(d.due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-n.stop:
					timer.Stop()
					return
				case <-timer.C:
				}
			}
			n.hand(p, d.in)
		}
	}
}

// hand gives in to p's receiver, which must not block, and counts the
// outcome.
func (n *Net) hand(p *Port, in Inbound) {
	if p.receiver()(in) {
		n.m.Delivered.Add(uint64(len(in.PDUs)))
	} else {
		// Receive-buffer overrun: the paper's loss model. The whole
		// datagram is lost with its slot.
		n.m.DroppedOverrun.Add(uint64(len(in.PDUs)))
	}
}

// Endpoint returns entity i's attachment point.
func (n *Net) Endpoint(i pdu.EntityID) *Port { return n.ports[i] }

// Block partitions the directed channel from→to; PDUs sent on it are
// dropped until Unblock.
func (n *Net) Block(from, to pdu.EntityID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]pdu.EntityID{from, to}] = true
}

// Unblock heals the directed channel from→to.
func (n *Net) Unblock(from, to pdu.EntityID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]pdu.EntityID{from, to})
}

// Isolate blocks every channel to and from entity i.
func (n *Net) Isolate(i pdu.EntityID) {
	for j := range n.ports {
		if pdu.EntityID(j) == i {
			continue
		}
		n.Block(i, pdu.EntityID(j))
		n.Block(pdu.EntityID(j), i)
	}
}

// Rejoin heals every channel to and from entity i.
func (n *Net) Rejoin(i pdu.EntityID) {
	for j := range n.ports {
		if pdu.EntityID(j) == i {
			continue
		}
		n.Unblock(i, pdu.EntityID(j))
		n.Unblock(pdu.EntityID(j), i)
	}
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

// Metrics returns the live counters for registry registration; the
// returned pointer stays valid for the network's lifetime.
func (n *Net) Metrics() *obsv.NetworkMetrics { return &n.m }

// Close shuts the network down. Inbox channels are closed after all
// delivery goroutines exit; in-flight PDUs may be discarded. An attached
// receiver is called no more once Close returns.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	for _, p := range n.ports {
		// A port nobody attached gets its inbox now if it has none, so a
		// later Recv reads a closed channel.
		if p.receiver(); p.inbox != nil {
			close(p.inbox)
		}
	}
}

// Port is an entity's endpoint on a Net.
type Port struct {
	net   *Net
	id    pdu.EntityID
	queue chan datagram // in flight to this port, in send order; nil without delay

	// once fixes recv: the function Attach gave, or else — at the first
	// Recv or due datagram — a non-blocking send on inbox, which is nil
	// on an attached port.
	once  sync.Once
	recv  func(Inbound) bool
	inbox chan Inbound
}

// ErrAttached is returned by Attach on a port that already has a
// receiver.
var ErrAttached = errors.New("network: port already has a receiver")

// Attach makes recv the port's receiver: the network calls it with each
// due datagram, in arrival order, and counts the datagram delivered on
// true and lost to overrun on false. Without delay the sender's
// broadcast calls it, on the sender's goroutine and under the network's
// lock, before the broadcast returns; with a delay the port's delivery
// goroutine does. Either way recv is called by one goroutine at a time,
// never after Close returns, and must neither block nor call back into
// the Net. It may retain the Inbound (its PDUs are shared and
// read-only). Attach must come before the port's first Recv or due
// datagram, which fall back to the inbox channel; after either it
// returns ErrAttached.
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

// Broadcast sends the batch to every other entity as one datagram per
// destination, on the default group. It never delivers back to the
// sender: the CO protocol self-accepts at send time.
func (p *Port) Broadcast(batch ...*pdu.PDU) error {
	return p.BroadcastGroup(0, batch...)
}

// BroadcastGroup sends the batch to every other entity as one datagram
// per destination, tagged with the given group, applying partition and
// loss policy per destination to the batch as a unit. Without delay it
// hands each surviving datagram to its destination's receiver itself;
// with a delay it queues it for the destination's delivery goroutine. It
// never blocks: a datagram that finds the receiver or the in-flight
// queue full is lost as overrun. The caller may reuse the batch slice
// once it returns, but not write the PDUs in it: every destination
// shares them. It is safe for concurrent use (shard goroutines broadcast
// different groups through one port).
func (p *Port) BroadcastGroup(group uint32, batch ...*pdu.PDU) error {
	n := p.net
	k := uint64(len(batch))
	d := datagram{
		in:  Inbound{From: p.id, Group: group, PDUs: append([]*pdu.PDU(nil), batch...)},
		due: time.Now().Add(n.cfg.delay),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("broadcast from %d: %w", p.id, ErrClosed)
	}
	if k == 0 {
		return nil
	}
	for _, to := range n.ports {
		if to == p {
			continue
		}
		n.m.Sent.Add(k)
		switch {
		case n.blocked[[2]pdu.EntityID{p.id, to.id}]:
			n.m.DroppedPartition.Add(k)
		case n.cfg.lossRate > 0 && n.rng.Float64() < n.cfg.lossRate:
			n.m.DroppedLoss.Add(k)
		case to.queue == nil:
			n.hand(to, d.in)
		default:
			select {
			case to.queue <- d:
			default:
				n.m.DroppedOverrun.Add(k)
			}
		}
	}
	return nil
}

// Recv returns the inbox channel of a port nobody attached to; it is
// closed when the network closes. On an attached port it returns nil.
func (p *Port) Recv() <-chan Inbound {
	p.receiver()
	return p.inbox
}
