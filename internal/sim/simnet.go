package sim

import (
	"math/rand"
	"time"

	"cobcast/internal/pdu"
)

// Datagram is the unit a Net moves: one ordered group's PDUs as shared
// pointers, or one encoded batch frame, which names its group in its own
// header. Either way it is delayed, lost and duplicated whole.
type Datagram struct {
	// Group tags a pointer datagram with its ordered group (the
	// virtual-time twin of network.Port.BroadcastGroup).
	Group uint32
	PDUs  []*pdu.PDU
	// Raw, when non-nil, is the datagram's frame bytes; PDUs is then
	// unused.
	Raw []byte
}

// Handler receives a datagram arriving at an entity attached to a Net.
type Handler func(from pdu.EntityID, d Datagram)

// NetOption configures a simulated network.
type NetOption func(*netConfig)

type netConfig struct {
	delay         func(from, to pdu.EntityID, rng *rand.Rand) time.Duration
	lossRate      float64
	duplicateRate float64
	seed          int64
	drop          func(from, to pdu.EntityID, d Datagram) bool
	corrupt       func(from, to pdu.EntityID, frame []byte) []byte
}

// NetDelay sets a per-channel propagation-delay model; the RNG allows
// jitter while staying deterministic.
func NetDelay(fn func(from, to pdu.EntityID, rng *rand.Rand) time.Duration) NetOption {
	return func(c *netConfig) { c.delay = fn }
}

// NetUniformDelay gives every channel the same propagation delay R.
func NetUniformDelay(r time.Duration) NetOption {
	return NetDelay(func(_, _ pdu.EntityID, _ *rand.Rand) time.Duration { return r })
}

// NetLossRate drops each point-to-point transmission independently with
// probability p.
func NetLossRate(p float64) NetOption { return func(c *netConfig) { c.lossRate = p } }

// NetDuplicateRate delivers each transmission twice with probability p.
func NetDuplicateRate(p float64) NetOption { return func(c *netConfig) { c.duplicateRate = p } }

// NetSeed seeds the network RNG.
func NetSeed(s int64) NetOption { return func(c *netConfig) { c.seed = s } }

// NetDropFilter installs a loss hook for failure injection, consulted
// exactly once per transmission (after the blocked-channel and uniform
// loss-rate checks); returning true drops the whole datagram. Seeing each
// datagram once, whatever its size, lets fault models that consume
// randomness — per-link loss rates, correlated buffer-overrun bursts —
// stay deterministic under batching changes; targeted loss reads the
// pointer datagram's PDUs.
func NetDropFilter(fn func(from, to pdu.EntityID, d Datagram) bool) NetOption {
	return func(c *netConfig) { c.drop = fn }
}

// NetCorrupt installs a byte-fault hook for frame datagrams, consulted
// once per delivered copy (duplicates included) with the receiver's own
// copy of the frame: it returns the bytes to deliver, mangled or not.
func NetCorrupt(fn func(from, to pdu.EntityID, frame []byte) []byte) NetOption {
	return func(c *netConfig) { c.corrupt = fn }
}

// NetStats counts simulated-network events, in datagrams: a datagram
// is sent once per receiver and delivered once per copy.
type NetStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
}

// Net is the virtual-time MC network: per-sender order preserved on every
// directed channel, arbitrary interleaving across senders, optional loss.
// Attach one handler per entity, then Broadcast from inside or outside
// event callbacks; each datagram's arrival is one simulator event. The
// network never looks inside a datagram's group: every group shares the
// links — one fault roll, one delay draw and one FIFO horizon per
// directed channel — and routing by group is the receiver's business.
type Net struct {
	sim      *Sim
	cfg      netConfig
	rng      *rand.Rand
	size     int
	handlers []Handler
	// lastAt[from][to] is the latest scheduled arrival on the channel,
	// used to keep the MC service local-order-preserved under jitter.
	lastAt  [][]time.Duration
	blocked map[[2]pdu.EntityID]bool
	stats   NetStats
}

// NewNet creates a simulated network for n entities on s.
func NewNet(s *Sim, n int, opts ...NetOption) *Net {
	cfg := netConfig{
		seed:  1,
		delay: func(_, _ pdu.EntityID, _ *rand.Rand) time.Duration { return 0 },
	}
	for _, o := range opts {
		o(&cfg)
	}
	last := make([][]time.Duration, n)
	for i := range last {
		last[i] = make([]time.Duration, n)
	}
	return &Net{
		sim:      s,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.seed)),
		size:     n,
		handlers: make([]Handler, n),
		lastAt:   last,
		blocked:  make(map[[2]pdu.EntityID]bool),
	}
}

// Block partitions the directed channel from→to until Unblock.
func (n *Net) Block(from, to pdu.EntityID) { n.blocked[[2]pdu.EntityID{from, to}] = true }

// Unblock heals the directed channel from→to.
func (n *Net) Unblock(from, to pdu.EntityID) { delete(n.blocked, [2]pdu.EntityID{from, to}) }

// Isolate blocks every channel to and from entity i.
func (n *Net) Isolate(i pdu.EntityID) {
	for j := 0; j < n.size; j++ {
		if pdu.EntityID(j) != i {
			n.Block(i, pdu.EntityID(j))
			n.Block(pdu.EntityID(j), i)
		}
	}
}

// Rejoin heals every channel to and from entity i.
func (n *Net) Rejoin(i pdu.EntityID) {
	for j := 0; j < n.size; j++ {
		if pdu.EntityID(j) != i {
			n.Unblock(i, pdu.EntityID(j))
			n.Unblock(pdu.EntityID(j), i)
		}
	}
}

// Attach registers the handler invoked when datagrams arrive at entity
// i.
func (n *Net) Attach(i pdu.EntityID, h Handler) { n.handlers[i] = h }

// Size returns the number of entities.
func (n *Net) Size() int { return n.size }

// Stats returns a snapshot of the counters.
func (n *Net) Stats() NetStats { return n.stats }

// Broadcast schedules delivery of one datagram from one entity to every
// other.
func (n *Net) Broadcast(from pdu.EntityID, d Datagram) {
	for to := 0; to < n.size; to++ {
		if pdu.EntityID(to) != from {
			n.Send(from, pdu.EntityID(to), d)
		}
	}
}

// Send schedules delivery of one datagram on the from→to channel: it is
// delayed, lost, and duplicated as a unit, arrives as one simulator
// event, and its PDUs keep their order — so per-sender order holds
// within and across datagrams.
//
// The network keeps d.PDUs and hands the same PDUs to every receiver and
// every duplicate, so once sent neither the slice nor the PDUs may be
// reused or written. d.Raw is copied per delivered copy — each receiver
// owns its bytes — so the caller may reuse it once Send returns.
func (n *Net) Send(from, to pdu.EntityID, d Datagram) {
	n.stats.Sent++
	if n.blocked[[2]pdu.EntityID{from, to}] ||
		n.cfg.lossRate > 0 && n.rng.Float64() < n.cfg.lossRate ||
		n.cfg.drop != nil && n.cfg.drop(from, to, d) {
		n.stats.Dropped++
		return
	}
	copies := 1
	if n.cfg.duplicateRate > 0 && n.rng.Float64() < n.cfg.duplicateRate {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		at := n.sim.Now() + n.cfg.delay(from, to, n.rng)
		// FIFO per directed channel: never deliver before an earlier send.
		if prev := n.lastAt[from][to]; at <= prev {
			at = prev + time.Nanosecond
		}
		n.lastAt[from][to] = at
		own := d
		if d.Raw != nil {
			own.Raw = append([]byte(nil), d.Raw...)
			if n.cfg.corrupt != nil {
				own.Raw = n.cfg.corrupt(from, to, own.Raw)
			}
		}
		n.sim.At(at, func() {
			n.stats.Delivered++
			if h := n.handlers[to]; h != nil {
				h(from, own)
			}
		})
	}
}
