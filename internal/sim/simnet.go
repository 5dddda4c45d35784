package sim

import (
	"math/rand"
	"time"

	"cobcast/internal/pdu"
)

// Handler receives a PDU arriving at an entity attached to a Net.
type Handler func(from pdu.EntityID, p *pdu.PDU)

// NetOption configures a simulated network.
type NetOption func(*netConfig)

type netConfig struct {
	delay         func(from, to pdu.EntityID, rng *rand.Rand) time.Duration
	lossRate      float64
	duplicateRate float64
	seed          int64
	drop          func(from, to pdu.EntityID, p *pdu.PDU) bool
	dropDatagram  func(from, to pdu.EntityID, pdus int) bool
	encode        func(from pdu.EntityID, group uint32, batch []*pdu.PDU) []byte
	decode        func(from, to pdu.EntityID, group uint32, frame []byte) []*pdu.PDU
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

// NetDropFilter installs a targeted-loss hook for failure injection.
func NetDropFilter(fn func(from, to pdu.EntityID, p *pdu.PDU) bool) NetOption {
	return func(c *netConfig) { c.drop = fn }
}

// NetDatagramFilter installs a per-datagram loss hook, consulted exactly
// once per transmission (after the blocked-channel and uniform loss-rate
// checks) with the datagram's PDU count; returning true drops the whole
// datagram. Unlike NetDropFilter it sees each datagram once regardless of
// batch size, which lets fault models that consume randomness — per-link
// loss rates, correlated buffer-overrun bursts — stay deterministic under
// batching changes.
func NetDatagramFilter(fn func(from, to pdu.EntityID, pdus int) bool) NetOption {
	return func(c *netConfig) { c.dropDatagram = fn }
}

// NetCodec routes every Broadcast datagram through a wire codec round
// trip instead of moving PDU pointers: encode runs exactly once per
// datagram, before the per-receiver fault rolls, so send-side codec
// state (a v2 delta-stamp reference) advances the way a real link's
// does; decode runs once per delivered copy at its receiver, so lost
// and duplicated datagrams exercise the receive-side codec state
// exactly as on a lossy wire. decode returns the PDUs that survived —
// a short result models codec-level loss (a delta stamp whose
// reference datagram was dropped) and is counted in CodecDropped. The
// returned frame and PDUs must be freshly owned (the network schedules
// and replays them). Both see the datagram's group tag: each ordered
// group is its own sequence space, so codec state must be kept per
// (channel, group). Direct Send calls bypass the codec.
func NetCodec(encode func(from pdu.EntityID, group uint32, batch []*pdu.PDU) []byte,
	decode func(from, to pdu.EntityID, group uint32, frame []byte) []*pdu.PDU) NetOption {
	return func(c *netConfig) { c.encode, c.decode = encode, decode }
}

// NetStats counts simulated-network events.
type NetStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	// CodecDropped counts PDUs lost inside delivered datagrams by the
	// NetCodec round trip (decode returned fewer PDUs than were sent),
	// e.g. v2 delta stamps rejected for a lost reference.
	CodecDropped uint64
}

// Net is the virtual-time MC network: per-sender order preserved on every
// directed channel, arbitrary interleaving across senders, optional loss.
// Attach one handler per entity, then Broadcast from inside or outside
// event callbacks; deliveries are scheduled as simulator events.
//
// Every datagram carries an ordered-group tag (the virtual-time twin of
// network.Port.BroadcastGroup): all groups share the links — one fault
// roll, one delay draw and one FIFO horizon per directed channel,
// whatever the group — and the tag only selects which of the receiving
// entity's handlers the datagram reaches.
type Net struct {
	sim  *Sim
	cfg  netConfig
	rng  *rand.Rand
	size int
	// handlers[group][entity]; group 0 is the default group.
	handlers map[uint32][]Handler
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
		handlers: make(map[uint32][]Handler),
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

// Attach registers the handler invoked when default-group PDUs arrive at
// entity i.
func (n *Net) Attach(i pdu.EntityID, h Handler) { n.AttachGroup(0, i, h) }

// AttachGroup registers the handler invoked when PDUs tagged with group
// arrive at entity i.
func (n *Net) AttachGroup(group uint32, i pdu.EntityID, h Handler) {
	if n.handlers[group] == nil {
		n.handlers[group] = make([]Handler, n.size)
	}
	n.handlers[group][i] = h
}

// Size returns the number of entities.
func (n *Net) Size() int { return n.size }

// Stats returns a snapshot of the counters.
func (n *Net) Stats() NetStats { return n.stats }

// Broadcast schedules delivery of a default-group batch (one datagram)
// from one entity to every other.
func (n *Net) Broadcast(from pdu.EntityID, batch ...*pdu.PDU) {
	n.BroadcastGroup(from, 0, batch...)
}

// BroadcastGroup is Broadcast for a datagram of the given ordered group.
// With a NetCodec installed the batch is encoded here, once, and the same
// frame bytes fan out to every receiver.
func (n *Net) BroadcastGroup(from pdu.EntityID, group uint32, batch ...*pdu.PDU) {
	if len(batch) == 0 {
		return
	}
	var frame []byte
	if n.cfg.encode != nil {
		frame = n.cfg.encode(from, group, batch)
	}
	for to := 0; to < n.size; to++ {
		if pdu.EntityID(to) == from {
			continue
		}
		n.send(from, pdu.EntityID(to), group, batch, frame)
	}
}

// Send schedules delivery of a batch on the from→to channel. The batch is
// one datagram: it is delayed, lost, and duplicated as a unit, arrives as
// one simulator event, and its PDUs reach the handler in append order —
// so per-sender order holds within and across batches. Stats count PDUs.
//
// The network keeps the batch slice and hands the same PDUs to every
// receiver and every duplicate, so once sent neither may be reused or
// written. Broadcast and BroadcastGroup share them the same way.
func (n *Net) Send(from, to pdu.EntityID, batch ...*pdu.PDU) {
	n.send(from, to, 0, batch, nil)
}

// send is the shared channel path; a non-nil frame carries the encoded
// datagram for the NetCodec byte path.
func (n *Net) send(from, to pdu.EntityID, group uint32, batch []*pdu.PDU, frame []byte) {
	if len(batch) == 0 {
		return
	}
	n.stats.Sent += uint64(len(batch))
	if n.blocked[[2]pdu.EntityID{from, to}] {
		n.stats.Dropped += uint64(len(batch))
		return
	}
	if n.cfg.lossRate > 0 && n.rng.Float64() < n.cfg.lossRate {
		n.stats.Dropped += uint64(len(batch))
		return
	}
	if n.cfg.dropDatagram != nil && n.cfg.dropDatagram(from, to, len(batch)) {
		n.stats.Dropped += uint64(len(batch))
		return
	}
	if n.cfg.drop != nil {
		for _, p := range batch {
			if n.cfg.drop(from, to, p) {
				n.stats.Dropped += uint64(len(batch))
				return
			}
		}
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
		if frame != nil {
			// Byte path: decode at arrival, per delivered copy, so the
			// receiver's codec state sees exactly the datagram sequence
			// the channel delivered (losses, duplicates and all).
			sent := len(batch)
			n.sim.At(at, func() {
				pdus := n.cfg.decode(from, to, group, frame)
				if len(pdus) < sent {
					n.stats.CodecDropped += uint64(sent - len(pdus))
				}
				n.arrive(from, to, group, pdus)
			})
			continue
		}
		n.sim.At(at, func() { n.arrive(from, to, group, batch) })
	}
}

// arrive hands one delivered datagram's PDUs to the receiving entity's
// handler for the datagram's group, if one is attached.
func (n *Net) arrive(from, to pdu.EntityID, group uint32, pdus []*pdu.PDU) {
	n.stats.Delivered += uint64(len(pdus))
	if hs := n.handlers[group]; hs != nil && hs[to] != nil {
		for _, p := range pdus {
			hs[to](from, p)
		}
	}
}
