package groups

import (
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/pdu"
)

// Shard owns engines and their Frames adapter. It takes no locks: its
// caller serializes every call — the Registry runs each Shard on a
// goroutine of its own (loop), the discrete-event harness steps one per
// simulated node. Inputs (Submit, Inbound, Tick, Evict) only stage PDUs;
// Flush sends them.
type Shard struct {
	cfg    Config
	frames Frames
	// engines lists the shard's engines in creation order, the order Tick
	// and Evict visit them, so a multi-group shard's output order is
	// deterministic. index maps each group to its engine; a nil engine is
	// a tombstone for a group whose construction failed (inputs drop as
	// unknown-group loss instead of retrying construction per datagram).
	engines []groupEngine
	index   map[uint32]*core.Entity
	// evicted is every peer Evict removed here; engines built later
	// start without them.
	evicted []pdu.EntityID
	// cur and curGroup name the engine an inbound is being delivered to;
	// recv is s.receive bound once, so Deliver takes no per-datagram
	// closure.
	cur      *core.Entity
	curGroup uint32
	recv     func(p *pdu.PDU)

	// The registry's goroutine reads in and tickC; a shard its caller
	// steps leaves them nil. ticker starts with the first engine, so a
	// shard that owns none never wakes.
	in         chan shardMsg
	ticker     *time.Ticker
	tickC      <-chan time.Time
	stop, done chan struct{}
}

type groupEngine struct {
	g   uint32
	eng *core.Entity
}

// NewShard builds a shard its caller steps itself, from one goroutine.
// cfg's NewEntity, Deliver and Now must be non-nil; Shards, MaxGroups,
// NewFrames and Tick serve the Registry alone.
func NewShard(cfg Config, frames Frames) *Shard {
	s := &Shard{cfg: cfg, frames: frames, index: make(map[uint32]*core.Entity)}
	s.recv = s.receive
	return s
}

// Start builds group g's engine now unless it exists, returning the
// construction error.
func (s *Shard) Start(g uint32) error {
	_, err := s.engine(g)
	return err
}

// Submit broadcasts data on group g, building its engine on first use.
// The engine retains data uncopied.
func (s *Shard) Submit(g uint32, data []byte) {
	if eng, _ := s.engine(g); eng != nil {
		s.dispatch(g, eng, eng.SubmitOwned(data, s.cfg.Now()))
	}
}

// Inbound decodes one received wire unit through the frames adapter and
// feeds its PDUs to group g's engine, building it on first use. A group
// without an engine drops the unit as unknown-group loss.
func (s *Shard) Inbound(g uint32, in Inbound) {
	eng, _ := s.engine(g)
	if eng == nil {
		s.cfg.dropUnknown(in)
		return
	}
	s.cur, s.curGroup = eng, g
	s.frames.Deliver(g, in, s.recv)
}

// Tick drives every engine's timers, in creation order.
func (s *Shard) Tick() {
	now := s.cfg.Now()
	for _, e := range s.engines {
		s.dispatch(e.g, e.eng, e.eng.Tick(now))
	}
}

// Evict removes peer k from every engine, in creation order, and
// remembers it for engines built later. If an engine rejects k
// (self-evict, out-of-range ID) the first such error is returned and k
// is not remembered.
func (s *Shard) Evict(k pdu.EntityID) error {
	var first error
	for _, e := range s.engines {
		out, err := e.eng.Evict(k, s.cfg.Now())
		if first == nil {
			first = err
		}
		s.dispatch(e.g, e.eng, out)
	}
	if first == nil {
		s.evicted = append(s.evicted, k)
	}
	return first
}

// Flush sends what the inputs since the last Flush staged.
func (s *Shard) Flush() { s.frames.Flush() }

// receive feeds one decoded PDU to the engine an inbound is addressed to.
func (s *Shard) receive(p *pdu.PDU) {
	now := s.cfg.Now()
	recordWire(s.cur.Flight(), flight.EvWireIn, p, now)
	// Receive errors mark malformed or foreign PDUs; the engine counts
	// them in InvalidPDUs and the protocol carries on.
	out, _ := s.cur.Receive(p, now)
	s.dispatch(s.curGroup, s.cur, out)
}

// engine returns group g's engine, instantiating it on first use. A
// failed construction is tombstoned so later inputs drop cheaply.
func (s *Shard) engine(g uint32) (*core.Entity, error) {
	if eng, ok := s.index[g]; ok {
		if eng == nil {
			return nil, errNoEngine
		}
		return eng, nil
	}
	eng, err := s.cfg.NewEntity(g)
	if err != nil {
		s.index[g] = nil
		return nil, err
	}
	s.index[g] = eng
	s.engines = append(s.engines, groupEngine{g, eng})
	for _, k := range s.evicted {
		// An identically configured engine accepted k, or none was
		// here to check it; an invalid k is rejected now, harmlessly.
		out, _ := eng.Evict(k, s.cfg.Now())
		s.dispatch(g, eng, out)
	}
	return eng, nil
}

// dispatch stages an engine's output PDUs on the shard's frames (sent at
// the next flush) and hands its deliveries to the embedding runtime, one
// call per output — before the engine's next input reuses their buffer.
func (s *Shard) dispatch(g uint32, eng *core.Entity, out core.Output) {
	if ring := eng.Flight(); ring != nil && len(out.PDUs) > 0 {
		now := s.cfg.Now()
		for _, p := range out.PDUs {
			recordWire(ring, flight.EvWireOut, p, now)
		}
	}
	for _, p := range out.PDUs {
		s.frames.Append(g, p)
	}
	if len(out.Deliveries) > 0 {
		s.cfg.Deliver(g, out.Deliveries)
	}
}

// recordWire notes one PDU crossing the node/network boundary. A RET is
// filed under the PDU it chases — the first its sender misses from LSrc,
// ACK[LSrc], as core's ret-request event is — with the requester in
// Peer. (LSeq is the gap's exclusive end: a PDU the requester holds or
// one LSrc has yet to send, in whose span a RET does not belong.) An
// inbound PDU is not validated yet, hence the range check.
func recordWire(ring *flight.Ring, t flight.EventType, p *pdu.PDU, now time.Duration) {
	src, seq, peer := p.Src, p.SEQ, pdu.NoEntity
	if p.Kind == pdu.KindRet && p.LSrc >= 0 && int(p.LSrc) < len(p.ACK) {
		src, seq, peer = p.LSrc, p.ACK[p.LSrc], p.Src
	}
	ring.Record(t, uint8(p.Kind), int32(src), uint64(seq), int32(peer), int64(now))
}
