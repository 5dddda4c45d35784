package groups

import (
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/pdu"
)

// shard owns engines and their Frames adapter. It takes no locks beyond
// its inbox's: one driver steps it at a time — the shard's goroutine
// under New, the registry's caller under NewStepped. Inputs only stage
// PDUs; the step's flush sends them.
type shard struct {
	r      *Registry
	frames Frames
	// engines lists the shard's engines in creation order, the order tick
	// and evict visit them, so a multi-group shard's output order is
	// deterministic. index maps each group to its engine; a nil engine is
	// a tombstone for a group whose construction failed (inputs drop as
	// unknown-group loss instead of retrying construction per datagram).
	engines []groupEngine
	index   map[uint32]*core.Entity
	// evicted is every peer evict removed here; engines built later
	// start without them.
	evicted []pdu.EntityID
	// cur and curGroup name the engine an inbound is being delivered to;
	// recv is s.receive bound once, so Deliver takes no per-datagram
	// closure.
	cur      *core.Entity
	curGroup uint32
	recv     func(p *pdu.PDU)
	// held lists the engines this step has fed, each with a batch open
	// (core.Entity.Hold), in first-touched order; release closes them
	// before the step's flush.
	held []groupEngine

	// in is the inbox and batch the spare its step trades for the next
	// batch. A shard goroutine (New) reads wake and tickC and closes
	// done; a stepped shard leaves them nil. ticker starts with the
	// first engine, so a shard that owns none never wakes.
	in     inbox
	batch  []shardMsg
	ticker *time.Ticker
	tickC  <-chan time.Time
	done   chan struct{}
}

type groupEngine struct {
	g   uint32
	eng *core.Entity
}

// handle runs one inbox message; a group without an engine drops an
// inbound as unknown-group loss.
func (s *shard) handle(m *shardMsg) {
	switch m.kind {
	case msgSubmit:
		if eng, _ := s.engine(m.group); eng != nil {
			s.hold(m.group, eng)
			s.dispatch(m.group, eng, eng.SubmitOwned(m.data, s.r.cfg.Now()))
		}
	case msgInbound:
		eng, _ := s.engine(m.group)
		if eng == nil {
			s.r.cfg.dropUnknown(m.in)
			return
		}
		s.hold(m.group, eng)
		s.cur, s.curGroup = eng, m.group
		s.frames.Deliver(m.group, m.in, s.recv)
	case msgQuery:
		m.reply <- m.query(s)
	}
}

// tick drives every engine's timers, in creation order.
func (s *shard) tick() {
	now := s.r.cfg.Now()
	for _, e := range s.engines {
		s.hold(e.g, e.eng)
		s.dispatch(e.g, e.eng, e.eng.Tick(now))
	}
}

// evict removes peer k from every engine, in creation order, and
// remembers it for engines built later. If an engine rejects k
// (self-evict, out-of-range ID) the first such error is returned and k
// is not remembered.
func (s *shard) evict(k pdu.EntityID) error {
	var first error
	for _, e := range s.engines {
		s.hold(e.g, e.eng)
		out, err := e.eng.Evict(k, s.r.cfg.Now())
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

// receive feeds one decoded PDU to the engine an inbound is addressed to.
func (s *shard) receive(p *pdu.PDU) {
	now := s.r.cfg.Now()
	recordWire(s.cur, flight.EvWireIn, p, now)
	// Receive errors mark malformed or foreign PDUs; the engine counts
	// them in InvalidPDUs and the protocol carries on.
	out, _ := s.cur.Receive(p, now)
	s.dispatch(s.curGroup, s.cur, out)
}

// engine returns group g's engine, building it on first use around the
// ledger of g's entry (every input's sender opened g) and publishing it
// there. A failed construction is tombstoned so later inputs drop cheaply.
func (s *shard) engine(g uint32) (*core.Entity, error) {
	if eng, ok := s.index[g]; ok {
		if eng == nil {
			return nil, errNoEngine
		}
		return eng, nil
	}
	e := (*s.r.known.Load())[g]
	eng, err := s.r.cfg.NewEntity(g, e.ledger)
	if err != nil {
		s.index[g] = nil
		return nil, err
	}
	e.eng.Store(eng)
	s.index[g] = eng
	s.engines = append(s.engines, groupEngine{g, eng})
	if s.ticker == nil && s.done != nil {
		s.ticker = time.NewTicker(s.r.cfg.Tick)
		s.tickC = s.ticker.C
	}
	for _, k := range s.evicted {
		// An identically configured engine accepted k, or none was
		// here to check it; an invalid k is rejected now, harmlessly.
		s.hold(g, eng)
		out, _ := eng.Evict(k, s.r.cfg.Now())
		s.dispatch(g, eng, out)
	}
	return eng, nil
}

// hold opens a batch on group g's engine eng for the rest of the step,
// unless one is open already: everything its inputs stage waits for the
// step's one flush, so they share one confirmation decision, at release.
func (s *shard) hold(g uint32, eng *core.Entity) {
	if eng.Hold() {
		s.held = append(s.held, groupEngine{g, eng})
	}
}

// release closes every batch the step opened, in first-touched order,
// staging each engine's one deferred confirmation for the flush.
func (s *shard) release() {
	if len(s.held) == 0 {
		return
	}
	now := s.r.cfg.Now()
	for _, e := range s.held {
		s.dispatch(e.g, e.eng, e.eng.Release(now))
	}
	clear(s.held)
	s.held = s.held[:0]
}

// dispatch stages an engine's output PDUs on the shard's frames (sent at
// the step's flush) and hands its deliveries to the embedding runtime,
// one call per output — before the engine's next input reuses their
// buffer.
func (s *shard) dispatch(g uint32, eng *core.Entity, out core.Output) {
	if eng.Flight() != nil && len(out.PDUs) > 0 {
		now := s.r.cfg.Now()
		for _, p := range out.PDUs {
			recordWire(eng, flight.EvWireOut, p, now)
		}
	}
	for _, p := range out.PDUs {
		s.frames.Append(g, p)
	}
	if len(out.Deliveries) > 0 {
		s.r.cfg.Deliver(g, out.Deliveries)
	}
}

// recordWire notes one PDU crossing the node/network boundary in eng's
// flight recorder. A RET is
// filed under the PDU it chases — the first its sender misses from LSrc,
// ACK[LSrc], as core's ret-request event is — with the requester in
// Peer. (LSeq is the gap's exclusive end: a PDU the requester holds or
// one LSrc has yet to send, in whose span a RET does not belong.) An
// inbound PDU is not validated yet, hence the range check.
func recordWire(eng *core.Entity, t flight.EventType, p *pdu.PDU, now time.Duration) {
	src, seq, peer := p.Src, p.SEQ, pdu.NoEntity
	if p.Kind == pdu.KindRet && p.LSrc >= 0 && int(p.LSrc) < len(p.ACK) {
		src, seq, peer = p.LSrc, p.ACK[p.LSrc], p.Src
	}
	eng.Flight().Record(int32(eng.ID()), t, uint8(p.Kind), int32(src), uint64(seq), int32(peer), int64(now))
}
