// Package groups is the node's one runtime path: it multiplexes
// independent causally/totally ordered groups — each its own core.Entity
// with its own sequence space, message log and ready queues — over one
// shared transport. A single-group node is the degenerate case of one
// group (group 0) on one shard.
//
// The paper's engine is single-writer by construction: every input to an
// entity must be serialized on one goroutine. Instead of one goroutine
// per group (unbounded) or one for all groups (no parallelism), the
// registry hash-assigns each group to one of a fixed, GOMAXPROCS-sized
// set of shards. Each shard is one goroutine owning every engine mapped
// to it, which preserves the single-writer invariant per group while
// letting independent groups progress in parallel across shards.
//
// Engines are lazy: the first send or receive naming a group
// instantiates it, up to MaxGroups; past the bound (or after close)
// inbound frames are dropped and counted as unknown-group loss — the
// protocol treats that exactly like transport loss, so a late joiner or
// a confused peer can never crash the runtime.
//
// Each shard also owns a Frames adapter — the link-layer seam supplied
// by the embedding runtime — and flushes it once per input burst
// (flush-on-loop-idle), so everything one burst produces, across groups,
// coalesces into the same staged-batch/sendmmsg path.
package groups

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// DefaultMaxGroups bounds lazily instantiated engines when Config leaves
// MaxGroups unset. Each engine costs O(n) state plus its logs, so the
// bound is a safety valve against a peer (or a fuzzer) minting fresh
// group IDs forever, not a sizing recommendation.
const DefaultMaxGroups = 1024

// ErrClosed is returned by operations on a closed registry.
var ErrClosed = errors.New("groups: closed")

// ErrTooManyGroups is returned when opening a group would exceed the
// MaxGroups bound.
var ErrTooManyGroups = errors.New("groups: too many groups")

// errNoEngine answers a query about a group that has no engine on this
// node: never instantiated, or its construction failed earlier.
var errNoEngine = errors.New("groups: no engine")

// Inbound is one received wire unit addressed to a group, in exactly one
// representation: Raw for substrates that move encoded frames, PDUs for
// substrates that move decoded PDU pointers (the in-memory network). The
// shard's Frames adapter interprets its own inbounds.
type Inbound struct {
	Raw  []byte
	PDUs []*pdu.PDU
}

// Frames is a shard's attachment to the wire. One Frames exists per
// shard and is used only from that shard's goroutine, so implementations
// need no locking of their own (the transport underneath must accept
// concurrent sends, as the UDP transport does).
//
// Append stages p on group g's in-progress frame for the next Flush (it
// may send earlier to respect substrate limits); Deliver decodes one
// inbound for group g and hands each PDU to fn in order under the entity
// Receive contract (sequenced PDUs owned by the callee, unsequenced ones
// may be scratch), then releases the inbound's resources.
type Frames interface {
	Append(g uint32, p *pdu.PDU)
	Flush()
	Deliver(g uint32, in Inbound, fn func(p *pdu.PDU))
}

// Config assembles a Registry. NewEntity, NewFrames and Deliver are the
// seams to the embedding runtime and must all be set.
type Config struct {
	// Shards is the number of owner goroutines; <= 0 selects
	// GOMAXPROCS.
	Shards int
	// MaxGroups bounds lazily instantiated engines; <= 0 selects
	// DefaultMaxGroups.
	MaxGroups int
	// NewEntity builds group g's protocol engine (including any metrics
	// wiring). It runs on the owning shard goroutine.
	NewEntity func(g uint32) (*core.Entity, error)
	// NewFrames builds shard s's wire adapter; it is owned by that
	// shard's goroutine for the registry's lifetime.
	NewFrames func(shard int) Frames
	// Deliver receives what one engine output delivered on group g — a
	// non-empty batch in causal order — on the owning shard goroutine.
	// The batch is the engine's buffer (core.Output): Deliver must copy
	// the values out before it returns, and hand off quickly (the
	// embedding runtime queues to its consumers).
	Deliver func(g uint32, batch []core.Delivery)
	// DroppedUnknown, if set, is called once per inbound dropped for an
	// unknown-group reason (over the MaxGroups bound, failed engine
	// construction, closed registry).
	DroppedUnknown func()
	// Tick is the protocol tick interval driving timeouts and deferred
	// ACKs for every engine a shard owns.
	Tick time.Duration
	// Now is the shared protocol clock (time since the node started).
	Now func() time.Duration
}

// Registry is the runtime: the lazy group table plus the shard
// goroutines that own the engines. All methods are safe for concurrent
// use.
type Registry struct {
	cfg    Config
	shards []*shard

	mu    sync.Mutex
	known map[uint32]struct{}
	// evicted is every peer Evict has removed; engines built later start
	// with the same quorum as the ones that were running at the time.
	evicted []pdu.EntityID
	closed  bool
}

// New starts a registry with its shard goroutines. The configuration's
// NewEntity, NewFrames, Deliver and Now must be non-nil.
func New(cfg Config) (*Registry, error) {
	if cfg.NewEntity == nil || cfg.NewFrames == nil || cfg.Deliver == nil || cfg.Now == nil {
		return nil, errors.New("groups: incomplete config")
	}
	if cfg.Shards <= 0 {
		// One shard goroutine per schedulable CPU: shards run mailbox
		// loops that park when idle (and tick only once they own an
		// engine), so extra shards on a big machine cost nothing while
		// letting group traffic spread across every core the scheduler
		// can actually use.
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxGroups <= 0 {
		cfg.MaxGroups = DefaultMaxGroups
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	r := &Registry{
		cfg:   cfg,
		known: make(map[uint32]struct{}),
	}
	r.shards = make([]*shard, cfg.Shards)
	for i := range r.shards {
		s := &shard{
			reg:    r,
			in:     make(chan shardMsg, shardInboxCap),
			groups: make(map[uint32]*core.Entity),
			frames: cfg.NewFrames(i),
			stop:   make(chan struct{}),
			done:   make(chan struct{}),
		}
		s.recv = s.receive
		r.shards[i] = s
		go s.loop()
	}
	return r, nil
}

// shardOf hash-assigns group g to its owner shard. Fibonacci hashing
// spreads the sequential and the name-hashed ID populations alike.
func (r *Registry) shardOf(g uint32) *shard {
	h := g * 0x9E3779B1
	return r.shards[h%uint32(len(r.shards))]
}

// Open makes g known (reserving a MaxGroups slot) without yet building
// its engine; the owning shard instantiates lazily on first input.
// Opening an already-known group is a no-op.
func (r *Registry) Open(g uint32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.known[g]; ok {
		return nil
	}
	if len(r.known) >= r.cfg.MaxGroups {
		return fmt.Errorf("%w: %d", ErrTooManyGroups, r.cfg.MaxGroups)
	}
	r.known[g] = struct{}{}
	return nil
}

// Start opens g and builds its engine now instead of at first input,
// returning the construction error — for a group whose configuration
// the caller wants validated before any traffic flows.
func (r *Registry) Start(g uint32) error {
	if err := r.Open(g); err != nil {
		return err
	}
	return r.shardOf(g).ask(context.Background(), func(s *shard) error {
		_, err := s.engine(g)
		return err
	})
}

// Submit broadcasts data on group g, instantiating the group if needed.
// data is retained by the engine, uncopied (callers pass an owned copy).
// It blocks only while the owning shard's inbox is full (backpressure),
// returning ctx.Err() if ctx ends first.
func (r *Registry) Submit(ctx context.Context, g uint32, data []byte) error {
	if err := r.Open(g); err != nil {
		return err
	}
	return r.shardOf(g).send(ctx, shardMsg{kind: msgSubmit, group: g, data: data})
}

// Inbound routes one received wire unit to group g's owner shard,
// instantiating the group on first receive. Frames for groups past the
// MaxGroups bound — or arriving after close — are dropped and counted
// via DroppedUnknown: unknown-group loss, repaired (or not) like any
// other transport loss, never a crash.
func (r *Registry) Inbound(g uint32, in Inbound) {
	err := r.Open(g)
	if err == nil {
		err = r.shardOf(g).send(context.Background(), shardMsg{kind: msgInbound, group: g, in: in})
	}
	if err != nil {
		r.dropUnknown(in)
	}
}

func (r *Registry) dropUnknown(in Inbound) {
	if in.Raw != nil {
		pdu.PutDatagram(in.Raw)
	}
	if r.cfg.DroppedUnknown != nil {
		r.cfg.DroppedUnknown()
	}
}

// Evict removes peer k from the confirmation quorum of every
// instantiated engine on every shard, and of every engine built
// afterwards: a crashed peer stalls each group it is a member of, and it
// is a member of all of them. It returns the engines' validation error
// (self-evict, out-of-range ID), in which case nothing is remembered.
func (r *Registry) Evict(k pdu.EntityID) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	// Remember before fanning out, so an engine built concurrently either
	// starts without k or is there when its shard handles the message.
	r.evicted = append(r.evicted, k)
	r.mu.Unlock()
	var first error
	for _, s := range r.shards {
		err := s.ask(context.Background(), func(s *shard) error { return s.evict(k) })
		if first == nil {
			first = err
		}
	}
	if first != nil {
		r.mu.Lock()
		for i, e := range r.evicted {
			if e == k {
				r.evicted = append(r.evicted[:i], r.evicted[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
	}
	return first
}

// GroupCount reports how many groups are known.
func (r *Registry) GroupCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.known)
}

// scrapeTimeout bounds how long a scraper waits for a busy shard to
// accept its request; a scrape that misses simply reports absence rather
// than stalling the endpoint.
const scrapeTimeout = 100 * time.Millisecond

// query runs read on group g's engine between inputs on the owning
// shard; ok is false if the group has no engine. With scrape set it also
// gives up (ok false) when the shard stays busy past scrapeTimeout. Once
// the registry is closed the engines are frozen and are read directly.
func (r *Registry) query(g uint32, scrape bool, read func(eng *core.Entity, now time.Duration)) bool {
	ctx := context.Background()
	if scrape {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, scrapeTimeout)
		defer cancel()
	}
	s := r.shardOf(g)
	q := func(s *shard) error {
		eng := s.groups[g]
		if eng == nil {
			return errNoEngine
		}
		read(eng, r.cfg.Now())
		return nil
	}
	err := s.ask(ctx, q)
	if errors.Is(err, ErrClosed) {
		<-s.done // the owner goroutine is gone: nothing mutates its engines
		err = q(s)
	}
	return err == nil
}

// Stats returns group g's protocol counters; ok is false if the group
// has no engine.
func (r *Registry) Stats(g uint32) (st core.Stats, ok bool) {
	ok = r.query(g, false, func(eng *core.Entity, _ time.Duration) { st = eng.Stats() })
	return st, ok
}

// SnapshotInto fills dst with group g's live protocol state. ok is false
// if the group has no engine or its shard stayed busy past an internal
// timeout; dst is then untouched.
func (r *Registry) SnapshotInto(g uint32, dst *obsv.StateSnapshot) bool {
	return r.query(g, true, func(eng *core.Entity, _ time.Duration) { eng.SnapshotInto(dst) })
}

// Stalls fills dst with group g's stall-analyzer verdicts; ok as for
// SnapshotInto.
func (r *Registry) Stalls(g uint32, dst *[]obsv.Stall) bool {
	return r.query(g, true, func(eng *core.Entity, now time.Duration) { *dst = eng.Stalls(now, 0) })
}

// errBusy is a shard's answer to "are you quiescent?" when it is not.
var errBusy = errors.New("groups: not quiescent")

// Quiescent reports whether every instantiated engine on every shard
// owes the cluster nothing. It blocks until each shard answers between
// inputs, and is false once the registry is closing.
func (r *Registry) Quiescent() bool {
	for _, s := range r.shards {
		err := s.ask(context.Background(), func(s *shard) error {
			for _, eng := range s.groups {
				if eng != nil && !eng.Quiescent() {
					return errBusy
				}
			}
			return nil
		})
		if err != nil {
			return false
		}
	}
	return true
}

// Close stops every shard goroutine. Pending inputs may be dropped —
// indistinguishable from loss. It is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, s := range r.shards {
		close(s.stop)
	}
	for _, s := range r.shards {
		<-s.done
	}
}

// shardInboxCap is each shard's input queue depth. Full inboxes apply
// backpressure to submitters and to the inbound router (which in turn
// slows the transport — the receive socket buffer absorbs bursts).
const shardInboxCap = 256

const (
	msgSubmit = iota
	msgInbound
	msgQuery
)

// shardMsg is one shard input. Submissions and inbounds, the hot kinds,
// travel as plain fields; everything else (introspection, eviction,
// eager start) is a query: a function run on the shard goroutine between
// inputs, whose result goes to reply.
type shardMsg struct {
	kind  int
	group uint32
	data  []byte
	in    Inbound
	query func(s *shard) error
	reply chan error
}

// shard is one owner goroutine and the engines hash-assigned to it.
// Only the shard goroutine touches groups, its engines or its Frames —
// the single-writer invariant, per group, by construction.
type shard struct {
	reg *Registry
	in  chan shardMsg
	// groups maps group ID -> engine; a nil engine is a tombstone for a
	// group whose construction failed (inputs drop as unknown-group loss
	// instead of retrying construction per datagram).
	groups map[uint32]*core.Entity
	frames Frames
	// ticker drives Tick for the shard's engines; it starts with the
	// first engine, so a shard that owns none never wakes.
	ticker *time.Ticker
	tickC  <-chan time.Time
	// cur and curGroup name the engine an inbound is being delivered to;
	// recv is s.receive bound once, so Deliver takes no per-datagram
	// closure.
	cur      *core.Entity
	curGroup uint32
	recv     func(p *pdu.PDU)
	stop     chan struct{}
	done     chan struct{}
}

// send enqueues m, blocking while the inbox is full; it fails once the
// registry is closing or ctx ends.
func (s *shard) send(ctx context.Context, m shardMsg) error {
	select {
	case <-s.stop:
		return ErrClosed
	default:
	}
	select {
	case s.in <- m:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stop:
		return ErrClosed
	}
}

// ask runs q on the shard goroutine between inputs and returns its
// result; ctx bounds only the wait for the shard to accept the request.
func (s *shard) ask(ctx context.Context, q func(s *shard) error) error {
	reply := make(chan error, 1)
	if err := s.send(ctx, shardMsg{kind: msgQuery, query: q, reply: reply}); err != nil {
		return err
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return ErrClosed
	}
}

// loop is the shard's owner goroutine, and the runtime's one event loop:
// block for one input, drain whatever else is pending without blocking,
// then flush — so the PDUs every engine produced for one burst ride out
// together, across groups, in one staged-batch send.
func (s *shard) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			s.shutdown()
			return
		case m := <-s.in:
			s.handle(m)
		case <-s.tickC:
			s.tickAll()
		}
		for drained := false; !drained; {
			select {
			case <-s.stop:
				s.shutdown()
				return
			case m := <-s.in:
				s.handle(m)
			case <-s.tickC:
				s.tickAll()
			default:
				drained = true
			}
		}
		s.frames.Flush()
	}
}

// shutdown stops the ticker and releases what is queued behind the stop
// signal, so pooled datagram buffers are not leaked at close and no
// asker waits for a reply that will never come.
func (s *shard) shutdown() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
	for {
		select {
		case m := <-s.in:
			if m.in.Raw != nil {
				pdu.PutDatagram(m.in.Raw)
			}
			if m.reply != nil {
				m.reply <- ErrClosed
			}
		default:
			return
		}
	}
}

func (s *shard) handle(m shardMsg) {
	switch m.kind {
	case msgSubmit:
		if eng, _ := s.engine(m.group); eng != nil {
			s.dispatch(m.group, eng, eng.SubmitOwned(m.data, s.reg.cfg.Now()))
		}
	case msgInbound:
		eng, _ := s.engine(m.group)
		if eng == nil {
			s.reg.dropUnknown(m.in)
			return
		}
		s.cur, s.curGroup = eng, m.group
		s.frames.Deliver(m.group, m.in, s.recv)
	case msgQuery:
		m.reply <- m.query(s)
	}
}

// receive feeds one decoded PDU to the engine an inbound is addressed to.
func (s *shard) receive(p *pdu.PDU) {
	now := s.reg.cfg.Now()
	recordWire(s.cur.Flight(), flight.EvWireIn, p, now)
	// Receive errors mark malformed or foreign PDUs; the engine counts
	// them in InvalidPDUs and the protocol carries on.
	out, _ := s.cur.Receive(p, now)
	s.dispatch(s.curGroup, s.cur, out)
}

// engine returns group g's engine, instantiating it on first use. A
// failed construction is tombstoned so later inputs drop cheaply.
func (s *shard) engine(g uint32) (*core.Entity, error) {
	if eng, ok := s.groups[g]; ok {
		if eng == nil {
			return nil, errNoEngine
		}
		return eng, nil
	}
	eng, err := s.reg.cfg.NewEntity(g)
	if err != nil {
		s.groups[g] = nil
		return nil, err
	}
	s.groups[g] = eng
	if s.ticker == nil {
		s.ticker = time.NewTicker(s.reg.cfg.Tick)
		s.tickC = s.ticker.C
	}
	s.reg.mu.Lock()
	evicted := append([]pdu.EntityID(nil), s.reg.evicted...)
	s.reg.mu.Unlock()
	for _, k := range evicted {
		// Evict validated k against an identically configured engine.
		out, _ := eng.Evict(k, s.reg.cfg.Now())
		s.dispatch(g, eng, out)
	}
	return eng, nil
}

// evict removes peer k from every engine the shard owns, returning the
// first validation error.
func (s *shard) evict(k pdu.EntityID) error {
	var first error
	for g, eng := range s.groups {
		if eng == nil {
			continue
		}
		out, err := eng.Evict(k, s.reg.cfg.Now())
		if first == nil {
			first = err
		}
		s.dispatch(g, eng, out)
	}
	return first
}

func (s *shard) tickAll() {
	now := s.reg.cfg.Now()
	for g, eng := range s.groups {
		if eng != nil {
			s.dispatch(g, eng, eng.Tick(now))
		}
	}
}

// dispatch stages an engine's output PDUs on the shard's frames (sent at
// the next flush) and hands its deliveries to the embedding runtime, one
// call per output — before the engine's next input reuses their buffer.
func (s *shard) dispatch(g uint32, eng *core.Entity, out core.Output) {
	if ring := eng.Flight(); ring != nil && len(out.PDUs) > 0 {
		now := s.reg.cfg.Now()
		for _, p := range out.PDUs {
			recordWire(ring, flight.EvWireOut, p, now)
		}
	}
	for _, p := range out.PDUs {
		s.frames.Append(g, p)
	}
	if len(out.Deliveries) > 0 {
		s.reg.cfg.Deliver(g, out.Deliveries)
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
