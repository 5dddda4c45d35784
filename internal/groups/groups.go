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
// set of shards. Each shard owns every engine mapped to it, which
// preserves the single-writer invariant per group while letting
// independent groups progress in parallel across shards.
//
// Engines are lazy: the first send or receive naming a group
// instantiates it, up to MaxGroups; past the bound (or after close)
// inbound frames are dropped and counted as unknown-group loss — the
// protocol treats that exactly like transport loss, so a late joiner or
// a confused peer can never crash the runtime. Submit admits producers
// against the group's memory ledger.
//
// Each shard also owns a Frames adapter (frames.go: memFrames for the
// in-memory network, wireFrames for a byte transport) and flushes it once
// per input burst (flush-on-loop-idle), so everything one burst produces,
// across groups, coalesces into the same staged-batch/sendmmsg path.
//
// A shard's work is one step: take and handle its queued inputs, then
// flush. New runs a goroutine per shard that steps it; under NewStepped
// every input steps its shard as it is queued, on the caller's goroutine
// — internal/simrun's, once per simulated event, so the chaos sweeps run
// the registry, admission and step that ship.
package groups

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
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

// ErrOverBudget is returned by Submit in shed mode when the group's
// memory budget is exhausted; nothing was queued.
var ErrOverBudget = errors.New("groups: memory budget exhausted")

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
// shard and is used only by whoever steps that shard, so implementations
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

// Config assembles a Registry. NewEntity, NewFrames, Deliver and Now are
// the seams to the embedding runtime and must all be set.
type Config struct {
	// Shards is the number of shards; <= 0 selects GOMAXPROCS.
	Shards int
	// MaxGroups bounds lazily instantiated engines; <= 0 selects
	// DefaultMaxGroups.
	MaxGroups int
	// MemBudgetBytes > 0 gives every open group a memory ledger with that
	// byte budget, written by the group's engine: Submit waits while it is
	// exhausted or, with Shed, fails with ErrOverBudget.
	MemBudgetBytes int64
	Shed           bool
	// NewEntity builds group g's protocol engine (including any metrics
	// wiring) around its ledger, nil without a budget, on its shard.
	NewEntity func(g uint32, ledger *core.Ledger) (*core.Entity, error)
	// NewFrames builds shard s's wire adapter; it is owned by that
	// shard for the registry's lifetime.
	NewFrames func(shard int) Frames
	// Deliver receives what one engine output delivered on group g — a
	// non-empty batch in causal order — on the owning shard. The batch is
	// the engine's buffer (core.Output): Deliver must copy the values out
	// before it returns, and hand off quickly (the embedding runtime
	// queues to its consumers).
	Deliver func(g uint32, batch []core.Delivery)
	// DroppedUnknown, if set, is called once per inbound dropped for an
	// unknown-group reason (over the MaxGroups bound, failed engine
	// construction, closed registry).
	DroppedUnknown func()
	// Tick is the protocol tick interval driving timeouts and deferred
	// ACKs for every engine a shard goroutine owns.
	Tick time.Duration
	// Now is the shared protocol clock (time since the node started).
	Now func() time.Duration
}

// Registry is the runtime: the lazy group table plus the shards that own
// the engines. On a registry from New all methods are safe for
// concurrent use.
type Registry struct {
	cfg    Config
	shards []*shard

	// known maps every open group to its entry. A published map is never
	// written, so Open's check reads it without a lock; mu serializes
	// inserts, which publish a copy, and Close.
	known  atomic.Pointer[map[uint32]*entry]
	closed atomic.Bool
	mu     sync.Mutex
	// stop closes with the registry, releasing every waiting sender.
	stop chan struct{}
}

// entry is what producers read of an open group without asking its
// shard: the ledger (nil without a budget), and the engine once the
// shard has built it, of which they read only the fixed ID and ring.
type entry struct {
	ledger *core.Ledger
	eng    atomic.Pointer[core.Entity]
}

// New starts a registry with one goroutine per shard, each stepping its
// shard whenever inputs wait or its ticker fires.
func New(cfg Config) *Registry { return build(cfg, true) }

// NewStepped builds a registry that runs no goroutine and reads no wall
// clock: its one caller is its driver. Every input it queues (Submit,
// Inbound, a query) steps the owning shard before returning, and Tick,
// called once per tick interval, ticks and steps every shard. A producer
// cannot wait for a stepped engine to drain, so a budget always sheds.
func NewStepped(cfg Config) *Registry {
	cfg.Shed = true
	return build(cfg, false)
}

// build assembles a registry and its shards. A nil NewEntity,
// NewFrames, Deliver or Now is a programming error.
func build(cfg Config, goroutines bool) *Registry {
	if cfg.NewEntity == nil || cfg.NewFrames == nil || cfg.Deliver == nil || cfg.Now == nil {
		panic("groups: incomplete config")
	}
	if cfg.Shards <= 0 {
		// One shard per schedulable CPU: shard goroutines park when idle
		// (and tick only once they own an engine), so extra shards on a
		// big machine cost nothing while letting group traffic spread
		// across every core the scheduler can actually use.
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxGroups <= 0 {
		cfg.MaxGroups = DefaultMaxGroups
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	r := &Registry{cfg: cfg, stop: make(chan struct{})}
	r.known.Store(&map[uint32]*entry{})
	r.shards = make([]*shard, cfg.Shards)
	for i := range r.shards {
		s := &shard{r: r, frames: cfg.NewFrames(i), index: make(map[uint32]*core.Entity)}
		s.recv = s.receive
		r.shards[i] = s
		if goroutines {
			s.in.wake = make(chan struct{}, 1)
			s.done = make(chan struct{})
			go s.loop()
		}
	}
	return r
}

// Tick drives every engine's timers and flushes, shard by shard: the
// ticker of a registry from NewStepped, called by its driver.
func (r *Registry) Tick() {
	for _, s := range r.shards {
		s.tick()
		s.step()
	}
}

// shardOf hash-assigns group g to its owner shard. Fibonacci hashing
// spreads the sequential and the name-hashed ID populations alike.
func (r *Registry) shardOf(g uint32) *shard {
	h := g * 0x9E3779B1
	return r.shards[h%uint32(len(r.shards))]
}

// Open makes g known (reserving a MaxGroups slot and building its
// ledger) without yet building its engine; the owning shard instantiates
// lazily on first input. Opening an already-known group is a no-op.
func (r *Registry) Open(g uint32) error {
	_, err := r.open(g)
	return err
}

func (r *Registry) open(g uint32) (*entry, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if e, ok := (*r.known.Load())[g]; ok {
		return e, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	known := *r.known.Load()
	if e, ok := known[g]; ok {
		return e, nil
	}
	if len(known) >= r.cfg.MaxGroups {
		return nil, fmt.Errorf("%w: %d", ErrTooManyGroups, r.cfg.MaxGroups)
	}
	e := &entry{}
	if r.cfg.MemBudgetBytes > 0 {
		e.ledger = core.NewLedger(r.cfg.MemBudgetBytes)
	}
	next := maps.Clone(known)
	next[g] = e
	r.known.Store(&next)
	return e, nil
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
// It admits the producer before queueing anything (admit), so a shed or
// cancelled submission leaves no trace in protocol state, then blocks
// only while the owning shard's inbox is full, returning ctx.Err() if
// ctx ends first.
func (r *Registry) Submit(ctx context.Context, g uint32, data []byte) error {
	e, err := r.open(g)
	if err == nil && e.ledger != nil && e.ledger.OverBudget() {
		err = r.admit(ctx, e)
	}
	if err == nil {
		_, err = r.shardOf(g).send(ctx, shardMsg{kind: msgSubmit, group: g, data: data}, wait)
	}
	return err
}

// admit is producer-side backpressure at group e's exhausted budget:
// shed mode fails fast with ErrOverBudget; otherwise it waits on the
// ledger gate until the engine drains below budget, ctx ends or the
// registry closes. Either outcome is recorded in the group's flight
// ring, once its engine exists.
func (r *Registry) admit(ctx context.Context, e *entry) error {
	l, ev := e.ledger, flight.EvBlock
	if r.cfg.Shed {
		ev = flight.EvShed
	}
	if eng := e.eng.Load(); eng != nil {
		id := int32(eng.ID())
		eng.Flight().Record(id, ev, 0, id, 0, int32(pdu.NoEntity), int64(r.cfg.Now()))
	}
	if r.cfg.Shed {
		l.NoteShed()
		return ErrOverBudget
	}
	l.NoteBlock()
	for {
		gate := l.Gate()
		// Re-check after grabbing the gate: the engine may have drained
		// (and swapped gates) between the check and the grab.
		if !l.OverBudget() {
			return nil
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		case <-r.stop:
			return ErrClosed
		}
	}
}

// Inbound routes one received wire unit to group g's owner shard,
// instantiating the group on first receive, and waits while that
// shard's inbox is full. Frames for groups past the MaxGroups bound — or
// arriving after close — are dropped and counted via DroppedUnknown:
// unknown-group loss, repaired (or not) like any other transport loss,
// never a crash.
func (r *Registry) Inbound(g uint32, in Inbound) { r.route(g, in, wait) }

// Offer is Inbound for a caller that must not block (the in-memory
// network, from a sender's broadcast or its delivery goroutine): it
// queues in on group g's owner shard only while fewer than limit offered
// inbounds wait there, and otherwise refuses it, returning false — a
// full receive buffer, the paper's overrun loss; the caller keeps in.
// Unknown-group and after-close drops are as for Inbound, and return
// true: the inbound was taken.
func (r *Registry) Offer(g uint32, in Inbound, limit int) bool {
	return r.route(g, in, max(limit, 0))
}

// route queues in on g's shard with send's limit, or drops it.
func (r *Registry) route(g uint32, in Inbound, limit int) bool {
	err := r.Open(g)
	if err == nil {
		var ok bool
		if ok, err = r.shardOf(g).send(context.Background(), shardMsg{kind: msgInbound, group: g, in: in}, limit); err == nil {
			return ok
		}
	}
	r.cfg.dropUnknown(in)
	return true
}

// dropUnknown releases an inbound dropped for an unknown-group reason and
// counts it.
func (c *Config) dropUnknown(in Inbound) {
	if in.Raw != nil {
		putDatagram(in.Raw)
	}
	if c.DroppedUnknown != nil {
		c.DroppedUnknown()
	}
}

// Evict removes peer k from the confirmation quorum of every
// instantiated engine on every shard, and of every engine built
// afterwards: a crashed peer stalls each group it is a member of, and it
// is a member of all of them. It returns the engines' validation error
// (self-evict, out-of-range ID) or ErrClosed; a shard whose engines
// reject k does not remember it (shard.evict).
func (r *Registry) Evict(k pdu.EntityID) error {
	var first error
	for _, s := range r.shards {
		err := s.ask(context.Background(), func(s *shard) error { return s.evict(k) })
		if first == nil {
			first = err
		}
	}
	return first
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
		eng := s.index[g]
		if eng == nil {
			return errNoEngine
		}
		read(eng, r.cfg.Now())
		return nil
	}
	err := s.ask(ctx, q)
	if errors.Is(err, ErrClosed) {
		if s.done != nil {
			<-s.done // the owner goroutine is gone: nothing mutates its engines
		}
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
			for _, e := range s.engines {
				if !e.eng.Quiescent() {
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

// Close stops every shard, and waits for their goroutines. Pending
// inputs may be dropped — indistinguishable from loss. It is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	closed := r.closed.Swap(true)
	r.mu.Unlock()
	if closed {
		return
	}
	close(r.stop)
	for _, s := range r.shards {
		if s.done == nil {
			s.shutdown()
		} else {
			<-s.done
		}
	}
}

// shardInboxCap bounds each shard's queued inputs for senders that wait
// (Submit, Inbound, ask). Full inboxes apply backpressure to submitters
// and to the wire router (which in turn slows the transport — the
// receive socket buffer absorbs bursts). Offered inbounds count towards
// it but are bounded by their own limit, and never wait.
const shardInboxCap = 256

// putDatagram returns a pooled datagram buffer the runtime drops instead
// of delivering; a variable so tests can count the returns.
var putDatagram = pdu.PutDatagram

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

// inbox is a shard's bounded FIFO of inputs. Senders append under mu and
// wake the loop only when the queue turns non-empty; the loop takes the
// whole queue per swap, trading it for its previous batch, zeroed. A
// burst of inputs thus costs each side one lock per batch (DESIGN.md
// §2d).
type inbox struct {
	mu     sync.Mutex
	queue  []shardMsg
	closed bool
	// offered counts the queued inputs that came by offer: the node's
	// receive buffer, emptied when the loop takes a batch.
	offered int
	// wake holds a token while inputs may wait to be taken. gate, made by
	// the first sender that finds the queue full, closes when the loop
	// next takes a batch, releasing every sender waiting on it.
	wake chan struct{}
	gate chan struct{}
}

// wait is send's limit for a sender that waits while the inbox is full.
const wait = -1

// send enqueues m. A sender whose limit is wait blocks while the inbox
// is full, failing if ctx ends; any other never waits, and is refused
// (ok false) while limit offered inputs wait. Either fails once the
// registry is closing. m ending an empty queue wakes the loop, which
// blocks only on an empty queue; a stepped shard has no loop, and takes
// m now.
func (s *shard) send(ctx context.Context, m shardMsg, limit int) (ok bool, err error) {
	q := &s.in
	q.mu.Lock()
	for limit == wait && len(q.queue) >= shardInboxCap && !q.closed {
		if q.gate == nil {
			q.gate = make(chan struct{})
		}
		gate := q.gate
		q.mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return false, ctx.Err()
		case <-s.r.stop:
			return false, ErrClosed
		}
		q.mu.Lock()
	}
	switch {
	case q.closed:
		q.mu.Unlock()
		return false, ErrClosed
	case limit != wait && q.offered >= limit:
		q.mu.Unlock()
		return false, nil
	case limit != wait:
		q.offered++
	}
	q.queue = append(q.queue, m)
	first := len(q.queue) == 1
	q.mu.Unlock()
	switch {
	case s.done == nil:
		s.step()
	case first:
		select {
		case q.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
	return true, nil
}

// take swaps every queued input out against spare — the caller's
// previous batch, zeroed, or nil — and releases the senders waiting for
// room. An empty queue is left alone and spare handed back (ok false):
// swapping it would leave queue and spare on one array, so senders would
// overwrite the next batch while the loop still handles it.
func (q *inbox) take(spare []shardMsg) (batch []shardMsg, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) == 0 {
		return spare, false
	}
	batch, q.queue = q.queue, spare[:0]
	q.offered = 0
	if q.gate != nil {
		close(q.gate)
		q.gate = nil
	}
	return batch, true
}

// close refuses every later input and returns the queued ones.
func (q *inbox) close() []shardMsg {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	rest := q.queue
	q.queue = nil
	return rest
}

// ask runs q on the shard between inputs and returns its result; ctx
// bounds only the wait for the shard to accept the request.
func (s *shard) ask(ctx context.Context, q func(s *shard) error) error {
	reply := make(chan error, 1)
	if _, err := s.send(ctx, shardMsg{kind: msgQuery, query: q, reply: reply}, wait); err != nil {
		return err
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return ErrClosed
	}
}

// loop is a shard's owner goroutine under New: it waits for inputs, a
// tick or stop, and steps the shard.
func (s *shard) loop() {
	defer close(s.done)
	defer s.shutdown()
	for {
		select {
		case <-s.r.stop:
			return
		case <-s.in.wake:
		case <-s.tickC:
			s.tick()
		}
		if !s.step() {
			return
		}
	}
}

// step is the runtime's one event loop body, whichever driver calls it:
// take and handle queued batches until the inbox is empty (polling stop
// and the ticker between batches), then flush — so the PDUs every engine
// produced for one burst ride out together, across groups, in one
// staged-batch send. It returns false, unflushed, once stop has closed.
func (s *shard) step() bool {
	for {
		var ok bool
		if s.batch, ok = s.in.take(s.batch); !ok {
			break
		}
		for i := range s.batch {
			s.handle(&s.batch[i])
		}
		// The batch becomes the next spare: drop its references to
		// data, datagrams and replies now.
		clear(s.batch)
		// Two one-case polls, not one select: each checks its idle
		// channel without taking the channel's lock.
		select {
		case <-s.r.stop:
			return false
		default:
		}
		select {
		case <-s.tickC:
			s.tick()
		default:
		}
	}
	s.frames.Flush()
	return true
}

// shutdown stops the ticker, closes the inbox and releases what is
// queued in it, so pooled datagram buffers are not leaked at close and
// no asker waits for a reply that will never come.
func (s *shard) shutdown() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
	for _, m := range s.in.close() {
		if m.in.Raw != nil {
			putDatagram(m.in.Raw)
		}
		if m.reply != nil {
			m.reply <- ErrClosed
		}
	}
}
