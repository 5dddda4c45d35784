package cobcast

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
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// Transport moves encoded datagrams between nodes. Each datagram is one
// batch frame (see internal/pdu: a versioned header followed by a
// length-prefixed sequence of PDU encodings); the node's link layer
// encodes and decodes frames, so a Transport only moves opaque byte
// slices. Broadcast must deliver (best-effort) to every other cluster
// member; the protocol tolerates loss, duplication and cross-sender
// reordering, but each pairwise channel must preserve per-sender
// datagram order (UDP on a LAN and in-memory channels both qualify) —
// combined with the frame's in-order PDU layout this yields the MC
// service's per-sender PDU order within and across batches. Broadcast
// must not retain the datagram after returning: the node reuses the
// frame buffer for the next send. Recv's channel is closed when the
// transport closes; slices it delivers become owned by the node, which
// recycles pool-backed ones via pdu.PutDatagram after decoding.
type Transport interface {
	Broadcast(datagram []byte) error
	Recv() <-chan []byte
	Close() error
}

// BatchTransport is an optional Transport extension for substrates that
// can move several datagrams in one operation. When a flush has staged
// more than one frame, the node's link layer hands the whole set to
// BroadcastBatch instead of looping over Broadcast — the UDP transport's
// sendmmsg path turns that into a single syscall. BroadcastBatch must
// transmit the datagrams in slice order toward every peer (preserving
// the per-sender datagram order the MC service contract requires) and,
// like Broadcast, must not retain any slice after returning.
type BatchTransport interface {
	Transport
	BroadcastBatch(datagrams [][]byte) error
}

// ErrClosed is returned by operations on a closed node or cluster.
var ErrClosed = errors.New("cobcast: closed")

// ErrOverBudget is returned by Broadcast in BackpressureShed mode when
// the memory budget (WithMemoryBudget) is exhausted. The submission was
// not sequenced; the caller may retry once the logs drain.
var ErrOverBudget = errors.New("cobcast: memory budget exhausted")

// Node is one cluster member. Create nodes with NewCluster (in-process)
// or NewNode (custom transport). A node is a façade over its runtime
// (internal/groups): every ordered group it speaks on — the default
// group included, as group 0 — is an engine owned by one of the
// runtime's shard goroutines, and the node's own Broadcast, Deliveries,
// Stats and snapshots are group 0's.
type Node struct {
	id int
	n  int
	// o is what every group's engine is built from (see newEntity).
	o options
	// lm counts frame flushes and receive-side drops for the whole node,
	// across groups and shards; nil without WithObservability.
	lm *obsv.LinkMetrics
	// flight is group 0's flight recorder (nil when disabled), set when
	// its engine is built. Producers on any port record backpressure
	// block/shed into it.
	flight *flight.Ring

	rt   *groups.Registry
	main *GroupPort // group 0's port

	groupsMu         sync.Mutex
	groupPorts       map[GroupID]*GroupPort
	groupMetricsUsed int

	start time.Time
	tick  time.Duration

	sub      substrate
	stop     chan struct{}
	stopOnce sync.Once
	// router counts the wire router goroutine; a node on the in-memory
	// network has none.
	router    sync.WaitGroup
	closeOnce sync.Once
}

// NewNode creates a standalone node that exchanges PDUs through the given
// transport. id must be unique within the cluster and n is the total
// cluster size; all nodes must agree on n and the options.
func NewNode(id, n int, trans Transport, opts ...Option) (*Node, error) {
	if trans == nil {
		return nil, errors.New("cobcast: nil transport")
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	nd, err := newNode(id, n, o, wireSubstrate(trans))
	if err != nil {
		return nil, err
	}
	if o.registry != nil {
		// A transport that exposes live counters (UDPTransport does)
		// publishes them alongside the node's metrics; one that also
		// reports its wire-path configuration (batched syscalls, socket
		// buffer sizes) gets that attached for /statez.
		if tm, ok := trans.(interface{ Metrics() *obsv.TransportMetrics }); ok {
			lbl := o.registry.RegisterTransport(strconv.Itoa(id), tm.Metrics())
			if ts, ok := trans.(interface{ State() obsv.TransportState }); ok {
				o.registry.SetTransportState(lbl, ts.State())
			}
		}
	}
	return nd, nil
}

// newNode assembles a node over its substrate: it starts the runtime,
// attaches the substrate's receive side to it and builds group 0's
// engine (so an invalid configuration fails here, not at the first
// broadcast).
func newNode(id, n int, o options, sub substrate) (*Node, error) {
	nd := &Node{
		id:    id,
		n:     n,
		o:     o,
		start: time.Now(),
		tick:  o.tick(),
		sub:   sub,
		stop:  make(chan struct{}),
	}
	if o.registry != nil {
		nd.lm = obsv.NewLinkMetrics()
	}
	rt, err := groups.New(groups.Config{
		Shards: o.groupShards,
		// Group 0 is always open; its slot is not one of the caller's.
		MaxGroups:      MaxGroups + 1,
		NewEntity:      nd.newEntity,
		NewFrames:      func(int) groups.Frames { return sub.newFrames(nd.lm) },
		Deliver:        nd.deliverGroup,
		DroppedUnknown: nd.lm.UnknownGroup,
		Tick:           nd.tick,
		Now:            nd.now,
	})
	if err != nil {
		// The config is complete by construction; an error here is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("cobcast: group runtime: %v", err))
	}
	nd.rt = rt
	nd.main = nd.Group(DefaultGroup)
	err = sub.attach(nd)
	if err == nil {
		err = rt.Start(uint32(DefaultGroup))
	}
	if err != nil {
		_ = nd.Close()
		return nil, err
	}
	return nd, nil
}

// ID returns the node's cluster-unique identifier.
func (nd *Node) ID() int { return nd.id }

// Broadcast submits data for causally ordered broadcast to the whole
// cluster (including this node: the message comes back on Deliveries once
// it is fully acknowledged). The data is copied. With WithMemoryBudget in
// BackpressureBlock mode it blocks while the budget is exhausted; use
// BroadcastContext for a cancellable wait.
func (nd *Node) Broadcast(data []byte) error {
	return nd.main.BroadcastContext(context.Background(), data)
}

// BroadcastContext is Broadcast bounded by a context: cancellation
// unblocks a producer waiting on the memory budget or on the submit
// queue and returns ctx.Err(). In BackpressureShed mode an exhausted
// budget instead fails immediately with ErrOverBudget. The admission
// check happens before anything is sequenced, so a cancelled or shed
// broadcast leaves no trace in protocol state.
func (nd *Node) BroadcastContext(ctx context.Context, data []byte) error {
	return nd.main.BroadcastContext(ctx, data)
}

// admit applies producer-side backpressure against a memory ledger: nil
// or under-budget admits immediately; otherwise shed mode fails fast and
// block mode waits on the ledger gate until the engine drains below
// budget, the context cancels, or the node closes.
func (nd *Node) admit(ctx context.Context, l *core.Ledger) error {
	if l == nil || !l.OverBudget() {
		return nil
	}
	if nd.o.backpressure == BackpressureShed {
		l.NoteShed()
		nd.flight.Record(int32(nd.id), flight.EvShed, 0, int32(nd.id), 0, int32(pdu.NoEntity), int64(nd.now()))
		return ErrOverBudget
	}
	l.NoteBlock()
	nd.flight.Record(int32(nd.id), flight.EvBlock, 0, int32(nd.id), 0, int32(pdu.NoEntity), int64(nd.now()))
	for {
		g := l.Gate()
		// Re-check after grabbing the gate: the engine may have drained
		// (and swapped gates) between the check and the grab.
		if !l.OverBudget() {
			return nil
		}
		select {
		case <-g:
		case <-ctx.Done():
			return ctx.Err()
		case <-nd.stop:
			return ErrClosed
		}
	}
}

// Deliveries returns the stream of causally ordered messages. The channel
// is closed by Close. Consumers should drain it promptly; undelivered
// messages are buffered without bound.
func (nd *Node) Deliveries() <-chan Message { return nd.main.deliver }

// Evict removes a crashed or unreachable node from this node's
// confirmation quorum — in every group, those instantiated later
// included — so acknowledgment progress no longer waits for it. Every
// surviving node must evict the same member. See DESIGN.md for the
// extension's guarantees and limitations (no virtual synchrony, no
// rejoin); WithSuspectTimeout automates the decision.
func (nd *Node) Evict(id int) error {
	if nd.stopped() {
		return ErrClosed
	}
	return nd.runtimeErr(DefaultGroup, nd.rt.Evict(pdu.EntityID(id)))
}

// WaitIdle blocks until this node owes the cluster nothing — every
// message it submitted or accepted, on any group, has been fully
// acknowledged and delivered — or the timeout passes. It is a local
// view: other nodes may still be catching up. Useful to flush before
// shutdown.
func (nd *Node) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if nd.stopped() {
			return ErrClosed
		}
		if nd.rt.Quiescent() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cobcast: node %d not idle after %v", nd.id, timeout)
		}
		time.Sleep(nd.tick / 2)
	}
}

// Stats returns a snapshot of the node's default-group protocol
// counters. It stays readable after Close.
func (nd *Node) Stats() Stats {
	s, _ := nd.main.Stats()
	return s
}

// Stalls returns the stall-analyzer verdicts for every undelivered
// default-group message this node is holding: the pipeline stage, the
// unmet flow-condition term, and the peers whose confirmations are
// missing. Empty when nothing is stuck. ok is false if the owning shard
// stayed busy past the scrape timeout. /statez includes the report on
// every scrape.
func (nd *Node) Stalls() ([]obsv.Stall, bool) {
	var sts []obsv.Stall
	ok := nd.rt.Stalls(uint32(DefaultGroup), &sts)
	return sts, ok
}

// StateSnapshot returns a consistent copy of the node's live
// default-group protocol state (sequence numbers, confirmation minima,
// log depths, buffer occupancy), taken between inputs on the owning
// shard. ok is false if the shard stayed busy past an internal timeout.
func (nd *Node) StateSnapshot() (obsv.StateSnapshot, bool) {
	var s obsv.StateSnapshot
	ok := nd.StateSnapshotInto(&s)
	return s, ok
}

// StateSnapshotInto is StateSnapshot writing into a caller-owned value
// whose slice capacity is reused (see core.Entity.SnapshotInto), so a
// poller that keeps one scratch snapshot avoids the five O(n) slice
// allocations a fresh snapshot costs. On false dst is untouched. dst
// must not be scraped into again while a previous fill is still being
// read elsewhere.
func (nd *Node) StateSnapshotInto(dst *obsv.StateSnapshot) bool {
	return nd.rt.SnapshotInto(uint32(DefaultGroup), dst)
}

// Close stops the node's goroutines, closes its transport (when created
// via NewNode) and closes every delivery channel.
func (nd *Node) Close() error {
	var err error
	nd.closeOnce.Do(func() {
		nd.halt()
		nd.router.Wait()
		// Runtime first: stopping the shards ends port queue pushes
		// before those queues close.
		nd.rt.Close()
		nd.groupsMu.Lock()
		ports := make([]*GroupPort, 0, len(nd.groupPorts))
		for _, p := range nd.groupPorts {
			ports = append(ports, p)
		}
		nd.groupsMu.Unlock()
		for _, p := range ports {
			p.queue.close()
			p.stopPump()
			close(p.deliver)
		}
		err = nd.sub.close()
	})
	return err
}

// halt signals every producer, pump and the wire router to stop; Close
// does the waiting.
func (nd *Node) halt() { nd.stopOnce.Do(func() { close(nd.stop) }) }

func (nd *Node) stopped() bool {
	select {
	case <-nd.stop:
		return true
	default:
		return false
	}
}

// now is the node's protocol clock: time since the node started.
func (nd *Node) now() time.Duration { return time.Since(nd.start) }

// deliveryQueue is a port's unbounded FIFO between the shard that owns
// the group's engine (push, never blocks) and the port's pump (popAll,
// blocks while empty). Both move whole batches, so a commit burst costs
// one lock and at most one wake-up however many messages it carries.
type deliveryQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Message
	closed bool
}

func newDeliveryQueue() *deliveryQueue {
	q := &deliveryQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends one engine output's deliveries on group g as Messages; it
// copies the values, so batch may be reused once push returns. After
// close it drops them.
func (q *deliveryQueue) push(g GroupID, batch []core.Delivery) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	wasEmpty := len(q.items) == 0
	for _, d := range batch {
		q.items = append(q.items, Message{
			Group: g,
			Src:   int(d.Src),
			Seq:   uint64(d.SEQ),
			Index: d.Index,
			Data:  d.Data,
			LTime: d.LTime,
		})
	}
	q.mu.Unlock()
	// popAll waits only on an empty queue, so only the push that ends
	// the emptiness can have a waiter to wake.
	if wasEmpty {
		q.cond.Signal()
	}
}

// popAll blocks until the queue holds messages or closes, then takes the
// whole backlog in order; ok is false only when the queue is closed and
// drained. spare — the caller's previous batch, zeroed, or nil — becomes
// the queue's next backing array, so pump and shard trade two buffers
// instead of allocating.
func (q *deliveryQueue) popAll(spare []Message) (batch []Message, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	batch, q.items = q.items, spare[:0]
	return batch, true
}

func (q *deliveryQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
