// Package cobcast is a causally ordering broadcast library: a from-scratch
// reproduction of the CO protocol of Nakamura & Takizawa, "Causally
// Ordering Broadcast Protocol" (ICDCS 1994).
//
// A cluster of n nodes broadcasts messages to one another over a lossy,
// high-speed "multi-channel" network. Every node delivers every message,
// exactly once, in an order that respects causality: if message p was
// (transitively) known to the sender of q when q was sent, every node
// delivers p before q. Unlike vector-clock schemes (ISIS CBCAST), the
// protocol orders messages with plain per-source sequence numbers and the
// receipt-confirmation vectors piggybacked on every PDU, which also lets
// it detect and selectively retransmit lost PDUs — no reliable transport
// is assumed underneath.
//
// # Quick start
//
//	cluster, err := cobcast.NewCluster(3)
//	if err != nil { ... }
//	defer cluster.Close()
//
//	go func() {
//		for msg := range cluster.Node(0).Deliveries() {
//			fmt.Printf("from %d: %s\n", msg.Src, msg.Data)
//		}
//	}()
//	cluster.Node(1).Broadcast([]byte("hello, group"))
//
// NewCluster wires the nodes through an in-process network whose loss
// rate, latency and receive-buffer size are configurable — ideal for
// tests and simulation. For real deployments, create each node with
// NewNode and a Transport (see NewUDPTransport) on its own machine.
package cobcast

import (
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// Message is one causally ordered delivery.
type Message struct {
	// Group is the ordered group the message was broadcast on
	// (DefaultGroup for Node.Broadcast). Each group is an independent
	// sequence space: ordering guarantees hold within a group, never
	// across groups.
	Group GroupID
	// Src is the node that broadcast the message.
	Src int
	// Seq is the per-source sequence number (starting at 1) of the PDU
	// that carried the message. Sequence numbers are shared with the
	// protocol's internal confirmation PDUs, so consecutive application
	// messages from one node may have gaps — and consecutive messages may
	// share a Seq: a backlog queued behind the flow window rides one PDU,
	// and Index orders the messages inside it.
	Seq uint64
	// Index is the message's position within its Seq: 0 unless the PDU
	// carried several messages, which count up from 0. (Src, Seq, Index)
	// identifies a message.
	Index int
	// Data is the application payload. It is read-only: it aliases the
	// PDU that carried the message, which the node retains for
	// retransmission and which, on a Cluster, every node shares. Copy it
	// before modifying it; appending to it copies by itself.
	Data []byte
	// LTime is the message's cluster-wide logical time when the cluster
	// runs in total-order mode (WithTotalOrder); 0 otherwise. Deliveries
	// are then sorted by (LTime, Src, Seq, Index), identically at every
	// node.
	LTime uint64
}

// Stats is a snapshot of one engine's protocol counters — a node's
// default group (Node.Stats) or one group on one node (GroupPort.Stats).
// It is the engine's one counter set, the same struct /statez shows as
// a node's "counters" and /metrics renders, so the field documentation
// and the Add method (every counter by sum, MaxResident by maximum) that
// builds cluster-wide and cross-group totals are obsv.EntityStats'.
type Stats = core.Stats

// options collects configuration shared by clusters and nodes.
type options struct {
	clusterID           uint32
	window              int
	deferredAckInterval time.Duration
	retransmitTimeout   time.Duration
	totalOrder          bool
	suspectAfter        time.Duration
	registry            *obsv.Registry
	groupShards         int
	memBudgetBytes      int64
	backpressure        BackpressureMode
	flightEvents        int

	// In-memory network knobs (NewCluster only).
	netDelay    time.Duration
	netLossRate float64
	netSeed     int64
	netInboxCap int
}

func defaultOptions() options {
	return options{
		window:      core.DefaultWindow,
		netSeed:     1,
		netInboxCap: 1024,
	}
}

func (o options) coreConfig(id, n int) core.Config {
	return core.Config{
		ClusterID:           o.clusterID,
		ID:                  pdu.EntityID(id),
		N:                   n,
		Window:              pdu.Seq(o.window),
		DeferredAckInterval: o.deferredAckInterval,
		RetransmitTimeout:   o.retransmitTimeout,
		TotalOrder:          o.totalOrder,
		SuspectAfter:        o.suspectAfter,
	}
}

// newFlightRing builds one engine's flight recorder, or nil when
// recording is off. The recorder rides on observability: it exists
// whenever a registry is attached (WithFlightRecorder resizes or
// disables it), because /tracez is how the ring leaves the process.
func (o options) newFlightRing() *flight.Ring {
	if o.registry == nil || o.flightEvents < 0 {
		return nil
	}
	return flight.NewRing(o.flightEvents)
}

// tick is the node's timer resolution: the deferred-ack interval.
func (o options) tick() time.Duration {
	if o.deferredAckInterval > 0 {
		return o.deferredAckInterval
	}
	return core.DefaultDeferredAckInterval
}

// Option configures a Cluster or Node.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithClusterID sets the cluster identifier stamped on every PDU; nodes
// discard PDUs from other clusters. The default is 0.
func WithClusterID(id uint32) Option {
	return optionFunc(func(o *options) { o.clusterID = id })
}

// WithWindow sets the flow-control window W: the maximum number of a
// node's PDUs that may be outstanding beyond the cluster-wide minimum
// acknowledgment. The default is 16.
func WithWindow(w int) Option {
	return optionFunc(func(o *options) { o.window = w })
}

// WithDeferredAckInterval sets the node's timer tick and the shortest
// time a node that owes receipt confirmations waits after its last send
// before a late one. The wait itself is twice the confirmation round
// the node observes, clamped between this and WithRetransmitTimeout;
// until it has timed a round, and while its window holds submissions
// back, the wait is exactly this. The default is 5ms.
func WithDeferredAckInterval(d time.Duration) Option {
	return optionFunc(func(o *options) { o.deferredAckInterval = d })
}

// WithRetransmitTimeout sets the spacing of retransmission requests for
// newly detected losses: a node asks a source again for a new hole only
// this long after its previous request to it, so one request covers a
// whole loss burst. A request that went unanswered is repeated sooner,
// after twice the confirmation round the node observes (never less than
// WithDeferredAckInterval), doubling with each further repeat. This
// option caps that wait, and how long a node that owes receipt
// confirmations waits after its last send before a late one. The
// default is 20ms.
func WithRetransmitTimeout(d time.Duration) Option {
	return optionFunc(func(o *options) { o.retransmitTimeout = d })
}

// WithTotalOrder upgrades the service from causal order (CO) to total
// order (TO): every node delivers the identical message sequence, still
// causality-consistent, at the cost of extra delivery latency (a message
// is held until every node's confirmations pass it). Message.LTime
// carries the cluster-wide logical time.
func WithTotalOrder() Option {
	return optionFunc(func(o *options) { o.totalOrder = true })
}

// WithSuspectTimeout enables automatic eviction: a node that has owed the
// cluster confirmations for d without hearing anything from a peer evicts
// that peer from its confirmation quorum, so one crashed node cannot
// freeze delivery forever. Idle peers are never suspected. See Node.Evict
// for the extension's limitations.
func WithSuspectTimeout(d time.Duration) Option {
	return optionFunc(func(o *options) { o.suspectAfter = d })
}

// WithObservability attaches live instrumentation: every node created
// with this option publishes its protocol counters, latency histograms,
// link flush metrics and state snapshots into reg (NewCluster also
// publishes the in-memory network counters; NewNode the transport's,
// when it exposes them). Construct the registry with the public
// cobcast/obsv package, serve it over HTTP with obsv.Serve, or render
// it directly with Registry.WriteMetrics/WriteStatez. Without this
// option the engine runs instrumentation-free.
func WithObservability(reg *obsv.Registry) Option {
	return optionFunc(func(o *options) { o.registry = reg })
}

// WithFlightRecorder sizes the per-engine flight recorder: a bounded,
// lock-free ring of protocol lifecycle events (submit, sequence, wire
// in/out, accept, commit, deliver, retransmission, park, backpressure,
// eviction) served as JSON on the observability endpoint's /tracez and
// assembled into cross-node span traces by `cotrace live`. The ring
// exists whenever WithObservability is attached; events sets its
// capacity (rounded up to a power of two; 0 selects the default 4096),
// and events < 0 disables recording entirely, reducing every record
// site to one untaken branch.
func WithFlightRecorder(events int) Option {
	return optionFunc(func(o *options) {
		if events == 0 {
			events = flight.DefaultEvents
		}
		o.flightEvents = events
	})
}

// WithGroupShards sets how many shard goroutines the node's runtime
// runs; each group is hash-assigned to one shard, which owns its engine
// (the single-writer invariant, per group). n <= 0 (the default)
// derives the count from GOMAXPROCS. The default group is group 0 on
// the same runtime, so it too is owned by one of these shards; shards
// that own no engine stay parked.
func WithGroupShards(n int) Option {
	return optionFunc(func(o *options) { o.groupShards = n })
}

// BackpressureMode selects what a producer experiences when the memory
// budget (WithMemoryBudget) is exhausted.
type BackpressureMode int

const (
	// BackpressureBlock (the default) blocks Broadcast until the logs
	// drain below budget; BroadcastContext unblocks on context
	// cancellation.
	BackpressureBlock BackpressureMode = iota
	// BackpressureShed fails Broadcast immediately with ErrOverBudget,
	// leaving the caller to retry, drop, or divert. Shedding happens
	// strictly before sequencing, so it never perturbs protocol state.
	BackpressureShed
)

// WithMemoryBudget puts a hard per-engine byte budget on the node's
// protocol logs (parked repairs, RRL/PRL/ARL, the send log, queued
// submissions). Once retained bytes reach the budget, Broadcast blocks
// or sheds per WithBackpressure until the logs drain; PDUs already
// sequenced are never dropped, so ordering guarantees are unaffected.
// Each group under WithGroupShards gets its own budget of this size.
// Combined with WithSuspectTimeout, memory pressure (≥ half budget)
// shortens the suspicion timer to a quarter, so a stalled peer is
// evicted before it pins producers forever. bytes <= 0 disables the
// budget (the default): accounting is then entirely off the hot path.
func WithMemoryBudget(bytes int64) Option {
	return optionFunc(func(o *options) { o.memBudgetBytes = bytes })
}

// WithBackpressure selects the producer-side behaviour at an exhausted
// memory budget. The default is BackpressureBlock. Meaningless without
// WithMemoryBudget.
func WithBackpressure(mode BackpressureMode) Option {
	return optionFunc(func(o *options) { o.backpressure = mode })
}

// WithNetworkDelay sets the in-memory network's uniform propagation delay
// (NewCluster only).
func WithNetworkDelay(d time.Duration) Option {
	return optionFunc(func(o *options) { o.netDelay = d })
}

// WithLossRate makes the in-memory network drop each transmission with
// probability p (NewCluster only) — useful for demonstrating recovery.
func WithLossRate(p float64) Option {
	return optionFunc(func(o *options) { o.netLossRate = p })
}

// WithSeed seeds the in-memory network's loss randomness (NewCluster
// only).
func WithSeed(s int64) Option {
	return optionFunc(func(o *options) { o.netSeed = s })
}

// WithInboxCapacity bounds each node's receive buffer on the in-memory
// network: the datagrams that have arrived and wait for the node, counted
// per group shard. A datagram arriving at a full buffer is dropped,
// modelling the paper's buffer-overrun loss (NewCluster only). The
// default is 1024.
func WithInboxCapacity(n int) Option {
	return optionFunc(func(o *options) { o.netInboxCap = n })
}
