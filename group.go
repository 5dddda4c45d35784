package cobcast

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"cobcast/internal/core"
	"cobcast/internal/groups"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// GroupID names one independently ordered group (topic). Group 0 is the
// default group every Node speaks on; non-zero IDs are usually derived
// from names with Group. Each group is its own protocol instance — own
// sequence numbers, acknowledgment vectors, retransmission and delivery
// order — multiplexed over the node's one transport.
type GroupID uint32

// DefaultGroup is the group Node.Broadcast and Node.Deliveries use; its
// wire traffic is byte-identical to a single-group node's.
const DefaultGroup GroupID = 0

// MaxGroups bounds how many groups a node will lazily instantiate (each
// costs O(cluster size) state plus logs), so a peer minting group IDs
// cannot exhaust memory. Submits past the bound fail with
// ErrTooManyGroups; inbound frames for groups past it are dropped and
// counted as unknown-group loss. The default group is always open and
// does not count toward the bound.
const MaxGroups = groups.DefaultMaxGroups

// ErrTooManyGroups is returned by GroupPort.Broadcast when the node's
// group bound (MaxGroups) is exhausted.
var ErrTooManyGroups = errors.New("cobcast: too many groups")

// Group derives a GroupID from a name: FNV-1a, folded into the wire
// codec's valid range, with 0 reserved for the default group. All nodes
// derive identical IDs from identical names. Distinct names may collide
// (it is a 28-bit hash); colliding groups merge into one ordered group,
// which is safe but surprising — applications needing guaranteed
// disjointness should assign numeric GroupIDs themselves.
func Group(name string) GroupID {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	g := h.Sum32() & pdu.MaxGroupID
	if g == 0 {
		// Remap the (1-in-2^28) hash landing on the reserved default
		// group; any fixed non-zero value keeps all nodes in agreement.
		g = 0x9E3779B1 & pdu.MaxGroupID
	}
	return GroupID(g)
}

// GroupPort is a node's handle on one group: Broadcast submits to the
// group's ordered stream, Deliveries yields the group's causally (or
// totally) ordered messages. Obtain ports with Node.Group or
// Cluster.Group; the same port is returned for the same open ID. The
// DefaultGroup port is what Node.Broadcast and Node.Deliveries use.
type GroupPort struct {
	nd *Node
	id GroupID

	// Each port runs its own unbounded queue + pump so a slow consumer of
	// one group never stalls the shard that feeds it (or any other
	// group). The shard pushes one batch per engine output, the pump
	// takes the whole backlog at once and feeds the buffered deliver
	// channel (DESIGN.md §2o). The pump starts at the port's first
	// delivery, so a port whose group never delivers costs no goroutine.
	// A port on a group the runtime refused has no queue.
	queue    *deliveryQueue
	deliver  chan Message
	pumpOnce sync.Once
	pumpDone chan struct{}
}

// deliverChanCap is the capacity of every port's Deliveries channel. The
// buffer lets the pump run ahead of the consumer, so the two park on each
// other once per fill or drain instead of once per message. 256 (16 KiB
// per port) is the smallest value on the measured plateau, of 16, 64,
// 256 and 1024: BenchmarkHotPathDeliveryHandoff/batch=43 reads 252, 197,
// 179 and 182 ns per message, and mem-steady's sat_msgs_per_s is flat
// from 16 up (DESIGN.md §2o has the table).
const deliverChanCap = 256

// maxRecycledBatch bounds the batch buffer (in Messages, 64 bytes each)
// the pump hands back to the queue: a slow consumer's high-water backlog
// is released to the collector instead of staying pinned by the port.
const maxRecycledBatch = 4096

// ID returns the port's group.
func (p *GroupPort) ID() GroupID { return p.id }

// Broadcast submits data for ordered broadcast on this group. The data
// is copied. The first send on a group lazily instantiates its engine
// on every receiving node, up to the MaxGroups bound. With
// WithMemoryBudget it blocks or sheds (per WithBackpressure) against
// this group's own budget.
func (p *GroupPort) Broadcast(data []byte) error {
	return p.BroadcastContext(context.Background(), data)
}

// BroadcastContext is Broadcast bounded by a context; see
// Node.BroadcastContext for the backpressure semantics.
func (p *GroupPort) BroadcastContext(ctx context.Context, data []byte) error {
	buf := make([]byte, len(data))
	copy(buf, data)
	if p.nd.stopped() {
		return ErrClosed
	}
	return p.nd.runtimeErr(p.id, p.nd.rt.Submit(ctx, uint32(p.id), buf))
}

// runtimeErr translates the runtime's errors about group g into the
// package's public ones.
func (nd *Node) runtimeErr(g GroupID, err error) error {
	switch {
	case errors.Is(err, groups.ErrClosed):
		return ErrClosed
	case errors.Is(err, groups.ErrTooManyGroups):
		return fmt.Errorf("%w: group %d", ErrTooManyGroups, g)
	case errors.Is(err, groups.ErrOverBudget):
		return ErrOverBudget
	}
	return err
}

// Deliveries returns the group's ordered message stream. The channel is
// buffered (a fixed few hundred messages) and closed by Node.Close.
// Consumers should drain promptly; undelivered messages queue behind the
// channel without bound.
func (p *GroupPort) Deliveries() <-chan Message { return p.deliver }

// Stats returns the group's protocol counters; ok is false if the group
// has no engine on this node yet.
func (p *GroupPort) Stats() (Stats, bool) {
	return p.nd.rt.Stats(uint32(p.id))
}

// startPump starts the port's pump unless it has started or the port
// has closed; a closed port's pumpDone is already closed.
func (p *GroupPort) startPump() { p.pumpOnce.Do(func() { go p.pump() }) }

// stopPump waits for the pump to drain the closed queue and exit, or
// keeps a pump that never started from ever starting.
func (p *GroupPort) stopPump() {
	p.pumpOnce.Do(func() { close(p.pumpDone) })
	<-p.pumpDone
}

// pump moves messages from the unbounded queue to the delivery channel so
// a slow consumer never stalls the shard that owns the group's engine.
func (p *GroupPort) pump() {
	defer close(p.pumpDone)
	var spare []Message
	for {
		batch, ok := p.queue.popAll(spare)
		if !ok {
			return
		}
		for i := range batch {
			// A channel with room takes the message without a select
			// over stop too: one lock per message instead of two.
			select {
			case p.deliver <- batch[i]:
			default:
				select {
				case p.deliver <- batch[i]:
				case <-p.nd.stop:
					// Drop the rest so close is prompt; consumers that
					// closed early asked for this.
					return
				}
			}
			// The consumer owns the message now: a Data left behind
			// would pin its PDU until the slot is next overwritten.
			batch[i] = Message{}
		}
		spare = batch
		if cap(spare) > maxRecycledBatch {
			spare = nil
		}
	}
}

// Group returns the node's port on group g, creating it on first use.
// A port on a group the runtime refuses (past MaxGroups, or once the
// node has closed) is not kept: Broadcast returns the refusal, and
// Deliveries, shared by all such ports, delivers nothing until Close
// closes it.
func (nd *Node) Group(g GroupID) *GroupPort {
	nd.groupsMu.Lock()
	defer nd.groupsMu.Unlock()
	if p, ok := nd.groupPorts[g]; ok {
		return p
	}
	if err := nd.rt.Open(uint32(g)); err != nil {
		return &GroupPort{nd: nd, id: g, deliver: nd.refused}
	}
	p := &GroupPort{
		nd:       nd,
		id:       g,
		queue:    newDeliveryQueue(),
		deliver:  make(chan Message, deliverChanCap),
		pumpDone: make(chan struct{}),
	}
	nd.groupPorts[g] = p
	return p
}

// Group returns node i's port on group g; shorthand for
// c.Node(i).Group(g).
func (c *Cluster) Group(i int, g GroupID) *GroupPort { return c.nodes[i].Group(g) }

// statezGroupLimit bounds per-group metric/snapshot registrations per
// node: the first statezGroupLimit non-default groups get full per-group
// counter families and /statez sections; later groups run engines
// without per-group instrumentation, keeping scrape cardinality bounded
// however many groups a workload mints.
const statezGroupLimit = 16

// newEntity builds group g's engine — the runtime calls it on the owning
// shard goroutine, at construction for group 0 and at a group's first
// input otherwise. Every group gets the same protocol configuration:
// group isolation comes from frame routing, not from the cluster ID.
// Each engine writes its group's own ledger. Group 0 publishes under
// the node's own label, together with the node-wide link counters;
// other groups under "<id>/g<N>" while instrumentation slots last.
func (nd *Node) newEntity(g uint32, ledger *core.Ledger) (*core.Entity, error) {
	cfg := nd.o.coreConfig(nd.id, nd.n)
	cfg.Ledger = ledger
	reg := nd.o.registry
	label, lm := strconv.Itoa(nd.id), nd.lm
	if g != 0 {
		label, lm = fmt.Sprintf("%d/g%d", nd.id, g), nil
	}
	instrumented := reg != nil && (g == 0 || nd.groupMetricsSlot())
	if instrumented {
		cfg.Metrics, cfg.Flight = obsv.NewEntityMetrics(), nd.o.newFlightRing()
	}
	ent, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("cobcast: node %s: %w", label, err)
	}
	if instrumented {
		label = reg.RegisterNode(label, cfg.Metrics, lm, func() (obsv.StateSnapshot, bool) {
			var s obsv.StateSnapshot
			if !nd.rt.SnapshotInto(g, &s) {
				return obsv.StateSnapshot{}, false
			}
			s.Group = g
			return s, true
		})
		// Every engine shares the node's monotonic clock, so the node's
		// start is their epoch.
		reg.RegisterFlight(label, cfg.Flight, nd.start.UnixNano())
		reg.RegisterStalls(label, func() ([]obsv.Stall, bool) {
			var sts []obsv.Stall
			ok := nd.rt.Stalls(g, &sts)
			return sts, ok
		})
	}
	return ent, nil
}

// groupMetricsSlot claims one of the node's statezGroupLimit per-group
// instrumentation slots.
func (nd *Node) groupMetricsSlot() bool {
	nd.groupsMu.Lock()
	defer nd.groupsMu.Unlock()
	if nd.groupMetricsUsed >= statezGroupLimit {
		return false
	}
	nd.groupMetricsUsed++
	return true
}

// deliverGroup routes one engine output's deliveries (on its shard
// goroutine) to the group's port, creating the port on first delivery so
// messages for groups the application has not opened yet are queued, not
// lost — unless the node is closing, which refuses new ports.
func (nd *Node) deliverGroup(g uint32, batch []core.Delivery) {
	if p := nd.Group(GroupID(g)); p.queue != nil {
		p.startPump()
		p.queue.push(GroupID(g), batch)
	}
}
