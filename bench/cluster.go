package main

import (
	"fmt"
	"runtime"
	"time"

	"cobcast"
	"cobcast/obsv"
)

// Protocol settings shared by every workload (cmd/coload's), plus the
// budget that makes the saturation phase a closed loop: Broadcast blocks
// once an engine retains 1 MiB.
const (
	deferredAckInterval = time.Millisecond
	retransmitTimeout   = 5 * time.Millisecond
	memoryBudget        = 1 << 20
	flightRingEvents    = 1 << 18 // traced runs only, split over a node's engines
)

// bcluster is one running cluster under test with the handles the
// benchmark reads from outside: ports to send on and receive from, and
// the counters the program already exports.
type bcluster struct {
	w            workload
	mem          *cobcast.Cluster        // in-memory workloads
	nodes        []*cobcast.Node         // every workload
	transports   []*cobcast.UDPTransport // UDP workloads
	ports        [][]*cobcast.GroupPort  // [node][group index]
	constructDur time.Duration
}

func protocolOptions(w workload, seed int64, reg *obsv.Registry) []cobcast.Option {
	opts := []cobcast.Option{
		cobcast.WithDeferredAckInterval(deferredAckInterval),
		cobcast.WithRetransmitTimeout(retransmitTimeout),
		cobcast.WithMemoryBudget(memoryBudget),
		cobcast.WithBackpressure(cobcast.BackpressureBlock),
	}
	if !w.udp {
		opts = append(opts, cobcast.WithLossRate(w.loss), cobcast.WithSeed(seed))
	}
	if reg != nil {
		engines := 1
		if w.groups > 1 {
			engines += w.groups
		}
		opts = append(opts, cobcast.WithObservability(reg), cobcast.WithFlightRecorder(flightRingEvents/engines))
	}
	return opts
}

// buildCluster constructs and starts the workload's cluster and opens
// its ports; reg is nil for untraced runs.
func buildCluster(w workload, seed int64, reg *obsv.Registry) (*bcluster, error) {
	c := &bcluster{w: w}
	opts := protocolOptions(w, seed, reg)
	start := time.Now()
	if w.udp {
		if err := c.startUDP(opts); err != nil {
			c.close()
			return nil, err
		}
	} else {
		mem, err := cobcast.NewCluster(clusterSize, opts...)
		if err != nil {
			return nil, err
		}
		c.mem = mem
		for i := 0; i < clusterSize; i++ {
			c.nodes = append(c.nodes, mem.Node(i))
		}
	}
	c.constructDur = time.Since(start)
	c.ports = make([][]*cobcast.GroupPort, clusterSize)
	for i, nd := range c.nodes {
		for g := 0; g < w.groups; g++ {
			id := cobcast.DefaultGroup
			if w.groups > 1 {
				id = cobcast.Group(fmt.Sprintf("bench-group-%d", g))
			}
			c.ports[i] = append(c.ports[i], nd.Group(id))
		}
	}
	return c, nil
}

// startUDP starts a node on each of clusterSize loopback sockets.
func (c *bcluster) startUDP(opts []cobcast.Option) error {
	trs, err := bindUDP(clusterSize)
	if err != nil {
		return err
	}
	c.transports = trs
	for i, tr := range trs {
		nd, err := cobcast.NewNode(i, clusterSize, tr, opts...)
		if err != nil {
			for _, rest := range trs[i:] {
				_ = rest.Close() // no node took ownership of these
			}
			return fmt.Errorf("node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
	}
	return nil
}

// bindUDP binds n loopback transports that broadcast to one another.
// Peer addresses must be known before a transport is created, so free
// ports are probed first (bind :0, note the address, release) and then
// re-bound; a lost race for a port is retried.
func bindUDP(n int) ([]*cobcast.UDPTransport, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var trs []*cobcast.UDPTransport
		if trs, err = tryBindUDP(n); err == nil {
			return trs, nil
		}
	}
	return nil, err
}

func tryBindUDP(n int) (trs []*cobcast.UDPTransport, err error) {
	defer func() {
		if err != nil {
			for _, tr := range trs {
				_ = tr.Close() // abandoning the attempt
			}
			trs = nil
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		probe, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			return nil, fmt.Errorf("probe port %d: %w", i, err)
		}
		addrs[i] = probe.LocalAddr()
		if err := probe.Close(); err != nil {
			return nil, fmt.Errorf("release port %d: %w", i, err)
		}
	}
	for i := range addrs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tr, err := cobcast.NewUDPTransport(addrs[i], peers, 0)
		if err != nil {
			return trs, fmt.Errorf("bind %s: %w", addrs[i], err)
		}
		trs = append(trs, tr)
	}
	return trs, nil
}

func (c *bcluster) close() {
	if c.mem != nil {
		_ = c.mem.Close() // shutdown error changes nothing the run reports
		return
	}
	for _, nd := range c.nodes {
		_ = nd.Close() // closes the node's transport too
	}
}

// shards echoes how many group shard goroutines a node runs: the
// WithGroupShards default, GOMAXPROCS capped at 8 (internal/groups).
func (c *bcluster) shards() int {
	if c.w.groups <= 1 {
		return 0
	}
	if p := runtime.GOMAXPROCS(0); p < 8 {
		return p
	}
	return 8
}

// The counters the program exports, flattened so a phase can report the
// difference of two readings with one loop.
const (
	cDataSent = iota
	cSyncSent
	cAckOnlySent
	cRetSent
	cRetransmitted
	cDataRecv
	cSyncRecv
	cAckOnlyRecv
	cRetRecv
	cAccepted
	cDuplicates
	cParked
	cF1
	cF2
	cPreacked
	cCPIDisplaced
	cCPIDisplacement
	cDeferredConfirms
	cFlowBlocked
	cNetSent
	cNetDroppedLoss
	cNetDroppedOverrun
	cDatagramsSent
	cDatagramsReceived
	cTransportOverrun
	cSendErrors
	cSendmmsgCalls
	cRecvmmsgCalls
	numCounters
)

// counters is one reading of every engine's Stats (summed), the
// in-memory network's and the UDP transports' counters.
type counters struct {
	v           [numCounters]uint64
	maxResident int // largest Stats.MaxResident of any engine, not a sum
}

func (r *counters) addStats(s cobcast.Stats) {
	if s.MaxResident > r.maxResident {
		r.maxResident = s.MaxResident
	}
	for id, x := range [numCounters]uint64{
		cDataSent: s.DataSent, cSyncSent: s.SyncSent, cAckOnlySent: s.AckOnlySent,
		cRetSent: s.RetSent, cRetransmitted: s.Retransmitted,
		cDataRecv: s.DataRecv, cSyncRecv: s.SyncRecv, cAckOnlyRecv: s.AckOnlyRecv, cRetRecv: s.RetRecv,
		cAccepted: s.Accepted, cDuplicates: s.Duplicates, cParked: s.Parked,
		cF1: s.F1Detections, cF2: s.F2Detections, cPreacked: s.Preacked,
		cCPIDisplaced: s.CPIDisplaced, cCPIDisplacement: s.CPIDisplacement,
		cDeferredConfirms: s.DeferredConfirms, cFlowBlocked: s.FlowBlocked,
	} {
		r.v[id] += x
	}
}

func (c *bcluster) read() counters {
	var r counters
	for i, nd := range c.nodes {
		if c.w.groups > 1 {
			r.addStats(nd.Stats()) // the idle default engine still ticks
		}
		for _, p := range c.ports[i] {
			if s, ok := p.Stats(); ok {
				r.addStats(s)
			}
		}
	}
	if c.mem != nil {
		s := c.mem.NetworkStats()
		r.v[cNetSent] = s.Sent
		r.v[cNetDroppedLoss] = s.DroppedLoss
		r.v[cNetDroppedOverrun] = s.DroppedOverrun
	}
	for _, tr := range c.transports {
		s := tr.Stats()
		r.v[cDatagramsSent] += s.Sent
		r.v[cDatagramsReceived] += s.Received
		r.v[cTransportOverrun] += s.Overrun
		r.v[cSendErrors] += s.SendErrors
		r.v[cSendmmsgCalls] += s.SendmmsgCalls
		r.v[cRecvmmsgCalls] += s.RecvmmsgCalls
	}
	return r
}

// sub returns a - b for the monotone counters; maxResident keeps a's.
func (a counters) sub(b counters) counters {
	for i := range a.v {
		a.v[i] -= b.v[i]
	}
	return a
}

// add returns a + b; maxResident is the larger of the two.
func (a counters) add(b counters) counters {
	for i := range a.v {
		a.v[i] += b.v[i]
	}
	if b.maxResident > a.maxResident {
		a.maxResident = b.maxResident
	}
	return a
}

func (c counters) f(id int) float64 { return float64(c.v[id]) }

// pdusSent is the paper's E8 message-complexity numerator: every PDU an
// engine put on the wire, retransmissions included.
func (c counters) pdusSent() float64 {
	return c.f(cDataSent) + c.f(cSyncSent) + c.f(cAckOnlySent) + c.f(cRetSent) + c.f(cRetransmitted)
}
