package cobcast

import (
	"fmt"
	"sync"

	"cobcast/internal/network"
	"cobcast/internal/pdu"
)

// Cluster is an in-process group of nodes connected by an in-memory
// multi-channel network. It is the easiest way to use the library for
// simulation, testing and single-process applications; for distributed
// deployments use NewNode with a Transport.
type Cluster struct {
	net       *network.Net
	nodes     []*Node
	closeOnce sync.Once
	closeErr  error
}

// NewCluster creates and starts n nodes (n ≥ 2) wired through an
// in-memory network configured by the options.
func NewCluster(n int, opts ...Option) (*Cluster, error) { return newCluster(n, opts) }

// newCluster is NewCluster with netOpts applied after the network
// options the Options set.
func newCluster(n int, opts []Option, netOpts ...network.Option) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("cobcast: cluster needs at least 2 nodes, got %d", n)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	memnet := network.New(n, append([]network.Option{
		network.WithSeed(o.netSeed),
		network.WithLossRate(o.netLossRate),
		network.WithUniformDelay(o.netDelay),
	}, netOpts...)...)
	if o.registry != nil {
		o.registry.RegisterNetwork("memnet", memnet.Metrics())
	}
	c := &Cluster{net: memnet, nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		nd, err := newNode(i, n, o, memSubstrate(memnet.Endpoint(pdu.EntityID(i)), o.netInboxCap))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[i] = nd
	}
	return c, nil
}

// NetworkStats counts events on the cluster's in-memory network.
type NetworkStats struct {
	// Sent counts point-to-point transmissions (a broadcast in a cluster
	// of n counts n-1).
	Sent uint64
	// Delivered counts PDUs handed to node receive buffers.
	Delivered uint64
	// DroppedLoss counts PDUs dropped by the configured loss rate.
	DroppedLoss uint64
	// DroppedOverrun counts PDUs dropped at full node receive buffers
	// (WithInboxCapacity) — the paper's buffer-overrun loss.
	DroppedOverrun uint64
}

// NetworkStats returns a snapshot of the in-memory network counters.
func (c *Cluster) NetworkStats() NetworkStats {
	s := c.net.Stats()
	return NetworkStats{
		Sent:           s.Sent,
		Delivered:      s.Delivered,
		DroppedLoss:    s.DroppedLoss,
		DroppedOverrun: s.DroppedOverrun + s.DroppedPartition,
	}
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Broadcast submits data from the given node; shorthand for
// c.Node(from).Broadcast(data).
func (c *Cluster) Broadcast(from int, data []byte) error {
	return c.nodes[from].Broadcast(data)
}

// Isolate blocks every network channel to and from node i — a fault-
// injection helper simulating a crashed or partitioned member.
func (c *Cluster) Isolate(i int) {
	c.net.Isolate(pdu.EntityID(i))
}

// Rejoin heals the channels of a previously isolated node. Note that the
// protocol has no membership rejoin: if survivors evicted the node, its
// confirmations stay ignored.
func (c *Cluster) Rejoin(i int) {
	c.net.Rejoin(pdu.EntityID(i))
}

// Close stops every node and the network.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.net.Close()
		for _, nd := range c.nodes {
			if nd == nil {
				continue
			}
			if err := nd.Close(); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
	})
	return c.closeErr
}
