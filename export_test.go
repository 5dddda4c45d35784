package cobcast

import (
	"math/rand"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
)

// DeliverForTest is the shard side of the delivery path: what the
// runtime calls with the deliveries of one engine output on group g.
func (nd *Node) DeliverForTest(g GroupID, batch []core.Delivery) {
	nd.deliverGroup(uint32(g), batch)
}

// NewClusterWithLinkDelays is NewCluster on a network whose directed
// link from→to delays every datagram by delay(from, to), in place of
// WithNetworkDelay's one delay for all links.
func NewClusterWithLinkDelays(n int, delay func(from, to int) time.Duration, opts ...Option) (*Cluster, error) {
	return newCluster(n, opts, network.WithDelay(func(from, to pdu.EntityID, _ *rand.Rand) time.Duration {
		return delay(int(from), int(to))
	}))
}
