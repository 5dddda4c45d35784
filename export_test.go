package cobcast

import "cobcast/internal/core"

// DeliverForTest is the shard side of the delivery path: what the
// runtime calls with the deliveries of one engine output on group g.
func (nd *Node) DeliverForTest(g GroupID, batch []core.Delivery) {
	nd.deliverGroup(uint32(g), batch)
}
