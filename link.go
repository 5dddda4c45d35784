package cobcast

import (
	"cobcast/internal/groups"
	"cobcast/internal/network"
	"cobcast/internal/obsv"
)

// substrate is everything that differs between a node on the in-memory
// network and a node on a Transport: the frames adapter each shard sends
// and decodes through, how arriving datagrams reach the owner shard's
// inbox, and what Close releases last.
type substrate struct {
	newFrames func(lm *obsv.LinkMetrics) groups.Frames
	// attach connects the substrate's receive side to the node's runtime,
	// once it exists; a goroutine it starts is counted in nd.router.
	attach func(nd *Node) error
	close  func() error
}

// memSubstrate attaches a node to the in-memory network. Shards share
// the node's port: BroadcastGroup is safe for concurrent use. The
// receive side runs no goroutine of the node's: the port's delivery
// goroutine offers each due datagram straight to its group's owner
// shard, which the network has already tagged, so one PDU trip costs
// two hand-offs — into the network, then into the shard. The offer never
// blocks: with inboxCap datagrams already waiting for a shard, it
// refuses, and the network counts the datagram lost to overrun.
//
// The node does not watch the network: the network belongs to its
// Cluster, whose Close closes it and then every node. A node that
// outlives its network keeps running, and what it sends is lost.
func memSubstrate(port *network.Port, inboxCap int) substrate {
	return substrate{
		newFrames: func(lm *obsv.LinkMetrics) groups.Frames { return groups.NewMemFrames(port, lm) },
		attach: func(nd *Node) error {
			rt := nd.rt
			return port.Attach(func(in network.Inbound) bool {
				return rt.Offer(in.Group, groups.Inbound{PDUs: in.PDUs}, inboxCap)
			})
		},
		close: func() error { return nil },
	}
}

// wireSubstrate attaches a node to a Transport, which the node owns and
// closes. Its router goroutine reads the transport, peeks each frame
// header's group address without decoding the body (groups.RouteFrame)
// and enqueues the frame on the owner shard's inbox, waiting while that
// inbox is full, so a slow shard backs up into the socket buffer. The
// reader is the transport's to own — Transport.Recv is a channel — and a
// shard hand-off from the transport's own read loop measured no faster
// over loopback UDP, where the host's netpoll sets the latency
// (DESIGN.md §2o).
func wireSubstrate(trans Transport) substrate {
	return substrate{
		newFrames: func(lm *obsv.LinkMetrics) groups.Frames { return groups.NewWireFrames(trans, lm, 0) },
		attach: func(nd *Node) error {
			nd.router.Add(1)
			go func() {
				defer nd.router.Done()
				route(nd, trans.Recv())
			}()
			return nil
		},
		close: trans.Close,
	}
}

// route is the body of a wire node's router goroutine. When the
// transport closes underneath the node, the runtime stops with it.
func route(nd *Node, recv <-chan []byte) {
	for {
		select {
		case <-nd.stop:
			return
		case b, ok := <-recv:
			if !ok {
				nd.halt()
				nd.rt.Close()
				return
			}
			if g, in, ok := groups.RouteFrame(b, nd.lm); ok {
				nd.rt.Inbound(g, in)
			}
		}
	}
}
