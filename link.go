package cobcast

import (
	"cobcast/internal/groups"
	"cobcast/internal/network"
	"cobcast/internal/obsv"
)

// substrate is everything that differs between a node on the in-memory
// network and a node on a Transport: the frames adapter each shard sends
// and decodes through, the body of the node's router goroutine, and what
// Close releases last.
type substrate struct {
	newFrames func(lm *obsv.LinkMetrics) groups.Frames
	route     func(nd *Node)
	close     func() error
}

// route is the body of a node's single inbound goroutine: it takes each
// arriving datagram off the substrate, classifies it by group without
// decoding it, and enqueues it straight on the owner shard's inbox — one
// hop from transport to the loop that owns the engine, for every group.
// classify returns false for a datagram it already dropped. When the
// substrate closes underneath the node, the runtime stops with it.
func route[T any](nd *Node, recv <-chan T, classify func(T) (uint32, groups.Inbound, bool)) {
	for {
		select {
		case <-nd.stop:
			return
		case x, ok := <-recv:
			if !ok {
				nd.halt()
				nd.rt.Close()
				return
			}
			if g, in, ok := classify(x); ok {
				nd.rt.Inbound(g, in)
			}
		}
	}
}

// memSubstrate attaches a node to the in-memory network. Shards share
// the node's port: BroadcastGroup is safe for concurrent use, and the
// network tags each datagram with its group at the boundary, so the
// router has nothing to peek.
func memSubstrate(port *network.Port) substrate {
	return substrate{
		newFrames: func(lm *obsv.LinkMetrics) groups.Frames { return groups.NewMemFrames(port, lm) },
		route: func(nd *Node) {
			route(nd, port.Recv(), func(in network.Inbound) (uint32, groups.Inbound, bool) {
				return in.Group, groups.Inbound{PDUs: in.PDUs}, true
			})
		},
		close: func() error { return nil },
	}
}

// wireSubstrate attaches a node to a Transport, which the node owns and
// closes. The router peeks each frame header's group address without
// decoding the body (groups.RouteFrame).
func wireSubstrate(trans Transport) substrate {
	return substrate{
		newFrames: func(lm *obsv.LinkMetrics) groups.Frames { return groups.NewWireFrames(trans, lm, 0) },
		route: func(nd *Node) {
			route(nd, trans.Recv(), func(b []byte) (uint32, groups.Inbound, bool) {
				return groups.RouteFrame(b, nd.lm)
			})
		},
		close: trans.Close,
	}
}
