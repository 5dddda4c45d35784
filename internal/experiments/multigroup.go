package experiments

import (
	"fmt"
	"time"

	"cobcast"
)

// MultiGroupRow is one (cluster size, group count, submit rate) cell of
// the multi-group sweep [E14]: msgs messages spread round-robin over
// groups independent ordered groups on one real-time in-process cluster.
type MultiGroupRow struct {
	N      int
	Groups int
	// RateMsgs is the target aggregate submit rate in messages/second
	// (0 = unthrottled).
	RateMsgs float64
	Messages int
	// Wall is submit start to last delivery anywhere.
	Wall time.Duration
	// DeliveredKpps is delivered message copies (msgs × n) per second of
	// wall time — the cluster-wide ordered-delivery throughput.
	DeliveredKpps float64
	// FlowBlocked sums the per-group engines' flow-control stalls; it
	// shows when per-group windows, not the runtime, bound throughput.
	FlowBlocked uint64
}

// MultiGroupSweep runs the groups × n × rate sweep of experiment E14 on
// the real-time in-process cluster. groups=1 uses the default group —
// exactly the single-group runtime of every earlier experiment — so the
// first column of each block is the baseline the multi-group rows are
// read against. groups>1 runs that many named groups through the
// sharded group runtime over the same transport.
func MultiGroupSweep(ns, groupCounts []int, rates []float64, msgs, size int) ([]MultiGroupRow, error) {
	var rows []MultiGroupRow
	for _, n := range ns {
		for _, g := range groupCounts {
			for _, rate := range rates {
				row, err := multiGroupCell(n, g, rate, msgs, size)
				if err != nil {
					return nil, fmt.Errorf("e14 n=%d groups=%d rate=%.0f: %w", n, g, rate, err)
				}
				rows = append(rows, *row)
			}
		}
	}
	return rows, nil
}

// MultiGroupPorts opens the same groups ports on every node of a
// cluster: the default group when groups == 1, distinctly named groups
// otherwise. Shared by every RunLoad caller (the E14 cell, Fig. 8's
// Tap, coload) so they all drive the identical runtime surface.
func MultiGroupPorts(c *cobcast.Cluster, n, groups int) [][]*cobcast.GroupPort {
	ports := make([][]*cobcast.GroupPort, n)
	for i := 0; i < n; i++ {
		ports[i] = make([]*cobcast.GroupPort, groups)
		for g := 0; g < groups; g++ {
			id := cobcast.DefaultGroup
			if groups > 1 {
				id = cobcast.Group(fmt.Sprintf("e14-group-%d", g))
			}
			ports[i][g] = c.Group(i, id)
		}
	}
	return ports
}

// PortStats totals the protocol counters of every engine behind a port
// matrix (ports with no engine yet contribute nothing).
func PortStats(ports [][]*cobcast.GroupPort) cobcast.Stats {
	var total cobcast.Stats
	for i := range ports {
		for _, p := range ports[i] {
			if s, ok := p.Stats(); ok {
				total.Add(s)
			}
		}
	}
	return total
}

func multiGroupCell(n, groups int, rate float64, msgs, size int) (*MultiGroupRow, error) {
	c, err := cobcast.NewCluster(n,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(5*time.Millisecond),
	)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	ports := MultiGroupPorts(c, n, groups)
	res, err := RunLoad(ports, LoadSpec{Msgs: msgs, Rate: rate, Size: size}, realtimeTimeout)
	if err != nil {
		return nil, err
	}
	return &MultiGroupRow{
		N:             n,
		Groups:        groups,
		RateMsgs:      rate,
		Messages:      msgs,
		Wall:          res.Wall,
		DeliveredKpps: float64(msgs*n) / res.Wall.Seconds() / 1000,
		FlowBlocked:   PortStats(ports).FlowBlocked,
	}, nil
}
