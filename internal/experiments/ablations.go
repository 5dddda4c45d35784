package experiments

import (
	"fmt"
	"time"

	"cobcast"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
	"cobcast/internal/simrun"
	"cobcast/internal/workload"
)

// WindowRow is one point of ablation A1: the effect of the flow-control
// window W on throughput and latency.
type WindowRow struct {
	W int
	// CompletionVirtual is the virtual time to deliver the whole
	// workload everywhere.
	CompletionVirtual time.Duration
	// TapMean is the mean broadcast-to-delivery delay.
	TapMean time.Duration
	// FlowBlocked counts submissions that waited for the window.
	FlowBlocked uint64
}

// AblationWindow sweeps the window size under a saturating workload.
func AblationWindow(n int, ws []int, perSender int) ([]WindowRow, error) {
	rows := make([]WindowRow, 0, len(ws))
	for _, w := range ws {
		c, done, err := runContinuous(simrun.Options{N: n, Core: core.Config{Window: pdu.Seq(w)}}, perSender, 32)
		if err != nil {
			return nil, fmt.Errorf("ablation window=%d: %w", w, err)
		}
		rows = append(rows, WindowRow{
			W:                 w,
			CompletionVirtual: done,
			TapMean:           mean(c.TapSamples()),
			FlowBlocked:       c.TotalStats().FlowBlocked,
		})
	}
	return rows, nil
}

// DeferRow is one point of ablation A2: the deferred-ack interval trades
// confirmation traffic against acknowledgment latency.
type DeferRow struct {
	Interval time.Duration
	// TotalPDUs counts every PDU broadcast during the run.
	TotalPDUs uint64
	// CompletionVirtual is the virtual time to quiescence.
	CompletionVirtual time.Duration
}

// AblationDeferredAck sweeps the deferred confirmation interval with a
// sparse workload, where confirmation timing dominates.
func AblationDeferredAck(n int, intervals []time.Duration, msgs int) ([]DeferRow, error) {
	rows := make([]DeferRow, 0, len(intervals))
	for _, iv := range intervals {
		c, err := simrun.New(simrun.Options{
			N:    n,
			Core: core.Config{DeferredAckInterval: iv},
			Net:  []sim.NetOption{sim.NetUniformDelay(time.Millisecond)},
		})
		if err != nil {
			return nil, err
		}
		c.LoadWorkload(workload.NewInteractive(n, msgs, 32, 10*time.Millisecond, 1))
		done, err := c.RunToQuiescence(deadline)
		if err != nil {
			return nil, fmt.Errorf("ablation defer=%v: %w", iv, err)
		}
		st := c.TotalStats()
		rows = append(rows, DeferRow{
			Interval:          iv,
			TotalPDUs:         originated(st),
			CompletionVirtual: done,
		})
	}
	return rows, nil
}

// BufferAblRow is one point of ablation A3: shrinking the receive inbox
// on the real-time in-memory network induces buffer-overrun loss, which
// the protocol repairs at the cost of retransmissions.
type BufferAblRow struct {
	InboxCap int
	// Overruns counts PDUs dropped at full inboxes; Retransmitted counts
	// the repairs.
	Overruns      uint64
	Retransmitted uint64
	// Wall is the real time the cluster needed to deliver everything.
	Wall time.Duration
}

// bufferAblationGroups spreads ablation A3's load over this many groups.
// The receive buffer counts datagrams, and packing folds one group's
// unthrottled backlog into a handful of them; over 8 groups every flush
// sends a datagram per group, so one burst fills a 4-slot buffer.
const bufferAblationGroups = 8

// AblationBuffer runs the public real-time cluster with varying inbox
// capacities, under an unthrottled load of msgs messages spread over
// bufferAblationGroups groups. Unlike the virtual-time experiments this
// measures wall clock, so absolute numbers vary run to run; the shape
// (smaller inbox → more overruns → more retransmissions, and delivery
// still complete) is the result.
func AblationBuffer(n int, caps []int, msgs int) ([]BufferAblRow, error) {
	rows := make([]BufferAblRow, 0, len(caps))
	for _, cap := range caps {
		c, err := cobcast.NewCluster(n,
			cobcast.WithInboxCapacity(cap),
			cobcast.WithDeferredAckInterval(time.Millisecond),
			cobcast.WithRetransmitTimeout(5*time.Millisecond),
		)
		if err != nil {
			return nil, err
		}
		ports := MultiGroupPorts(c, n, bufferAblationGroups)
		res, err := RunLoad(ports, LoadSpec{Msgs: msgs, Size: 32}, realtimeTimeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("ablation inbox=%d: %w", cap, err)
		}
		rows = append(rows, BufferAblRow{
			InboxCap:      cap,
			Overruns:      c.NetworkStats().DroppedOverrun,
			Retransmitted: PortStats(ports).Retransmitted,
			Wall:          res.Wall,
		})
		c.Close()
	}
	return rows, nil
}
