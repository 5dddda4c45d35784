package experiments

import (
	"fmt"
	"time"

	"cobcast"
)

// PackingRow is one regime of experiment E18: what packing the backlog
// buys at saturation and what it costs below the knee.
type PackingRow struct {
	// RateMsgs is the offered rate in msg/s, 0 for the unthrottled
	// (saturating) run.
	RateMsgs float64
	Messages int
	// MsgsPerSec is delivered throughput: messages over the wall time to
	// the last delivery anywhere.
	MsgsPerSec float64
	// P50 and P99 are submit→deliver latency over every (message, node).
	P50, P99 time.Duration
	// MsgsPerData is messages sequenced per DATA PDU (Stats.MsgsSent ÷
	// Stats.DataSent): 1 while no backlog forms. PDUsPerMsg counts every
	// PDU broadcast, confirmations and repair included.
	MsgsPerData float64
	PDUsPerMsg  float64
}

// Packing runs E18 on the real-time in-process cluster with bench's
// settings (n = 4, 128-byte messages, 1 ms deferred ack, 5 ms RET
// timeout, 1 MiB budget with blocking backpressure): one unthrottled run
// of satMsgs messages, where producers outrun the W = 16 window and the
// backlog rides packed, and one run paced at pacedRate for two seconds,
// where a second queued submission is rare and PDUs leave as they always
// did.
func Packing(satMsgs int, pacedRate float64) ([]PackingRow, error) {
	const n = 4
	specs := []LoadSpec{
		{Msgs: satMsgs, Size: 128},
		{Msgs: int(2 * pacedRate), Rate: pacedRate, Size: 128},
	}
	rows := make([]PackingRow, 0, len(specs))
	for _, spec := range specs {
		c, err := cobcast.NewCluster(n,
			cobcast.WithDeferredAckInterval(time.Millisecond),
			cobcast.WithRetransmitTimeout(5*time.Millisecond),
			cobcast.WithMemoryBudget(1<<20),
			cobcast.WithBackpressure(cobcast.BackpressureBlock),
		)
		if err != nil {
			return nil, err
		}
		ports := MultiGroupPorts(c, n, 1)
		res, err := RunLoad(ports, spec, realtimeTimeout)
		st := PortStats(ports)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("e18 rate=%.0f: %w", spec.Rate, err)
		}
		rows = append(rows, PackingRow{
			RateMsgs:    spec.Rate,
			Messages:    spec.Msgs,
			MsgsPerSec:  float64(spec.Msgs) / res.Wall.Seconds(),
			P50:         res.Percentile(50),
			P99:         res.Percentile(99),
			MsgsPerData: float64(st.MsgsSent) / float64(st.DataSent),
			PDUsPerMsg:  float64(originated(st)+st.Retransmitted) / float64(spec.Msgs),
		})
	}
	return rows, nil
}
