package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"cobcast"
)

// LoadSpec describes one real-time load run: Msgs messages of Size
// payload bytes, submitted round-robin over the nodes and groups of a
// port matrix at Rate messages/second in aggregate (0 = unthrottled).
type LoadSpec struct {
	Msgs int
	Rate float64
	Size int
}

// LoadResult is what one load run measured from outside the cluster;
// it always holds at least one sample.
type LoadResult struct {
	// Latencies holds one sample per (message, receiver) — Msgs × nodes
	// of them — sorted ascending.
	Latencies []time.Duration
	// Submit is start → the last Broadcast call returning; Wall is
	// start → the last delivery anywhere.
	Submit, Wall time.Duration
}

// mean returns the arithmetic mean of ds, 0 for none.
func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Percentile returns the p-th percentile (0 < p ≤ 100) of the latency
// samples by nearest rank.
func (r *LoadResult) Percentile(p float64) time.Duration {
	rank := int(math.Ceil(p / 100 * float64(len(r.Latencies))))
	return r.Latencies[min(max(rank, 1), len(r.Latencies))-1]
}

// realtimeTimeout bounds how long an experiment's load run may take to
// deliver everything.
const realtimeTimeout = 60 * time.Second

// minLoadPayload is the header every load message carries: its index in
// the run (uint64, big-endian), which also fixes its source and group.
const minLoadPayload = 8

// dueAt is the open-loop arrival plan: message i of a run paced at rate
// messages/second is due i/rate after the start. It is computed from i
// each time, never accumulated, so rounding cannot drift and a late
// message does not re-time the ones behind it.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// RunLoad is the repository's one real-time load driver outside bench/
// (cmd/coload, Fig. 8's Tap and the E14 cell all call it). ports[i][g]
// is node i's port on group g, every node holding the same groups.
// Message k goes out on ports[k%nodes][k%groups] and must be delivered
// exactly once on group k%groups at every node; a duplicate, a stray
// payload, a closed port or a port still short after timeout is an
// error. Arrival times are kept per (message, node) until the end, 8
// bytes each, so Msgs is bounded by memory, not by patience.
//
// The generator is open-loop: a paced message is broadcast at its due
// time or as soon after as the producer can, and its latency runs from
// the due time, so time the producer spent blocked in Broadcast (flow
// control) or descheduled counts against the system instead of thinning
// the load — the same accounting as bench/'s lat_p50_us/lat_p99_us. An
// unthrottled run has no schedule; each message counts as sent when its
// Broadcast call begins.
func RunLoad(ports [][]*cobcast.GroupPort, spec LoadSpec, timeout time.Duration) (*LoadResult, error) {
	nodes, groups := len(ports), len(ports[0])
	if spec.Msgs < 1 {
		return nil, fmt.Errorf("load: %d messages asked for, want at least 1", spec.Msgs)
	}
	if spec.Size < minLoadPayload {
		spec.Size = minLoadPayload
	}
	// sendTimes[k] and deliveredAt[i][k] are offsets from start (the
	// latter +1 so that 0 means "not yet"). Each is written by one
	// goroutine per slot and read only after every drain has returned.
	sendTimes := make([]time.Duration, spec.Msgs)
	if spec.Rate > 0 {
		for k := range sendTimes {
			sendTimes[k] = dueAt(k, spec.Rate)
		}
	}
	deliveredAt := make([][]time.Duration, nodes)
	for i := range deliveredAt {
		deliveredAt[i] = make([]time.Duration, spec.Msgs)
	}
	start := time.Now()

	// One drain per (node, group): a group's deliveries arrive on its
	// own port channel, so draining them all concurrently is the
	// multi-consumer shape a broker would run.
	stop := make(chan struct{})
	drain := func(i, g int) error {
		want := spec.Msgs / groups
		if g < spec.Msgs%groups {
			want++
		}
		deadline := time.After(timeout)
		for seen := 0; seen < want; seen++ {
			select {
			case m, ok := <-ports[i][g].Deliveries():
				now := time.Since(start)
				if !ok {
					return fmt.Errorf("node %d group %d: closed at %d/%d", i, g, seen, want)
				}
				if len(m.Data) < minLoadPayload {
					return fmt.Errorf("node %d group %d: stray %d-byte delivery", i, g, len(m.Data))
				}
				k := binary.BigEndian.Uint64(m.Data)
				if k >= uint64(spec.Msgs) || int(k)%groups != g || int(k)%nodes != m.Src {
					return fmt.Errorf("node %d group %d: stray delivery (src %d, index %d)", i, g, m.Src, k)
				}
				if deliveredAt[i][k] != 0 {
					return fmt.Errorf("node %d group %d: message %d from %d delivered twice", i, g, k, m.Src)
				}
				deliveredAt[i][k] = now + 1
			case <-deadline:
				s, _ := ports[i][g].Stats()
				return fmt.Errorf("node %d group %d: timeout at %d/%d (stats %+v)", i, g, seen, want, s)
			case <-stop:
				return nil
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, nodes*groups) // one slot per drain
	for i := 0; i < nodes; i++ {
		for g := 0; g < groups; g++ {
			wg.Add(1)
			go func(i, g int) {
				defer wg.Done()
				errs[i*groups+g] = drain(i, g)
			}(i, g)
		}
	}

	payload := make([]byte, spec.Size)
	var sendErr error
	for k := 0; k < spec.Msgs && sendErr == nil; k++ {
		binary.BigEndian.PutUint64(payload, uint64(k))
		if spec.Rate > 0 {
			// An idle Go process parks in epoll_wait, whose timeout
			// counts in milliseconds, so a 100 µs sleep can last a whole
			// one: sleep only while the due time is further off than
			// that, then yield-spin up to it.
			due := start.Add(sendTimes[k])
			if d := time.Until(due); d > 2*time.Millisecond {
				time.Sleep(d - 2*time.Millisecond)
			}
			for time.Now().Before(due) {
				runtime.Gosched()
			}
		} else {
			sendTimes[k] = time.Since(start)
		}
		sendErr = ports[k%nodes][k%groups].Broadcast(payload)
	}
	submit := time.Since(start)
	if sendErr != nil {
		close(stop)
	}
	wg.Wait()
	if err := errors.Join(append(errs, sendErr)...); err != nil {
		return nil, err
	}

	res := &LoadResult{Latencies: make([]time.Duration, 0, spec.Msgs*nodes), Submit: submit}
	for i := range deliveredAt {
		for k, at := range deliveredAt[i] {
			at-- // undo the +1
			res.Latencies = append(res.Latencies, at-sendTimes[k])
			if at > res.Wall {
				res.Wall = at
			}
		}
	}
	slices.Sort(res.Latencies)
	return res, nil
}

// tapRealtime measures the paper's Tap — application-to-application
// transmission delay — on the real-time in-process cluster: every node
// broadcasts perSender messages unthrottled ("continuously like the
// file transfer"), and the mean Broadcast-to-delivery wall-clock delay
// over every (message, destination) pair is returned.
func tapRealtime(n, perSender int) (time.Duration, error) {
	c, err := cobcast.NewCluster(n,
		cobcast.WithDeferredAckInterval(200*time.Microsecond),
		cobcast.WithRetransmitTimeout(2*time.Millisecond),
	)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	res, err := RunLoad(MultiGroupPorts(c, n, 1), LoadSpec{Msgs: n * perSender, Size: 64}, realtimeTimeout)
	if err != nil {
		return 0, fmt.Errorf("tap: %w", err)
	}
	return mean(res.Latencies), nil
}
