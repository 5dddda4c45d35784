package experiments

import (
	"testing"
	"time"

	"cobcast"
)

// TestDueAtIsPureFunctionOfIndexAndRate pins the open-loop plan: message
// i is due exactly i/rate after the start whatever happened to earlier
// messages, so no rounding accumulates over a long run.
func TestDueAtIsPureFunctionOfIndexAndRate(t *testing.T) {
	const rate = 3000 // 333.33… µs apart: an interval that does not fit a Duration
	// An accumulated truncated interval (333333 ns) would put message
	// 3e6 at 1000 s − 1 ms.
	for i, want := range map[int]time.Duration{
		0: 0, 1: 333333 * time.Nanosecond, 3000: time.Second, 3_000_000: 1000 * time.Second,
	} {
		if got := dueAt(i, rate); got != want {
			t.Errorf("dueAt(%d) = %v, want %v", i, got, want)
		}
	}
	for i := 1; i < 100; i++ {
		if dueAt(i, rate) <= dueAt(i-1, rate) {
			t.Fatalf("schedule not increasing at %d", i)
		}
	}
}

// TestRunLoadCountsEveryDeliveryOnce drives the load driver over one
// group, several groups, a lossy network and a paced schedule. RunLoad
// itself rejects a (message, receiver) pair seen twice, a stray payload
// and a short count, so a clean return with msgs × n sorted samples is
// the exactly-once property.
func TestRunLoadCountsEveryDeliveryOnce(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, groups    int
		msgs         int
		rate         float64
		clusterExtra []cobcast.Option
	}{
		{name: "one group", n: 3, groups: 1, msgs: 60},
		{name: "four groups", n: 3, groups: 4, msgs: 62}, // 62 % 4 != 0: uneven per-group shares
		{name: "5% loss", n: 3, groups: 1, msgs: 60, clusterExtra: []cobcast.Option{cobcast.WithLossRate(0.05), cobcast.WithSeed(7)}},
		{name: "paced", n: 2, groups: 2, msgs: 40, rate: 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]cobcast.Option{
				cobcast.WithDeferredAckInterval(time.Millisecond),
				cobcast.WithRetransmitTimeout(5 * time.Millisecond),
			}, tc.clusterExtra...)
			c, err := cobcast.NewCluster(tc.n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ports := MultiGroupPorts(c, tc.n, tc.groups)
			res, err := RunLoad(ports, LoadSpec{Msgs: tc.msgs, Rate: tc.rate, Size: 32}, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(res.Latencies), tc.msgs*tc.n; got != want {
				t.Fatalf("%d samples, want msgs × n = %d", got, want)
			}
			for i, d := range res.Latencies {
				if d < 0 || (i > 0 && d < res.Latencies[i-1]) {
					t.Fatalf("sample %d = %v: negative or unsorted", i, d)
				}
			}
			if worst := res.Percentile(100); worst > res.Wall {
				t.Errorf("max latency %v exceeds the wall %v", worst, res.Wall)
			}
			if got := PortStats(ports).Delivered; got != uint64(tc.msgs*tc.n) {
				t.Errorf("engines delivered %d, want %d", got, tc.msgs*tc.n)
			}
			if tc.rate > 0 {
				if floor := dueAt(tc.msgs-1, tc.rate); res.Submit < floor {
					t.Errorf("paced submit phase %v shorter than the schedule %v", res.Submit, floor)
				}
			}
		})
	}
}

// TestRunLoadRejectsDuplicateDelivery shows the exactly-once check has
// teeth: the same message index arriving twice at one receiver fails the
// run instead of adding a sample.
func TestRunLoadRejectsDuplicateDelivery(t *testing.T) {
	c, err := cobcast.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ports := MultiGroupPorts(c, 2, 1)
	// A well-formed payload for index 0, broadcast behind RunLoad's back:
	// every node sees index 0 twice.
	if err := ports[0][0].Broadcast(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoad(ports, LoadSpec{Msgs: 4, Size: 16}, 10*time.Second); err == nil {
		t.Fatal("a message delivered twice was accepted")
	}
}
