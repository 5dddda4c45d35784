package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestScheduleRepeatsUnderOneSeed(t *testing.T) {
	a := newSchedule(42, clusterSize, 8, 5000, time.Second)
	b := newSchedule(42, clusterSize, 8, 5000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if n := a.len(); n < 4500 || n > 5500 {
		t.Errorf("%d arrivals in 1 s at 5000/s", n)
	}
	pa, pb := make([]byte, payloadSize), make([]byte, payloadSize)
	stamp := []uint64{3, 1, 4, 1}
	for i := 0; i < a.len(); i += 97 {
		h := header{phase: 2, src: int(a.src[i]), group: int(a.group[i]), id: uint32(i), seq: uint64(i)}
		fillPayload(pa, 42, h, stamp)
		fillPayload(pb, 42, h, stamp)
		if !bytes.Equal(pa, pb) {
			t.Fatalf("message %d: same seed, different payload", i)
		}
		got := make([]uint64, clusterSize)
		if back, err := parsePayload(pa, got); err != nil || back != h || !reflect.DeepEqual(got, stamp) {
			t.Fatalf("message %d: payload round trip gave %+v %v, err %v", i, back, got, err)
		}
	}
	if c := newSchedule(43, clusterSize, 8, 5000, time.Second); reflect.DeepEqual(a.due, c.due) {
		t.Error("seeds 42 and 43 drew the same arrivals")
	}
}

// An open-loop generator that stalls must charge the stall to the
// messages that were due meanwhile: latency runs from the due time, not
// from when the generator got round to the call.
func TestLatencyCountsFromDueTimeWhenGeneratorStalls(t *testing.T) {
	const stall = 40 * time.Millisecond
	sched := newSchedule(1, clusterSize, 1, 1000, 100*time.Millisecond)
	r := newRunner(1, 1)
	stamp := make([]uint64, clusterSize)
	calls := 0
	r.broadcast = func(node, group int, payload []byte) error {
		if calls == 0 {
			time.Sleep(stall) // the system blocks the first call
		}
		calls++
		now := time.Now()
		for rcv := 0; rcv < clusterSize; rcv++ { // then delivers everywhere at once
			r.onDelivery(rcv, group, node, payload, now, stamp)
		}
		return nil
	}
	count := sched.len()
	ph := r.begin(sched, count)
	r.playPaced(ph)

	expected := int64(count) * clusterSize
	if f := ph.tally.failed(expected); f != 0 {
		t.Fatalf("%d of %d deliveries failed", f, expected)
	}
	var part pacedPart
	gather(ph, 100*time.Millisecond, &part)
	res := part.result()
	// Half the schedule was due inside the stall, on average stall/2 before
	// it ended; a latency taken from the call's start would be microseconds.
	stalled := 0
	for i, due := range ph.due {
		lat := time.Duration(ph.deliverAt[0][i]-1) - due
		if due < stall && lat < stall-due {
			t.Fatalf("message %d due at %v delivered %v after its due time, before the stall ended", i, due, lat)
		}
		if due < stall {
			stalled++
		}
	}
	if stalled < 10 {
		t.Fatalf("only %d messages fell inside the stall", stalled)
	}
	if res.lateMax < float64((stall - 5*time.Millisecond).Microseconds()) {
		t.Errorf("generator lateness max %v us, want about %v", res.lateMax, stall)
	}
	if res.latMax < float64((stall - 5*time.Millisecond).Microseconds()) {
		t.Errorf("latency max %v us does not include the stall", res.latMax)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows with medians 10, 20 and 1000: the median of the
	// medians is 20, untouched by the slow window.
	var vals []int64
	var win []int
	for w, base := range []int64{10, 20, 1000} {
		for i := int64(-2); i <= 2; i++ {
			vals = append(vals, base+i)
			win = append(win, w)
		}
	}
	var p50s, p99s []float64
	for _, w := range byWindow(vals, win, 3) {
		p50s = append(p50s, float64(percentile(w, 50)))
		p99s = append(p99s, float64(percentile(w, 99)))
	}
	if !reflect.DeepEqual(p50s, []float64{10, 20, 1000}) {
		t.Errorf("window medians = %v, want [10 20 1000]", p50s)
	}
	if m := median(p50s); m != 20 {
		t.Errorf("median of window medians = %v, want 20", m)
	}
	if m := median(p99s); m != 22 {
		t.Errorf("median of window p99s = %v, want 22", m)
	}
	// An empty window is skipped, not counted as zero.
	if got := byWindow(vals, win, 5); len(got) != 3 {
		t.Errorf("with two empty windows: %d windows, want 3", len(got))
	}
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]int64{50: 5, 90: 9, 99: 10, 100: 10, 10: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%v of 1..10 = %d, want %d", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Quartiles of 1..5 sit on samples; of 1..4 between them.
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.75: 4, 1: 5} {
		if got := quantile([]float64{5, 3, 1, 4, 2}, q); got != want {
			t.Errorf("quantile %v of 1..5 = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.75); got != 3.25 {
		t.Errorf("upper quartile of 1..4 = %v, want 3.25", got)
	}
	if got := quantile(nil, 0.75); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestCheckerFlagsViolations(t *testing.T) {
	c := newChecker(clusterSize)
	none := make([]uint64, clusterSize)
	var tl tally
	step := func(src int, seq uint64, stamp []uint64, want verdict) {
		t.Helper()
		got := c.observe(src, seq, stamp)
		if got != want {
			t.Fatalf("observe(src %d, seq %d, stamp %v) = %v, want %v", src, seq, stamp, got, want)
		}
		tl.add(got)
	}
	step(0, 0, none, deliveredOK)
	step(1, 0, []uint64{1, 0, 0, 0}, deliveredOK) // sender had seen 0's first message; so have we
	step(0, 0, none, duplicate)
	// Node 2 sent this after delivering two messages from node 1; we
	// have delivered one: its cause is missing here.
	step(2, 0, []uint64{1, 2, 0, 0}, causalityViolated)
	step(1, 2, none, outOfOrder) // 1's second message skipped
	step(1, 3, none, deliveredOK)

	got := make([]uint64, clusterSize)
	c.stamp(got)
	if want := []uint64{1, 4, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered vector %v, want %v", got, want)
	}
	// Seven deliveries were expected: three good ones arrived, one came
	// twice, two arrived wrongly, and two never came.
	const expected = 7
	if f := tl.failed(expected); f != 5 {
		t.Errorf("failed = %d, want 5 (2 wrong + 2 missing + 1 duplicate)", f)
	}
	if a := tl.arrived(); a != 5 {
		t.Errorf("arrived = %d, want 5", a)
	}
}
