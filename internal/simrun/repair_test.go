package simrun

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/workload"
)

// TestZeroLossSkewRepairs reproduces the spurious repair of ROADMAP item
// 1 deterministically: with no loss at all, one slow link (0→3 at
// 2.5 ms, every other link 500 µs) lets the other entities' ACK vectors
// name entity 0's PDUs before those PDUs reach entity 3, which counts
// each as an F2 detection and asks entity 0 to retransmit PDUs that are
// still in flight. With a uniform delay the same workload repairs
// nothing. The counts are pinned as the engine stands (the two-round
// confirmation rule sends fewer SYNCs, and one fewer ACK vector names a
// PDU still in flight: F2Detections 18 → 17); item 1's fix — no first
// RET while the named source's PDU can still be in flight — drives
// RetSent, and with it Retransmitted and Duplicates, to 0.
func TestZeroLossSkewRepairs(t *testing.T) {
	for _, tc := range []struct {
		name                                   string
		delay                                  network.Option
		f2, retSent, retransmitted, duplicates uint64
	}{
		{"skewed", network.WithDelay(skewedLink), 17, 1, 1, 3},
		{"uniform", network.WithUniformDelay(500 * time.Microsecond), 0, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := run(t, Options{N: 4, Net: []network.Option{tc.delay}}, workload.NewContinuous(4, 40, 32))
			if lost := c.Net.Stats().Dropped(); lost != 0 {
				t.Fatalf("zero-loss network dropped %d PDUs", lost)
			}
			st := c.TotalStats()
			if st.F2Detections != tc.f2 || st.RetSent != tc.retSent ||
				st.Retransmitted != tc.retransmitted || st.Duplicates != tc.duplicates {
				t.Errorf("F2Detections %d, RetSent %d, Retransmitted %d, Duplicates %d; pinned %d, %d, %d, %d",
					st.F2Detections, st.RetSent, st.Retransmitted, st.Duplicates,
					tc.f2, tc.retSent, tc.retransmitted, tc.duplicates)
			}
		})
	}
}

// skewedLink delays 0→3 by 2.5 ms and every other link by 500 µs.
func skewedLink(from, to pdu.EntityID, _ *rand.Rand) time.Duration {
	if from == 0 && to == 3 {
		return 2500 * time.Microsecond
	}
	return 500 * time.Microsecond
}

// TestSkewedLinksStayLive is a liveness regression test on per-link
// delays from 300 µs to 1.5 ms, under which an entity that owes round 1
// also chases spurious holes (ROADMAP item 1): the skew draws about one
// RET and one retransmission per message. A RET confirms like an ACKONLY
// but can never be round 1, so it must not push back the deadline of an
// owed round 1. When it did, two entities that each owed round 1 sent
// only spurious RETs, one per RetransmitTimeout, each postponing its
// sender's own late round 1 again, and 4 of the 4000 deliveries never
// happened.
//
// Every message must be delivered within 100 ms of the last submission:
// a healthy delivery takes three one-way trips (under 4.5 ms here), and a
// repair adds at most a few RetransmitTimeouts of 5 ms, so 100 ms leaves
// room for a dozen chained repairs while the stall ran for seconds.
func TestSkewedLinksStayLive(t *testing.T) {
	const n, msgs = 4, 1000
	delays := [n][n]float64{ // from → to, µs; the diagonal is unused
		{1099.912, 345.798, 1159.590, 1006.613},
		{1007.433, 361.947, 922.274, 415.299},
		{955.927, 1444.554, 962.457, 1102.027},
		{853.968, 1057.327, 1360.131, 1456.806},
	}
	delay := func(from, to pdu.EntityID, _ *rand.Rand) time.Duration {
		return time.Duration(delays[from][to] * float64(time.Microsecond))
	}
	wl := func() workload.Generator { return workload.NewInteractive(n, msgs, 128, 4*time.Millisecond, 8) }
	var last time.Duration
	for g := wl(); ; {
		m, ok := g.Next()
		if !ok {
			break
		}
		last += m.Gap
	}
	c, err := New(Options{N: n, Trace: true,
		Core: core.Config{DeferredAckInterval: time.Millisecond, RetransmitTimeout: 5 * time.Millisecond},
		Net:  []network.Option{network.WithSeed(8), network.WithDelay(delay)}})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(wl())
	const bound = 100 * time.Millisecond
	if _, err := c.RunUntil(c.AllDelivered, last+bound); err != nil {
		st := c.TotalStats()
		t.Fatalf("%d of %d deliveries within %v of the last submission (at %v)",
			st.Delivered, n*msgs, bound, last)
	}
	if lost := c.Net.Stats().Dropped(); lost != 0 {
		t.Fatalf("zero-loss network dropped %d PDUs", lost)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatal(err)
	}
	lat := c.TapSamples()
	slices.Sort(lat)
	st := c.TotalStats()
	t.Logf("p50 %v, p99 %v; per message: %.2f PDUs, %.2f RET, %.2f retransmitted (all spurious: nothing was lost)",
		lat[len(lat)/2], lat[len(lat)*99/100],
		float64(st.DataSent+st.SyncSent+st.AckOnlySent+st.RetSent)/msgs,
		float64(st.RetSent)/msgs, float64(st.Retransmitted)/msgs)
}

// retTiming is the bench's repair configuration: a 1 ms retry floor and
// a 5 ms fresh-evidence spacing.
var retTiming = core.Config{DeferredAckInterval: time.Millisecond, RetransmitTimeout: 5 * time.Millisecond}

// firstEvent returns the time of entity's first event of type typ for
// (src, seq), or -1.
func firstEvent(c *Cluster, entity int, typ flight.EventType, src pdu.EntityID, seq pdu.Seq) time.Duration {
	for _, ev := range c.Streams()[entity] {
		if ev.Type == typ && ev.Src == int32(src) && ev.Seq == uint64(seq) {
			return time.Duration(ev.At)
		}
	}
	return -1
}

// TestLostRebroadcastRetriedOnRound drops one DATA of entity 0 on its way
// to entity 1 and then the rebroadcast that repairs it, on 200 µs links
// where every entity sends and so has timed its round. The unanswered
// RET is re-asked after two observed rounds and the source serves it
// after one of its own, so the hole closes about 2 ms after the
// rebroadcast was lost; with one RET timer it waited out the 5 ms
// RetransmitTimeout.
func TestLostRebroadcastRetriedOnRound(t *testing.T) {
	const n = 4
	var c *Cluster
	var target pdu.Seq
	var copies int
	var lostAt time.Duration
	drop := func(from, to pdu.EntityID, in network.Inbound) bool {
		if from != 0 || to != 1 {
			return false
		}
		for _, p := range in.PDUs {
			if p.Kind == pdu.KindData && target == 0 && p.SEQ >= 6 {
				target = p.SEQ
			}
			if p.Kind == pdu.KindData && p.SEQ == target {
				if copies++; copies == 2 {
					lostAt = c.Sim.Now()
				}
				return copies <= 2
			}
		}
		return false
	}
	c, err := New(Options{N: n, Trace: true, Core: retTiming,
		Net: []network.Option{network.WithUniformDelay(200 * time.Microsecond), network.WithDropFilter(drop)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.SubmitAt(pdu.EntityID(i%n), []byte{byte(i)}, time.Duration(i)*time.Millisecond)
	}
	if _, err := c.RunToQuiescence(virtualDeadline); err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCOService(); err != nil {
		t.Fatal(err)
	}
	if copies != 3 {
		t.Fatalf("entity 0's SEQ %d reached entity 1 on try %d, want the original and one rebroadcast lost", target, copies)
	}
	closed := firstEvent(c, 1, flight.EvAccept, 0, target) - lostAt
	t.Logf("SEQ %d: rebroadcast lost at %v, hole closed %v later", target, lostAt, closed)
	if closed > 2500*time.Microsecond {
		t.Errorf("hole closed %v after the rebroadcast was lost, want about 2 ms", closed)
	}
}

// TestFrozenSourceRetsAtCeiling freezes entity 0 with a hole of its
// stream open at entity 1 and counts the RETs entity 1 sends toward it
// until it evicts it, one suspicion window later. The retry backoff
// reaches RetransmitTimeout within a few retries, so a frozen source
// draws at most a few more RETs than one RetransmitTimeout timer sent
// (20 over this window).
func TestFrozenSourceRetsAtCeiling(t *testing.T) {
	const n, oneTimer = 4, 20
	var first pdu.Seq
	drop := func(from, to pdu.EntityID, in network.Inbound) bool {
		for _, p := range in.PDUs {
			if from == 0 && to == 1 && p.Kind == pdu.KindData && (first == 0 || p.SEQ == first) {
				first = p.SEQ
				return true
			}
		}
		return false
	}
	cfg := retTiming
	cfg.SuspectAfter = 100 * time.Millisecond
	c, err := New(Options{N: n, Trace: true, Core: cfg,
		Net: []network.Option{network.WithUniformDelay(500 * time.Microsecond), network.WithDropFilter(drop)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.SubmitAt(pdu.EntityID(i%n), []byte{byte(i)}, time.Duration(i)*time.Millisecond)
	}
	const freezeAt = 5 * time.Millisecond
	c.Sim.At(freezeAt, func() { c.Freeze(0) })
	c.Sim.RunFor(time.Second)
	var rets int
	evicted := time.Duration(-1)
	for _, ev := range c.Streams()[1] {
		switch {
		case ev.Type == flight.EvRetRequest && ev.Peer == 0 && time.Duration(ev.At) >= freezeAt:
			rets++
		case ev.Type == flight.EvEvict && ev.Peer == 0:
			evicted = time.Duration(ev.At)
		}
	}
	if evicted < 0 {
		t.Fatalf("entity 1 never evicted the frozen source (stats %+v)", c.Entities[1].Stats())
	}
	t.Logf("%d RETs toward the frozen source, evicted at %v", rets, evicted)
	if rets > oneTimer+3 {
		t.Errorf("%d RETs toward a frozen source in one suspicion window, want at most %d", rets, oneTimer+3)
	}
}
