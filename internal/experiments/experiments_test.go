package experiments

import (
	"strings"
	"testing"
	"time"

	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/simrun"
	"cobcast/internal/trace"
	"cobcast/internal/workload"
)

func TestTable1MatchesPaper(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		seq uint64
		ack [3]uint64
	}{
		"a": {1, [3]uint64{1, 1, 1}},
		"b": {1, [3]uint64{2, 1, 1}},
		"c": {2, [3]uint64{2, 1, 1}},
		"d": {1, [3]uint64{3, 1, 2}},
		"e": {3, [3]uint64{3, 2, 2}},
		"f": {4, [3]uint64{4, 2, 2}},
		"g": {2, [3]uint64{4, 2, 2}},
		"h": {2, [3]uint64{5, 3, 2}},
	}
	for name, w := range want {
		p := res.PDUs[name]
		if p == nil {
			t.Fatalf("missing PDU %q", name)
		}
		if uint64(p.SEQ) != w.seq {
			t.Errorf("%s.SEQ = %d, want %d", name, p.SEQ, w.seq)
		}
		for i := range w.ack {
			if uint64(p.ACK[i]) != w.ack[i] {
				t.Errorf("%s.ACK = %v, want %v", name, p.ACK, w.ack)
				break
			}
		}
	}
	if got := strings.Join(res.PRL, " "); got != "c b d e" {
		t.Errorf("PRL = %q, want %q", got, "c b d e")
	}
	if len(res.Delivered) != 1 || res.Delivered[0] != "a" {
		t.Errorf("Delivered = %v, want [a]", res.Delivered)
	}
	out := res.Render()
	for _, frag := range []string{"Table 1", "<5,3,2>", "PRL"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Render missing %q:\n%s", frag, out)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8([]int{2, 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TcoNsPerPDU <= 0 {
			t.Errorf("n=%d: Tco = %v", r.N, r.TcoNsPerPDU)
		}
		if r.TapMean <= 0 {
			t.Errorf("n=%d: Tap = %v", r.N, r.TapMean)
		}
		// The paper's Figure 8 has Tap well above Tco at every n.
		if float64(r.TapMean.Nanoseconds()) < r.TcoNsPerPDU {
			t.Errorf("n=%d: Tap %v below Tco %.0fns", r.N, r.TapMean, r.TcoNsPerPDU)
		}
		t.Logf("n=%d: Tco=%.0fns/PDU Tap=%v", r.N, r.TcoNsPerPDU, r.TapMean)
	}
	// Tco is O(n) — the ACK/AL/PAL vectors scale with n — so over the 8×
	// size spread it may grow ~8× plus a constant, but never the ~64× an
	// O(n²) pipeline would show. With the incremental-minima pipeline the
	// linear term is small enough that Tco(16) can even dip below Tco(2)
	// in wall-clock noise, so only the upper bound is meaningful; the
	// benchmark suite reports the full curve.
	if rows[1].TcoNsPerPDU > 20*rows[0].TcoNsPerPDU {
		t.Errorf("Tco grew superlinearly from n=2 to n=16: %.0f -> %.0f",
			rows[0].TcoNsPerPDU, rows[1].TcoNsPerPDU)
	}
}

func TestMeasureTapVirtual(t *testing.T) {
	// A1's cell at a window wide enough never to block is the plain
	// continuous workload at R = 1ms.
	rows, err := AblationWindow(3, []int{16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Remote delivery needs at least one propagation plus confirmation
	// rounds: Tap must exceed 2R in virtual time.
	if tap := rows[0].TapMean; tap < 2*time.Millisecond {
		t.Errorf("virtual Tap = %v, want >= 2ms", tap)
	}
}

func TestAckLatency2R(t *testing.T) {
	rows, err := AckLatency([]int{3, 5}, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The paper predicts acknowledgment 2R after acceptance. The
		// deferred-ack timer quantizes the confirmation rounds, so allow
		// a generous band around 2.
		if r.RatioToR < 1.5 || r.RatioToR > 6 {
			t.Errorf("n=%d: accept→deliver = %v (%.2f R), want ≈ 2R",
				r.N, r.MeanAcceptToDeliver, r.RatioToR)
		}
	}
}

func TestBufferOccupancyBounded(t *testing.T) {
	rows, err := BufferOccupancy([]int{3, 5}, []int{2, 8}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MaxResident == 0 {
			t.Errorf("n=%d w=%d: zero occupancy", r.N, r.W)
		}
		// The paper's guideline is ≈ 2nW; allow slack for control PDUs.
		if r.MaxResident > 3*r.Bound2nW+4*r.N {
			t.Errorf("n=%d w=%d: MaxResident %d far beyond 2nW=%d",
				r.N, r.W, r.MaxResident, r.Bound2nW)
		}
	}
}

func TestPDULengthLinear(t *testing.T) {
	rows := PDULength([]int{2, 4, 8, 16})
	for i := 1; i < len(rows); i++ {
		dn := rows[i].N - rows[i-1].N
		db := rows[i].HeaderBytes - rows[i-1].HeaderBytes
		if db != 8*dn {
			t.Errorf("header growth %d bytes for %d entities, want %d", db, dn, 8*dn)
		}
		if rows[i].Bytes64 != rows[i].HeaderBytes+64 {
			t.Errorf("payload accounting wrong: %+v", rows[i])
		}
	}
}

func TestWireBytesV2Reduction(t *testing.T) {
	rows, err := WireBytes([]int{8, 16}, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DTPDUs == 0 || r.V1BytesPerDT <= 0 || r.V2BytesPerDT <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		// PR 5's headline: delta stamps shed the O(n) ACK vector from
		// steady-state DT PDUs. Already at n=16 the reduction must
		// clear 50%; at n=64 the acceptance gate re-checks it.
		if r.N >= 16 && r.Reduction < 0.5 {
			t.Errorf("n=%d: v2 reduction %.1f%% (v1 %.1f B, v2 %.1f B), want >= 50%%",
				r.N, 100*r.Reduction, r.V1BytesPerDT, r.V2BytesPerDT)
		}
		if r.V2FullStamps == 0 || r.V2FullStamps >= r.DTPDUs {
			t.Errorf("n=%d: %d full stamps of %d DT PDUs — sync points or deltas missing",
				r.N, r.V2FullStamps, r.DTPDUs)
		}
	}
}

func TestRetxComparisonShape(t *testing.T) {
	rows, err := RetxComparison(4, 40, []float64{0.02, 0.2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := rows[0], rows[1]
	// Both schemes retransmit more at higher loss.
	if hi.GBNRetransmissions <= lo.GBNRetransmissions {
		t.Errorf("go-back-n: %d -> %d retransmissions", lo.GBNRetransmissions, hi.GBNRetransmissions)
	}
	// The paper's headline: selective retransmission resends only lost
	// PDUs, go-back-n resends runs of delivered ones. At high loss the
	// go-back-n retransmission count must exceed CO's.
	if hi.CORetransmitted >= hi.GBNRetransmissions {
		t.Errorf("at 20%% loss: CO retransmitted %d, go-back-n %d — expected CO lower",
			hi.CORetransmitted, hi.GBNRetransmissions)
	}
}

func TestISISCostAndLossDemo(t *testing.T) {
	rows, err := ISISCost([]int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].CONsPerPDU <= 0 || rows[0].CBCASTNsPerMsg <= 0 {
		t.Errorf("degenerate costs: %+v", rows[0])
	}
	res, err := ISISLossDemo()
	if err != nil {
		t.Fatal(err)
	}
	if res.CORetRequests == 0 {
		t.Error("CO protocol did not detect the loss")
	}
	if res.CODelivered != 2 {
		t.Errorf("CO delivered %d/2 at the lossy entity", res.CODelivered)
	}
	if res.CBCASTDelivered != 0 || res.CBCASTHeld != 1 {
		t.Errorf("CBCAST should hold forever: delivered=%d held=%d",
			res.CBCASTDelivered, res.CBCASTHeld)
	}
}

func TestMessageComplexityLinear(t *testing.T) {
	rows, err := MessageComplexity([]int{2, 4, 8}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// O(n) claim is asymptotic — constant factors dominate tiny
		// clusters, so compare against n² only from n=4 up.
		if r.N >= 4 && r.PerMessage >= float64(r.NSquared) {
			t.Errorf("n=%d: %.1f PDUs per message, at or above n²=%d",
				r.N, r.PerMessage, r.NSquared)
		}
	}
	// Growth should look linear-ish: quadrupling n (2→8) should not
	// multiply per-message PDUs by anything near 16.
	if rows[2].PerMessage > 8*rows[0].PerMessage {
		t.Errorf("per-message PDUs grew superlinearly: %v -> %v",
			rows[0].PerMessage, rows[2].PerMessage)
	}
}

func TestAblationWindowShape(t *testing.T) {
	rows, err := AblationWindow(3, []int{1, 16}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny window must block submissions; a large one should not.
	if rows[0].FlowBlocked == 0 {
		t.Error("window 1 never blocked a saturating workload")
	}
	if rows[1].FlowBlocked > rows[0].FlowBlocked {
		t.Errorf("window 16 blocked more than window 1: %d vs %d",
			rows[1].FlowBlocked, rows[0].FlowBlocked)
	}
	if rows[1].CompletionVirtual > rows[0].CompletionVirtual {
		t.Errorf("larger window slower: %v vs %v",
			rows[1].CompletionVirtual, rows[0].CompletionVirtual)
	}
}

// TestAblationDeferredAckShape pins A2's trade on a sparse lossless run:
// the finer interval pays in PDUs and gains no more than a link delay.
func TestAblationDeferredAckShape(t *testing.T) {
	rows, err := AblationDeferredAck(3, []time.Duration{time.Millisecond, 20 * time.Millisecond}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A finer interval costs confirmation traffic: its late confirmations
	// fire while data is still held.
	if rows[0].TotalPDUs <= rows[1].TotalPDUs {
		t.Errorf("1ms interval sent %d PDUs, 20ms %d: want more at 1ms",
			rows[0].TotalPDUs, rows[1].TotalPDUs)
	}
	// And it buys at most a link delay of the last delivery's time. It
	// need not buy any: on a lossless run all-heard drives every round,
	// and a late confirmation restarts the all-heard test, so the next
	// message's round 1 can wait one trip for a peer that has not spoken
	// since — here the 1ms run's last message is delivered exactly one
	// link delay later than the 20ms run's.
	const link = time.Millisecond
	t.Logf("last delivery: %v at 1ms, %v at 20ms", rows[0].LastDelivery, rows[1].LastDelivery)
	if rows[1].LastDelivery+link < rows[0].LastDelivery {
		t.Errorf("20ms interval delivered its last message more than a link delay before 1ms: %v vs %v",
			rows[1].LastDelivery, rows[0].LastDelivery)
	}
}

// TestAblationBufferShape: a 4-slot receive buffer overruns under A3's
// load, and the protocol still delivers everything (AblationBuffer
// fails on any message missing or delivered twice).
func TestAblationBufferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time experiment")
	}
	rows, err := AblationBuffer(3, []int{4, 1024}, 300)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("inbox 4: %d overruns, %d retransmitted; inbox 1024: %d overruns", rows[0].Overruns, rows[0].Retransmitted, rows[1].Overruns)
	if rows[0].Overruns == 0 {
		t.Error("a 4-slot receive buffer never overran")
	}
	if rows[1].Overruns > rows[0].Overruns {
		t.Errorf("large inbox overran more than tiny one: %d vs %d",
			rows[1].Overruns, rows[0].Overruns)
	}
}

func TestServiceComparisonMatchesTaxonomy(t *testing.T) {
	rows, err := ServiceComparison()
	if err != nil {
		t.Fatal(err)
	}
	want := []ServiceRow{
		{Service: "LO (per-source FIFO)", Local: true, Causal: false, Total: false},
		{Service: "CO protocol", Local: true, Causal: true, Total: false},
		{Service: "CO + total order", Local: true, Causal: true, Total: true},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

// TestLemma42OnProtocolStreams checks Lemma 4.2 of the paper on PDUs
// from a real protocol run. The lemma claims p ≺ q implies p's ACK
// vector is dominated by q's. That holds unconditionally for same-source
// pairs (a sender's REQ vector is monotone), and this test asserts it.
// For cross-source pairs the lemma is FALSE in general — acceptance is
// per-source in-order only, so an entity can accept p while still
// missing PDUs p's sender had already seen, and its next PDU's ACK then
// fails to dominate p's. The deterministic run below contains such a
// counterexample, which the test pins down as documentation of the
// paper's overclaim (see the soundness note in DESIGN.md).
func TestLemma42OnProtocolStreams(t *testing.T) {
	seen := make(map[trace.MsgID]*pdu.PDU)
	c, err := simrun.New(simrun.Options{
		N:   4,
		Net: []network.Option{network.WithUniformDelay(time.Millisecond), network.WithLossRate(0.05), network.WithSeed(1)},
		PDUTap: func(_, _ pdu.EntityID, p *pdu.PDU) {
			if p.Kind.Sequenced() {
				id := trace.MsgID{Src: p.Src, Seq: p.SEQ}
				if _, ok := seen[id]; !ok {
					seen[id] = p.Clone()
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewContinuous(4, 6, 16))
	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var pdus []*pdu.PDU
	for _, p := range seen {
		pdus = append(pdus, p)
	}
	if len(pdus) < 20 {
		t.Fatalf("only %d distinct PDUs captured", len(pdus))
	}
	var samePairs, crossPairs, crossViolations int
	for _, p := range pdus {
		for _, q := range pdus {
			if p == q || !pdu.CausallyPrecedes(p, q) {
				continue
			}
			if p.Src == q.Src {
				samePairs++
				for i := range p.ACK {
					if p.ACK[i] > q.ACK[i] {
						t.Fatalf("Lemma 4.2(1) violated: %v ≺ %v but ACK[%d] %d > %d",
							p, q, i, p.ACK[i], q.ACK[i])
					}
				}
				continue
			}
			crossPairs++
			// Lemma 4.2(2)'s strict own-component claim does hold: the
			// test p ≺ q *is* q's sender having accepted p.
			if p.ACK[p.Src] >= q.ACK[p.Src] {
				t.Fatalf("own-component claim violated: %v ≺ %v", p, q)
			}
			for i := range p.ACK {
				if p.ACK[i] > q.ACK[i] {
					crossViolations++
					break
				}
			}
		}
	}
	if samePairs == 0 || crossPairs == 0 {
		t.Fatalf("degenerate run: %d same-source, %d cross-source pairs", samePairs, crossPairs)
	}
	// Pin the counterexample: this seeded lossy run demonstrably violates
	// the lemma's cross-source domination claim.
	if crossViolations == 0 {
		t.Error("expected the seeded run to exhibit the documented Lemma 4.2 counterexample")
	}
	t.Logf("pairs: %d same-source ok, %d cross-source (%d dominate, %d counterexamples)",
		samePairs, crossPairs, crossPairs-crossViolations, crossViolations)
}

// TestTheorem41AgreesWithGroundTruth verifies the forward direction of
// Theorem 4.1 against vector-clock ground truth on a traced run: whenever
// the sequence-number test says p ≺ q, the real causal order agrees.
func TestTheorem41AgreesWithGroundTruth(t *testing.T) {
	seen := make(map[trace.MsgID]*pdu.PDU)
	c, err := simrun.New(simrun.Options{
		N:     3,
		Trace: true,
		Net:   []network.Option{network.WithUniformDelay(time.Millisecond)},
		PDUTap: func(_, _ pdu.EntityID, p *pdu.PDU) {
			if p.Kind.Sequenced() {
				id := trace.MsgID{Src: p.Src, Seq: p.SEQ}
				if _, ok := seen[id]; !ok {
					seen[id] = p.Clone()
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewContinuous(3, 6, 16))
	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for idP, p := range seen {
		for idQ, q := range seen {
			if p == q {
				continue
			}
			sp, sq := a.Stamp(idP), a.Stamp(idQ)
			if sp == nil || sq == nil {
				continue
			}
			if pdu.CausallyPrecedes(p, q) {
				checked++
				if !sp.Before(sq) {
					t.Fatalf("Theorem 4.1 says %v ≺ %v but stamps %v vs %v", p, q, sp, sq)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pairs checked")
	}
}

func TestMessageComplexitySoloIsLinear(t *testing.T) {
	rows, err := MessageComplexity([]int{2, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	if small.SoloPDUs == 0 || large.SoloPDUs == 0 {
		t.Fatalf("solo counts missing: %+v", rows)
	}
	// O(n): quadrupling n should scale solo cost by roughly 4x, far
	// below the 16x of O(n²).
	ratio := float64(large.SoloPDUs) / float64(small.SoloPDUs)
	if ratio > 8 {
		t.Errorf("solo cost grew %0.1fx from n=2 to n=8 (superlinear)", ratio)
	}
	if large.SoloPDUs >= uint64(large.NSquared) {
		t.Errorf("solo cost %d at/above n²=%d", large.SoloPDUs, large.NSquared)
	}
}
