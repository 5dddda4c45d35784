package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/msglog"
	"cobcast/internal/pdu"
)

// scriptConfig returns a configuration for hand-routed protocol scripts.
func scriptConfig(id pdu.EntityID, n int) core.Config {
	return core.Config{ID: id, N: n, Window: 64}
}

// newScripted returns an entity for a hand-routed protocol script: it
// holds a batch open that is never released, so the entity sends no
// deferred confirmation and every PDU on the wire is explicit.
func newScripted(tb testing.TB, cfg core.Config) *core.Entity {
	tb.Helper()
	e, err := core.New(cfg)
	if err != nil {
		tb.Fatalf("New(%d): %v", cfg.ID, err)
	}
	e.Hold()
	return e
}

func newScriptCluster(t *testing.T, n int) []*core.Entity {
	t.Helper()
	ents := make([]*core.Entity, n)
	for i := range ents {
		ents[i] = newScripted(t, scriptConfig(pdu.EntityID(i), n))
	}
	return ents
}

// submit broadcasts data from e and asserts exactly one PDU results.
func submit(t *testing.T, e *core.Entity, data string) *pdu.PDU {
	t.Helper()
	out := e.Submit([]byte(data), 0)
	if len(out.PDUs) != 1 {
		t.Fatalf("Submit at %d produced %d PDUs, want 1", e.ID(), len(out.PDUs))
	}
	return out.PDUs[0]
}

// receive hands p to e and fails the test on error.
func receive(t *testing.T, e *core.Entity, p *pdu.PDU) core.Output {
	t.Helper()
	out, err := e.Receive(p.Clone(), 0)
	if err != nil {
		t.Fatalf("Receive at %d: %v", e.ID(), err)
	}
	return out
}

func wantACK(t *testing.T, name string, p *pdu.PDU, seq pdu.Seq, ack ...pdu.Seq) {
	t.Helper()
	if p.SEQ != seq {
		t.Errorf("%s.SEQ = %d, want %d", name, p.SEQ, seq)
	}
	for i, a := range ack {
		if p.ACK[i] != a {
			t.Errorf("%s.ACK = %v, want %v", name, p.ACK, ack)
			return
		}
	}
}

// TestExample41Table1 replays the Figure 7 exchange and checks every SEQ
// and ACK field against Table 1 of the paper, then checks E3's resulting
// protocol state against Example 4.1: REQ = <5,3,3> and
// PRL = <a c b d e] with f, g, h still awaiting pre-acknowledgment.
//
// One documented departure (DESIGN.md §2) is asserted apart from the
// paper's values: a sequenced PDU vouches for its own acceptance at its
// source, so the diagonal AL[k][k] and PAL[k][k] run one past the SEQ in
// the source's newest vector. At E3 that moves minAL_1 from 2 to 3 at the
// checkpoint (c pre-acknowledges with a) and minPAL_3 from 1 to 2 at the
// end; nothing the paper fixes for the wire or the delivery changes.
func TestExample41Table1(t *testing.T) {
	ents := newScriptCluster(t, 3)
	e1, e2, e3 := ents[0], ents[1], ents[2]

	a := submit(t, e1, "a")
	wantACK(t, "a", a, 1, 1, 1, 1)

	receive(t, e3, a)
	b := submit(t, e3, "b")
	wantACK(t, "b", b, 1, 2, 1, 1)

	c := submit(t, e1, "c")
	wantACK(t, "c", c, 2, 2, 1, 1)

	receive(t, e2, a)
	receive(t, e2, c)
	receive(t, e2, b)
	d := submit(t, e2, "d")
	wantACK(t, "d", d, 1, 3, 1, 2)

	receive(t, e1, d)
	receive(t, e1, b)
	e := submit(t, e1, "e")
	wantACK(t, "e", e, 3, 3, 2, 2)

	f := submit(t, e1, "f")
	wantACK(t, "f", f, 4, 4, 2, 2)

	receive(t, e2, e)
	g := submit(t, e2, "g")
	wantACK(t, "g", g, 2, 4, 2, 2)

	// E3 receives the rest of the exchange and broadcasts h. Collect its
	// deliveries: the ACK action runs eagerly, so acknowledgments land
	// during these receipts.
	var delivered []core.Delivery
	collect := func(out core.Output) { delivered = append(delivered, out.Deliveries...) }

	collect(receive(t, e3, c))
	collect(receive(t, e3, d))

	// Example 4.1 checkpoint: after accepting a, c, d (plus own b),
	// REQ = <3,2,2> and a is pre-acknowledged and heads PRL.
	if got := e3.REQ(); got[0] != 3 || got[1] != 2 || got[2] != 2 {
		t.Errorf("E3 REQ = %v, want [3 2 2]", got)
	}
	prl := e3.PRLSnapshot()
	if len(prl) == 0 || prl[0].SEQ != 1 || prl[0].Src != 0 {
		t.Errorf("E3 PRL = %v, want a at its head", prl)
	}
	// The departure: the paper reads minAL_1 = 2 off c.ACK[0] = 2, but c
	// itself proves that E1 accepted it, so AL[1][1] = 3 and, with
	// d.ACK[0] = 3 and E3's own REQ[0] = 3, minAL_1 = 3: c is
	// pre-acknowledged behind a.
	if got := e3.Snapshot().MinAL[0]; got != 3 {
		t.Errorf("E3 minAL_1 = %d, want 3 (paper: 2, before the implied diagonal)", got)
	}
	if len(prl) != 2 || prl[1].SEQ != 2 || prl[1].Src != 0 {
		t.Errorf("E3 PRL = %v, want a c", prl)
	}

	collect(receive(t, e3, e))
	collect(receive(t, e3, f))
	collect(receive(t, e3, g))
	h := submit(t, e3, "h")
	wantACK(t, "h", h, 2, 5, 3, 2)

	// Example 4.1 end state at E3: REQ = <5,3,3>. The five PDUs
	// {a, c, b, d, e} were pre-acknowledged into PRL in the paper's CPI
	// order <a c b d e]; the ACK action has delivered a (minPAL_1 = 2
	// passed its SEQ), leaving PRL = <c b d e].
	if got := e3.REQ(); got[0] != 5 || got[1] != 3 || got[2] != 3 {
		t.Errorf("E3 REQ = %v, want [5 3 3]", got)
	}
	if len(delivered) != 1 || delivered[0].Src != 0 || delivered[0].SEQ != 1 ||
		string(delivered[0].Data) != "a" {
		t.Fatalf("E3 delivered %v, want just a", delivered)
	}
	prl = e3.PRLSnapshot()
	wantPRL := []struct {
		src pdu.EntityID
		seq pdu.Seq
	}{{0, 2}, {2, 1}, {1, 1}, {0, 3}} // c b d e
	if len(prl) != len(wantPRL) {
		t.Fatalf("E3 PRL has %d PDUs (%v), want 4 (c b d e)", len(prl), prl)
	}
	for i, w := range wantPRL {
		if prl[i].Src != w.src || prl[i].SEQ != w.seq {
			t.Errorf("PRL[%d] = s%d#%d, want s%d#%d", i, prl[i].Src, prl[i].SEQ, w.src, w.seq)
		}
	}
	if !msglog.IsCausalityPreserved(prl) {
		t.Error("E3 PRL is not causality-preserved")
	}
	// f, g and h are accepted but not yet pre-acknowledged.
	if rrl := e3.Snapshot().RRL; !slices.Equal(rrl, []int{1, 1, 1}) {
		t.Errorf("E3 RRL lengths = %v, want [1 1 1]", rrl)
	}
	// Acknowledgment thresholds after the exchange: only E1's PDUs below
	// 2 (just a) are known pre-acknowledged everywhere, per the paper.
	// The departure: b is too, since b itself — pre-acknowledged here —
	// proves that E3 accepted it (PAL[3][3] = 2), and e and d fold
	// PAL[3][1] = PAL[3][2] = 2. b still waits behind c in PRL.
	if got := e3.Snapshot().MinPAL; !slices.Equal(got, []uint64{2, 1, 2}) {
		t.Errorf("E3 minPAL = %v, want [2 1 2]", got)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     core.Config
		wantErr error
	}{
		{"valid", core.Config{ID: 0, N: 2}, nil},
		{"one entity", core.Config{ID: 0, N: 1}, core.ErrBadCluster},
		{"zero entities", core.Config{}, core.ErrBadCluster},
		{"id negative", core.Config{ID: -1, N: 3}, core.ErrBadID},
		{"id too large", core.Config{ID: 3, N: 3}, core.ErrBadID},
		{"no credit", core.Config{ID: 0, N: core.BufferUnits/(2*core.UnitsPerPDU) + 1}, core.ErrNoCredit},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := core.New(tt.cfg)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("New = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestReceiveRejectsBadPDUs(t *testing.T) {
	e := newScripted(t, core.Config{ID: 0, N: 2, ClusterID: 7})
	t.Run("nil", func(t *testing.T) {
		if _, err := e.Receive(nil, 0); !errors.Is(err, core.ErrNilPDU) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("wrong cluster", func(t *testing.T) {
		p := &pdu.PDU{Kind: pdu.KindSync, CID: 8, Src: 1, SEQ: 1, ACK: []pdu.Seq{1, 1}}
		if _, err := e.Receive(p, 0); !errors.Is(err, core.ErrWrongCluster) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("structurally invalid", func(t *testing.T) {
		p := &pdu.PDU{Kind: pdu.KindData, CID: 7, Src: 1, SEQ: 0, ACK: []pdu.Seq{1, 1}}
		if _, err := e.Receive(p, 0); err == nil {
			t.Error("invalid PDU accepted")
		}
	})
	if got := e.Stats().InvalidPDUs; got != 3 {
		t.Errorf("InvalidPDUs = %d, want 3", got)
	}
}

func TestFlowConditionBlocksAndDrains(t *testing.T) {
	e0 := newScripted(t, core.Config{ID: 0, N: 2, Window: 2})
	e1 := newScripted(t, core.Config{ID: 1, N: 2, Window: 2})

	out1 := e0.Submit([]byte("m1"), 0)
	out2 := e0.Submit([]byte("m2"), 0)
	out3 := e0.Submit([]byte("m3"), 0)
	if len(out1.PDUs) != 1 || len(out2.PDUs) != 1 {
		t.Fatal("first two submissions should broadcast immediately")
	}
	if len(out3.PDUs) != 0 || e0.Snapshot().PendingSubmits != 1 {
		t.Fatalf("third submission should block: pdus=%d pending=%d",
			len(out3.PDUs), e0.Snapshot().PendingSubmits)
	}
	if e0.Stats().FlowBlocked != 1 {
		t.Errorf("FlowBlocked = %d, want 1", e0.Stats().FlowBlocked)
	}

	// E1 accepts both and reports via its own broadcast; the window opens
	// and the blocked submission drains.
	receive(t, e1, out1.PDUs[0])
	receive(t, e1, out2.PDUs[0])
	ack := submit(t, e1, "ack-carrier")
	out := receive(t, e0, ack)
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindData || out.PDUs[0].SEQ != 3 {
		t.Fatalf("blocked submission did not drain: %v", out.PDUs)
	}
	if e0.Snapshot().PendingSubmits != 0 {
		t.Error("pending submission remains")
	}
}

func TestF1GapDetectionAndSelectiveRetransmission(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]

	p1 := submit(t, e0, "m1")
	p2 := submit(t, e0, "m2")
	p3 := submit(t, e0, "m3")

	// p1 and p2 are lost; p3 arrives and reveals the gap (F condition 1).
	out := receive(t, e1, p3)
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindRet {
		t.Fatalf("expected one RET, got %v", out.PDUs)
	}
	ret := out.PDUs[0]
	if ret.LSrc != 0 || ret.LSeq != 3 || ret.ACK[0] != 1 {
		t.Errorf("RET = %v, want lost=s0 range [1,3)", ret)
	}
	if e1.Stats().Parked != 1 {
		t.Errorf("Parked = %d, want 1", e1.Stats().Parked)
	}

	// The source rebroadcasts exactly the missing PDUs, bit-identical.
	out = receive(t, e0, ret)
	if len(out.PDUs) != 2 {
		t.Fatalf("retransmitted %d PDUs, want 2 (selective)", len(out.PDUs))
	}
	if out.PDUs[0].SEQ != 1 || out.PDUs[1].SEQ != 2 {
		t.Errorf("retransmitted seqs %d,%d want 1,2", out.PDUs[0].SEQ, out.PDUs[1].SEQ)
	}
	if string(out.PDUs[0].Data) != "m1" || out.PDUs[0].ACK[0] != p1.ACK[0] {
		t.Error("retransmission is not bit-identical to the original")
	}
	if e0.Stats().Retransmitted != 2 {
		t.Errorf("Retransmitted = %d, want 2", e0.Stats().Retransmitted)
	}

	// Repair arrives: all three accepted in order.
	receive(t, e1, out.PDUs[0])
	receive(t, e1, out.PDUs[1])
	if got := e1.REQ()[0]; got != 4 {
		t.Errorf("after repair REQ_0 = %d, want 4", got)
	}
	if e1.Stats().Accepted != 3 {
		t.Errorf("Accepted = %d, want 3", e1.Stats().Accepted)
	}
	_ = p2
}

func TestF2GapDetectionViaThirdParty(t *testing.T) {
	ents := newScriptCluster(t, 3)
	e0, e1, e2 := ents[0], ents[1], ents[2]

	p := submit(t, e0, "p")
	receive(t, e1, p)
	q := submit(t, e1, "q") // q.ACK[0] = 2: q pre-acknowledges p

	// e2 never saw p; q's ACK vector reveals the loss (F condition 2).
	out := receive(t, e2, q)
	var ret *pdu.PDU
	for _, m := range out.PDUs {
		if m.Kind == pdu.KindRet {
			ret = m
		}
	}
	if ret == nil {
		t.Fatalf("no RET emitted: %v", out.PDUs)
	}
	if ret.LSrc != 0 || ret.LSeq != 2 {
		t.Errorf("RET = %v, want lost=s0<2", ret)
	}
	// q itself was accepted (it is in-order from e1).
	if got := e2.REQ()[1]; got != 2 {
		t.Errorf("REQ_1 = %d, want 2", got)
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]
	p := submit(t, e0, "m")
	receive(t, e1, p)
	receive(t, e1, p)
	receive(t, e1, p)
	st := e1.Stats()
	if st.Accepted != 1 || st.Duplicates != 2 {
		t.Errorf("Accepted=%d Duplicates=%d, want 1,2", st.Accepted, st.Duplicates)
	}
}

func TestParkedDuplicateIgnored(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]
	submit(t, e0, "m1") // lost
	p2 := submit(t, e0, "m2")
	receive(t, e1, p2)
	receive(t, e1, p2) // duplicate of a parked PDU
	if st := e1.Stats(); st.Parked != 1 {
		t.Errorf("Parked = %d, want 1", st.Parked)
	}
}

func TestSendLogTrimsAfterPreack(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]
	p := submit(t, e0, "m")
	if n := e0.Snapshot().SendLog; n != 1 {
		t.Fatalf("send log holds %d PDUs, want 1", n)
	}
	receive(t, e1, p)
	ack := submit(t, e1, "carrier")
	receive(t, e0, ack)
	// e0 now knows both entities accepted p: it is pre-acknowledged and
	// leaves the retransmission log.
	if n := e0.Snapshot().SendLog; n != 0 {
		t.Errorf("send log holds %d PDUs after preack, want 0", n)
	}
}

func TestTwoEntityFullAcknowledgmentAndDelivery(t *testing.T) {
	// Drive a 2-entity cluster to full delivery by exchanging carrier
	// PDUs manually: acceptance, then pre-acknowledgment (one round),
	// then acknowledgment (a second round) — the 2R structure of §5.
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]

	p := submit(t, e0, "payload")
	var deliveries []core.Delivery

	r1 := receive(t, e1, p)
	deliveries = append(deliveries, r1.Deliveries...)
	c1 := submit(t, e1, "c1") // carries acceptance of p

	r2 := receive(t, e0, c1)
	deliveries = append(deliveries, r2.Deliveries...)
	c2 := submit(t, e0, "c2") // carries acceptance of c1; preacks p at e0

	r3 := receive(t, e1, c2)
	deliveries = append(deliveries, r3.Deliveries...)
	c3 := submit(t, e1, "c3")

	r4 := receive(t, e0, c3)
	deliveries = append(deliveries, r4.Deliveries...)
	c4 := submit(t, e0, "c4")

	r5 := receive(t, e1, c4)
	deliveries = append(deliveries, r5.Deliveries...)

	var got []string
	for _, d := range deliveries {
		got = append(got, fmt.Sprintf("s%d#%d", d.Src, d.SEQ))
	}
	// p must be delivered at both entities, before any later message.
	if len(deliveries) < 2 {
		t.Fatalf("deliveries = %v, want p delivered at both entities", got)
	}
	seen := map[pdu.EntityID]bool{}
	for _, d := range deliveries {
		if d.Src == 0 && d.SEQ == 1 {
			seen[0] = true
		}
	}
	if !seen[0] {
		t.Errorf("p never delivered: %v", got)
	}
	if string(deliveries[0].Data) != "payload" {
		t.Errorf("first delivery data = %q", deliveries[0].Data)
	}
}

func TestAckOnlyWhenWindowClosed(t *testing.T) {
	// With window 1, a second submission is blocked; the deferred-ack
	// timer must fall back to an unsequenced ACKONLY so confirmations
	// still flow.
	e0, err := core.New(core.Config{ID: 0, N: 2, Window: 1,
		DeferredAckInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out := e0.Submit([]byte("m1"), 0)
	if len(out.PDUs) != 1 {
		t.Fatalf("first submit: %v", out.PDUs)
	}
	out = e0.Submit([]byte("m2"), time.Millisecond)
	if len(out.PDUs) != 0 {
		t.Fatalf("window 1 allowed a second PDU: %v", out.PDUs)
	}
	out = e0.Tick(10 * time.Millisecond)
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindAckOnly {
		t.Fatalf("expected ACKONLY fallback, got %v", out.PDUs)
	}
	if e0.Stats().AckOnlySent != 1 {
		t.Errorf("AckOnlySent = %d, want 1", e0.Stats().AckOnlySent)
	}
}

func TestDeferredSyncAfterHearingAllPeers(t *testing.T) {
	// An idle entity that accepted a DATA PDU from every peer owes the
	// cluster confirmations and emits a SYNC immediately (deferred
	// confirmation trigger 1: heard from everyone since last send).
	e2, err := core.New(core.Config{ID: 2, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	p0 := &pdu.PDU{Kind: pdu.KindData, Src: 0, SEQ: 1, ACK: []pdu.Seq{1, 1, 1},
		NeedAck: true, LSrc: pdu.NoEntity, Data: []byte("x"), BUF: 4096}
	out, err := e2.Receive(p0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 0 {
		t.Fatalf("after one peer: %v (should still wait)", out.PDUs)
	}
	p1 := &pdu.PDU{Kind: pdu.KindData, Src: 1, SEQ: 1, ACK: []pdu.Seq{2, 1, 1},
		NeedAck: true, LSrc: pdu.NoEntity, Data: []byte("y"), BUF: 4096}
	out, err = e2.Receive(p1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("after all peers: %v, want one SYNC", out.PDUs)
	}
	if got := out.PDUs[0].ACK; got[0] != 2 || got[1] != 2 || got[2] != 1 {
		t.Errorf("SYNC ACK = %v, want [2 2 1]", got)
	}
}

func TestDeferredSyncOnTimer(t *testing.T) {
	// Hearing from only one of two peers: the SYNC comes from the timer.
	e2, err := core.New(core.Config{ID: 2, N: 3, DeferredAckInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p0 := &pdu.PDU{Kind: pdu.KindData, Src: 0, SEQ: 1, ACK: []pdu.Seq{1, 1, 1},
		NeedAck: true, LSrc: pdu.NoEntity, Data: []byte("x"), BUF: 4096}
	out, err := e2.Receive(p0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 0 {
		t.Fatalf("immediate: %v", out.PDUs)
	}
	if out := e2.Tick(2 * time.Millisecond); len(out.PDUs) != 0 {
		t.Fatalf("before timer: %v", out.PDUs)
	}
	out2 := e2.Tick(6 * time.Millisecond)
	if len(out2.PDUs) != 1 || out2.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("after timer: %v, want one SYNC", out2.PDUs)
	}
}

func TestQuiescentEntityStaysSilent(t *testing.T) {
	e, err := core.New(core.Config{ID: 0, N: 2, DeferredAckInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Quiescent() {
		t.Error("fresh entity not quiescent")
	}
	for i := 1; i <= 10; i++ {
		if out := e.Tick(time.Duration(i) * 10 * time.Millisecond); len(out.PDUs) != 0 {
			t.Fatalf("idle entity spoke: %v", out.PDUs)
		}
	}
	// A SYNC that needs no answer does not wake it either.
	s := &pdu.PDU{Kind: pdu.KindSync, Src: 1, SEQ: 1, ACK: []pdu.Seq{1, 1},
		LSrc: pdu.NoEntity, BUF: 4096}
	out, err := e.Receive(s, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 0 {
		t.Errorf("NeedAck=false SYNC provoked a response: %v", out.PDUs)
	}
	if out := e.Tick(300 * time.Millisecond); len(out.PDUs) != 0 {
		t.Errorf("still talking: %v", out.PDUs)
	}
}

func TestNeedAckSyncGetsResponse(t *testing.T) {
	e, err := core.New(core.Config{ID: 0, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := &pdu.PDU{Kind: pdu.KindSync, Src: 1, SEQ: 1, ACK: []pdu.Seq{1, 1},
		NeedAck: true, LSrc: pdu.NoEntity, BUF: 4096}
	out, err := e.Receive(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("NeedAck SYNC got %v, want one SYNC response", out.PDUs)
	}
	if out.PDUs[0].NeedAck {
		t.Error("response should not itself demand responses (no data resident)")
	}
}

func TestMaxResidentTracked(t *testing.T) {
	// With a third, silent entity, nothing can be pre-acknowledged, so
	// all accepted PDUs stay resident in e1's RRL.
	ents := newScriptCluster(t, 3)
	e0, e1 := ents[0], ents[1]
	for i := 0; i < 5; i++ {
		receive(t, e1, submit(t, e0, "m"))
	}
	if got := e1.Stats().MaxResident; got < 5 {
		t.Errorf("MaxResident = %d, want >= 5", got)
	}
	if got := e1.Resident(); got < 5 {
		t.Errorf("Resident = %d, want >= 5", got)
	}
	if n := e1.Snapshot().RRL[0]; n != 5 {
		t.Errorf("RRL(0) = %d, want 5 (third entity silent)", n)
	}
}

// TestLyingACKDoesNotWedge feeds an adversarial PDU whose ACK vector
// claims receipt of PDUs that were never sent. The protocol is not
// Byzantine-tolerant — the lie inflates knowledge — but it must neither
// panic nor block legitimate traffic between honest entities.
func TestLyingACKDoesNotWedge(t *testing.T) {
	ents := newScriptCluster(t, 3)
	e0, e1 := ents[0], ents[1]

	liar := &pdu.PDU{
		Kind: pdu.KindAckOnly, Src: 2,
		ACK: []pdu.Seq{1 << 40, 1 << 40, 1 << 40},
		BUF: 1 << 20, LSrc: pdu.NoEntity,
	}
	receive(t, e0, liar)
	receive(t, e1, liar)

	// Honest exchange still works end to end.
	p := submit(t, e0, "honest")
	receive(t, e1, p)
	c1 := submit(t, e1, "c1")
	out := receive(t, e0, c1)
	_ = out
	if got := e0.REQ()[1]; got != 2 {
		t.Fatalf("REQ after honest exchange = %d, want 2", got)
	}
	if e0.Stats().InvalidPDUs != 0 {
		t.Fatalf("honest traffic rejected: %+v", e0.Stats())
	}
}

// TestRetForUnknownRangeIgnored sends an RET for PDUs never sent: the
// source must not emit anything (nothing in the send log).
func TestRetForUnknownRangeIgnored(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0 := ents[0]
	ret := &pdu.PDU{
		Kind: pdu.KindRet, Src: 1,
		ACK: []pdu.Seq{5, 1}, LSrc: 0, LSeq: 9,
	}
	out, err := e0.Receive(ret, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 0 {
		t.Fatalf("retransmitted nonexistent PDUs: %v", out.PDUs)
	}
}

// TestStatsAddCoversEveryField sets every Stats field by reflection and
// checks Add accumulated it: counters by sum, MaxResident by maximum. A
// counter added to Stats but not to Add — the drift that made two
// hand-written aggregators disagree — fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one core.Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Int:
			f.SetInt(1)
		default:
			t.Fatalf("Stats.%s has kind %v: teach Add and this test about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum core.Stats
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if name == "MaxResident" {
			if sum.MaxResident != 1 {
				t.Errorf("MaxResident = %d after adding two peaks of 1, want the maximum 1", sum.MaxResident)
			}
		} else if n := got.Field(i).Uint(); n != 2 {
			t.Errorf("%s = %d after adding 1 twice, want 2", name, n)
		}
	}
}

// TestReceiveRefusesContractViolators hands entity 1 of three one
// sequenced PDU per way of breaking the honest-sender contract, after
// an honest DATA from entity 0 (SEQ 1, ACK [1 1 2]) set the bar for
// clause 2. Each is refused with its typed error and counted in
// InvalidPDUs, and none is accepted.
func TestReceiveRefusesContractViolators(t *testing.T) {
	e := newScripted(t, scriptConfig(1, 3))
	honest := &pdu.PDU{Kind: pdu.KindData, Src: 0, SEQ: 1, ACK: []pdu.Seq{1, 1, 2}, LSrc: pdu.NoEntity, Data: []byte("m")}
	if _, err := e.Receive(honest, 0); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		p    *pdu.PDU
		want error
	}{
		{"clause 1: own entry past SEQ", &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: 2, ACK: []pdu.Seq{3, 1, 2}}, pdu.ErrBadOwnACK},
		{"clause 2: entry below the predecessor's", &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: 2, ACK: []pdu.Seq{2, 1, 1}}, core.ErrACKRegressed},
		{"own source, SEQ not sent", &pdu.PDU{Kind: pdu.KindSync, Src: 1, SEQ: 1, ACK: []pdu.Seq{2, 1, 1}}, core.ErrNotSent},
	}
	for i, tt := range tests {
		tt.p.LSrc = pdu.NoEntity
		_, err := e.Receive(tt.p, time.Duration(i+1))
		if !errors.Is(err, tt.want) {
			t.Errorf("%s: Receive = %v, want %v", tt.name, err, tt.want)
		}
		if got := e.Stats().InvalidPDUs; got != uint64(i+1) {
			t.Errorf("%s: InvalidPDUs = %d, want %d", tt.name, got, i+1)
		}
	}
	if s := e.Stats(); s.Accepted != 1 || e.Seq() != 1 {
		t.Errorf("accepted %d PDUs, SEQ %d: want only the honest DATA and SEQ 1", s.Accepted, e.Seq())
	}
}
