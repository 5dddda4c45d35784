package core_test

import (
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

// TestRetRepairsEveryHole loses p1 and p3 of four PDUs from entity 0.
// The first arrival asks for p1 alone; once RetransmitTimeout has passed,
// one RET asks for the whole burst [1,4) and names the parked p2 in its
// held list, so the source serves exactly the two holes, bit-identical
// to the originals, and the repair completes the stream.
func TestRetRepairsEveryHole(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]
	p := []*pdu.PDU{nil, submit(t, e0, "m1"), submit(t, e0, "m2"), submit(t, e0, "m3"), submit(t, e0, "m4")}
	want := map[pdu.Seq]*pdu.PDU{1: p[1].Clone(), 3: p[3].Clone()}

	if out := receive(t, e1, p[2]); len(out.PDUs) != 1 || out.PDUs[0].LSeq != 2 || len(out.PDUs[0].Data) != 0 {
		t.Fatalf("first arrival: %v, want one RET for [1,2) with no held list", out.PDUs)
	}
	receive(t, e1, p[4])
	out := e1.Tick(core.DefaultRetransmitTimeout)
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindRet {
		t.Fatalf("after the timeout: %v, want one RET", out.PDUs)
	}
	ret := out.PDUs[0]
	if ret.LSrc != 0 || ret.ACK[0] != 1 || ret.LSeq != 4 || !reflect.DeepEqual(ret.Data, []byte{0x01}) {
		t.Fatalf("RET = %v, want lost=s0 range [1,4) holding {2}", ret)
	}
	if err := ret.Validate(2); err != nil {
		t.Fatalf("RET fails validation: %v", err)
	}

	served, err := e0.Receive(ret, core.DefaultRetransmitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(served.PDUs) != 2 {
		t.Fatalf("source served %v, want the two holes", served.PDUs)
	}
	for _, q := range served.PDUs {
		if !reflect.DeepEqual(q, want[q.SEQ]) {
			t.Fatalf("served %v, want a bit-identical copy of SEQ 1 or 3", q)
		}
		receive(t, e1, q)
	}
	if got := e1.REQ()[0]; got != 5 {
		t.Errorf("after repair REQ_0 = %d, want 5", got)
	}
	if st := e0.Stats(); st.Retransmitted != 2 {
		t.Errorf("Retransmitted = %d, want 2", st.Retransmitted)
	}
}

// TestSingleHoleRetBytesUnchanged pins the wire bytes of a RET whose
// burst is one hole — p1 lost, p2 and p3 parked — as they were before
// RETs carried held lists: its range stops at the first parked PDU and
// its list is empty.
func TestSingleHoleRetBytesUnchanged(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]
	submit(t, e0, "m1")
	p2, p3 := submit(t, e0, "m2"), submit(t, e0, "m3")
	receive(t, e1, p2)
	receive(t, e1, p3)
	out := e1.Tick(core.DefaultRetransmitTimeout)
	if len(out.PDUs) != 1 {
		t.Fatalf("Tick: %v, want one RET", out.PDUs)
	}
	b, err := out.PDUs[0].MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c0bc020402000200fe1f010202010100e8cfb12b"
	if got := hex.EncodeToString(b); got != want {
		t.Errorf("single-hole RET %v encodes as\n %s\nwant\n %s", out.PDUs[0], got, want)
	}
}

// TestRetDischargesRoundTwo has entity 1 of three owe round 2 for a DATA
// from entity 0 while a gap at entity 2 waits out its RET timer. The
// PDU that covers entity 0 arrives as the timer expires: the RET goes
// first and, like an ACKONLY, serves as round 2, so no SYNC follows it.
func TestRetDischargesRoundTwo(t *testing.T) {
	e, err := core.New(core.Config{ID: 1, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	recv := func(p *pdu.PDU, now time.Duration) core.Output {
		t.Helper()
		p.LSrc, p.BUF = pdu.NoEntity, core.BufferUnits
		out, err := e.Receive(p, now)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	recv(&pdu.PDU{Kind: pdu.KindData, Src: 0, SEQ: 1, ACK: []pdu.Seq{1, 1, 1}, NeedAck: true, Data: []byte("d")}, 0)
	// Entity 2's round 1 covers it; entity 1 sends its own round 1.
	if out := recv(&pdu.PDU{Kind: pdu.KindSync, Src: 2, SEQ: 1, ACK: []pdu.Seq{2, 1, 1}}, 0); len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("round 1: %v, want one SYNC", out.PDUs)
	}
	// Entity 2's SEQ 2 is lost; SEQ 3 reveals it.
	if out := recv(&pdu.PDU{Kind: pdu.KindSync, Src: 2, SEQ: 3, ACK: []pdu.Seq{2, 1, 3}}, 0); len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindRet {
		t.Fatalf("gap: %v, want one RET", out.PDUs)
	}
	before := e.Stats().DeferredConfirms
	out := recv(&pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: 2, ACK: []pdu.Seq{2, 2, 2}}, core.DefaultRetransmitTimeout)
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindRet {
		t.Fatalf("covering PDU at the RET timer: %v, want the RET alone", out.PDUs)
	}
	if got := e.Stats().DeferredConfirms; got != before {
		t.Errorf("DeferredConfirms %d → %d: round 2 went as a SYNC after the RET", before, got)
	}
}

// TestRetStraddlingTrimmedSendLog has entity 0 serve a RET whose range
// starts below its send log and ends past its next SEQ: SEQs 1–2 are
// pre-acknowledged and trimmed, 3–6 retained, and the RET asks for
// [1,10) holding 2 and 4. The source serves exactly 3, 5 and 6,
// bit-identical, refuses a second copy of the RET within the hold-off,
// and serves the same three again once the hold-off has passed.
func TestRetStraddlingTrimmedSendLog(t *testing.T) {
	ents := newScriptCluster(t, 2)
	e0, e1 := ents[0], ents[1]
	receive(t, e1, submit(t, e0, "m1"))
	receive(t, e1, submit(t, e0, "m2"))
	receive(t, e0, submit(t, e1, "carrier")) // ACK[0] = 3: 1 and 2 pre-acknowledged
	if n := e0.Snapshot().SendLog; n != 0 {
		t.Fatalf("send log holds %d PDUs after the pre-acknowledgment, want 0", n)
	}
	want := map[pdu.Seq]*pdu.PDU{}
	for _, m := range []string{"m3", "m4", "m5", "m6"} {
		p := submit(t, e0, m)
		want[p.SEQ] = p.Clone()
	}
	if s := e0.Snapshot(); s.SendLog != 4 || s.Seq != 7 {
		t.Fatalf("send log holds %d PDUs below SEQ %d, want 4 below 7", s.SendLog, s.Seq)
	}
	delete(want, 4)

	ret := &pdu.PDU{Kind: pdu.KindRet, Src: 1, LSrc: 0, LSeq: 10, ACK: []pdu.Seq{1, 2}, BUF: core.BufferUnits}
	ret.Data = pdu.AddHeld(pdu.AddHeld(nil, 1, 2), 1, 4)
	if err := ret.Validate(2); err != nil {
		t.Fatalf("RET fails validation: %v", err)
	}
	serve := func(now time.Duration) []pdu.Seq {
		t.Helper()
		out, err := e0.Receive(ret.Clone(), now)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []pdu.Seq
		for _, q := range out.PDUs {
			if w := want[q.SEQ]; w == nil || !reflect.DeepEqual(q, w) {
				t.Fatalf("served %v, want a bit-identical copy of SEQ 3, 5 or 6", q)
			}
			seqs = append(seqs, q.SEQ)
		}
		return seqs
	}
	holdOff := time.Duration(e0.Snapshot().RetryAfterUS) * time.Microsecond / 2
	if got := serve(0); !reflect.DeepEqual(got, []pdu.Seq{3, 5, 6}) {
		t.Fatalf("first RET served %v, want [3 5 6]", got)
	}
	if got := serve(holdOff - 1); len(got) != 0 {
		t.Fatalf("RET within the hold-off served %v, want nothing", got)
	}
	if got := serve(holdOff); !reflect.DeepEqual(got, []pdu.Seq{3, 5, 6}) {
		t.Fatalf("RET after the hold-off served %v, want [3 5 6]", got)
	}
	if st := e0.Stats(); st.Retransmitted != 6 {
		t.Errorf("Retransmitted = %d, want 6", st.Retransmitted)
	}
}
