package core_test

import (
	"strings"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

// Tests for the two RET timers. A RET for fresh evidence waits
// RetransmitTimeout after the previous RET for its source. A RET whose
// range is still unanswered is re-sent after the retry timeout — two
// observed rounds clamped to [DeferredAckInterval, RetransmitTimeout] —
// doubled per further retry up to RetransmitTimeout. A source re-serves
// a PDU once one of its own observed rounds has passed.

const (
	retFloor   = time.Millisecond
	retCeiling = 20 * time.Millisecond
)

// retPair returns two scripted entities (deferred confirmation off) whose
// retry timeout runs from retFloor to retCeiling.
func retPair(t *testing.T) (*core.Entity, *core.Entity) {
	t.Helper()
	var ents [2]*core.Entity
	for i := range ents {
		cfg := scriptConfig(pdu.EntityID(i), 2)
		cfg.DeferredAckInterval, cfg.RetransmitTimeout = retFloor, retCeiling
		ents[i] = newScripted(t, cfg)
	}
	return ents[0], ents[1]
}

// receiveAt hands p to e at now and fails the test on error.
func receiveAt(t *testing.T, e *core.Entity, p *pdu.PDU, now time.Duration) []*pdu.PDU {
	t.Helper()
	out, err := e.Receive(p.Clone(), now)
	if err != nil {
		t.Fatalf("Receive at %d: %v", e.ID(), err)
	}
	return out.PDUs
}

// rets returns the RETs among ps.
func rets(ps []*pdu.PDU) []*pdu.PDU {
	var out []*pdu.PDU
	for _, p := range ps {
		if p.Kind == pdu.KindRet {
			out = append(out, p)
		}
	}
	return out
}

// wantRetAt ticks e just before at, where it must send no RET, and at at,
// where it must send one RET, which it returns.
func wantRetAt(t *testing.T, e *core.Entity, at time.Duration) *pdu.PDU {
	t.Helper()
	if got := rets(e.Tick(at - time.Microsecond).PDUs); len(got) != 0 {
		t.Fatalf("RET before %v: %v", at, got)
	}
	got := rets(e.Tick(at).PDUs)
	if len(got) != 1 {
		t.Fatalf("at %v: %v, want one RET", at, got)
	}
	return got[0]
}

// timeRound has e0 time one round of x: its DATA sent at now is
// acknowledged by e1's DATA x later. It returns e0's retry timeout.
func timeRound(t *testing.T, e0, e1 *core.Entity, now, x time.Duration) time.Duration {
	t.Helper()
	receiveAt(t, e1, e0.Submit([]byte("probe"), now).PDUs[0], now)
	receiveAt(t, e0, e1.Submit([]byte("ack"), now+x).PDUs[0], now+x)
	return time.Duration(e0.Snapshot().RetryAfterUS) * time.Microsecond
}

// TestRetRequestRateLimited pins the fresh-evidence spacing: once a RET
// is answered, a new hole of the same source waits RetransmitTimeout
// after that RET, however soon it shows, so a loss burst is asked for in
// one RET.
func TestRetRequestRateLimited(t *testing.T) {
	e0, e1 := retPair(t)
	m1 := e1.Submit([]byte("m1"), 0).PDUs[0] // lost, then repaired
	m2 := e1.Submit([]byte("m2"), 0).PDUs[0]
	if got := rets(receiveAt(t, e0, m2, 0)); len(got) != 1 || got[0].LSeq != 2 {
		t.Fatalf("first gap: %v, want one RET for [1,2)", got)
	}
	receiveAt(t, e0, m1, retFloor/2) // the repair answers the RET
	e1.Submit([]byte("m3"), 0)       // lost
	m4 := e1.Submit([]byte("m4"), 0).PDUs[0]
	if got := rets(receiveAt(t, e0, m4, retFloor)); len(got) != 0 {
		t.Fatalf("fresh evidence inside RetransmitTimeout: %v", got)
	}
	if ret := wantRetAt(t, e0, retCeiling); ret.LSeq != 4 || e0.REQ()[1] != 3 {
		t.Errorf("RET %v at REQ %d, want [3,4)", ret, e0.REQ()[1])
	}
	if st := e0.Stats(); st.RetSent != 2 || st.RetRetries != 0 {
		t.Errorf("RetSent %d, RetRetries %d; want 2, 0", st.RetSent, st.RetRetries)
	}
}

// TestUnansweredRetRetriedAtFloor pins the retry before any round has
// been timed: an unanswered range is re-asked DeferredAckInterval after
// its RET, not RetransmitTimeout.
func TestUnansweredRetRetriedAtFloor(t *testing.T) {
	e0, e1 := retPair(t)
	e1.Submit([]byte("m1"), 0) // lost, and so is its rebroadcast
	m2 := e1.Submit([]byte("m2"), 0).PDUs[0]
	if got := rets(receiveAt(t, e0, m2, 0)); len(got) != 1 {
		t.Fatalf("gap: %v, want one RET", got)
	}
	if ret := wantRetAt(t, e0, retFloor); ret.LSeq != 2 {
		t.Errorf("retry %v, want the same range [1,2)", ret)
	}
	if st := e0.Stats(); st.RetSent != 2 || st.RetRetries != 1 {
		t.Errorf("RetSent %d, RetRetries %d; want 2, 1", st.RetSent, st.RetRetries)
	}
}

// TestRetRetryBacksOffToCeiling pins the retry timeout on a timed round
// of 3 ms: the first retry goes 2·srtt = 6 ms after the RET, the next
// 12 ms after that, then every RetransmitTimeout (the doubling capped).
// The stall analyzer reports the retries gone and the next one due.
func TestRetRetryBacksOffToCeiling(t *testing.T) {
	e0, e1 := retPair(t)
	const round = 3 * time.Millisecond
	if got := timeRound(t, e0, e1, 0, round); got != 2*round {
		t.Fatalf("retry timeout %v, want 2·srtt = %v", got, 2*round)
	}
	e1.Submit([]byte("m1"), 0) // lost for good
	t0 := 10 * time.Millisecond
	if got := rets(receiveAt(t, e0, e1.Submit([]byte("m2"), 0).PDUs[0], t0)); len(got) != 1 {
		t.Fatalf("gap: %v, want one RET", got)
	}
	at := t0
	for i, wait := range []time.Duration{6, 12, 20, 20} {
		at += wait * time.Millisecond
		wantRetAt(t, e0, at)
		if got := e0.Stats().RetRetries; got != uint64(i+1) {
			t.Fatalf("RetRetries %d after retry %d", got, i+1)
		}
	}
	st := findStall(e0.Stalls(at+5*time.Millisecond, 0), "parked")
	if st == nil || !strings.Contains(st.Reason, "RET outstanding for 5ms, 4 retries, next due in 15ms") {
		t.Errorf("parked stall %+v, want the retries and the next due time", st)
	}
}

// TestRetransmissionRateLimited pins the source's hold-off: a duplicate
// RET at the same instant is not served again, nor one inside the
// source's observed round (half its retry timeout of 2·srtt, 3 ms here),
// but a retry after it is, so a requester whose rebroadcast was lost is
// repaired.
func TestRetransmissionRateLimited(t *testing.T) {
	e1, e0 := retPair(t) // e0 is the source
	if got := timeRound(t, e0, e1, 0, 3*time.Millisecond); got != 6*time.Millisecond {
		t.Fatalf("source retry timeout %v, want 6ms", got)
	}
	now := 4 * time.Millisecond
	e0.Submit([]byte("m1"), now) // lost
	ret := rets(receiveAt(t, e1, e0.Submit([]byte("m2"), now).PDUs[0], now))[0]
	if out := receiveAt(t, e0, ret, now); len(out) != 1 {
		t.Fatalf("first RET: %v, want one rebroadcast", out)
	}
	for _, at := range []time.Duration{now, now + 3*time.Millisecond - time.Microsecond} {
		if out := receiveAt(t, e0, ret, at); len(out) != 0 {
			t.Errorf("RET at %v inside the hold-off amplified traffic: %v", at, out)
		}
	}
	if out := receiveAt(t, e0, ret, now+3*time.Millisecond); len(out) != 1 {
		t.Errorf("retry after the source's round: %v, want one rebroadcast", out)
	}
}
