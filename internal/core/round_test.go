package core_test

import (
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

// Tests for the late-confirmation deadline: two smoothed confirmation
// rounds, clamped to [DeferredAckInterval, RetransmitTimeout]. Entity 0
// runs the engine; its peers are scripted PDUs, so every round takes
// exactly as long as the test says.

const (
	roundFloor   = time.Millisecond
	roundCeiling = 20 * time.Millisecond
)

// roundScript drives entity 0 of an n-entity cluster against scripted
// peers in virtual time.
type roundScript struct {
	t    *testing.T
	e    *core.Entity
	seqs []pdu.Seq // each scripted peer's last SEQ
}

func newRoundScript(t *testing.T, n int, floor, ceiling time.Duration) *roundScript {
	t.Helper()
	e, err := core.New(core.Config{ID: 0, N: n, DeferredAckInterval: floor, RetransmitTimeout: ceiling})
	if err != nil {
		t.Fatal(err)
	}
	return &roundScript{t: t, e: e, seqs: make([]pdu.Seq, n)}
}

// data submits one message at now.
func (r *roundScript) data(now time.Duration) {
	r.e.Submit([]byte("m"), now)
}

// answer hands entity 0 peer src's next SYNC at now, acknowledging
// everything entity 0 has sent, and returns what entity 0 sent.
func (r *roundScript) answer(src pdu.EntityID, now time.Duration) []*pdu.PDU {
	r.t.Helper()
	return r.answerWith(pdu.KindSync, nil, src, now)
}

// answerWith is answer with a PDU of the given kind and data.
func (r *roundScript) answerWith(kind pdu.Kind, data []byte, src pdu.EntityID, now time.Duration) []*pdu.PDU {
	r.t.Helper()
	r.seqs[src]++
	ack := make([]pdu.Seq, len(r.seqs))
	for k := range ack {
		ack[k] = 1
	}
	ack[0], ack[src] = r.e.Seq(), r.seqs[src]
	out, err := r.e.Receive(&pdu.PDU{Kind: kind, Src: src, SEQ: r.seqs[src], ACK: ack, Data: data,
		LSrc: pdu.NoEntity, BUF: core.BufferUnits}, now)
	if err != nil {
		r.t.Fatal(err)
	}
	return out.PDUs
}

// round sends a DATA at now and has every live peer answer it x later.
func (r *roundScript) round(now, x time.Duration) []*pdu.PDU {
	r.data(now)
	var sent []*pdu.PDU
	for j := 1; j < len(r.seqs); j++ {
		if !r.e.Evicted(pdu.EntityID(j)) {
			sent = append(sent, r.answer(pdu.EntityID(j), now+x)...)
		}
	}
	return sent
}

// estimate returns the smoothed round and the deadline in force, as
// /statez shows them.
func (r *roundScript) estimate() (round, lateAfter time.Duration) {
	s := r.e.Snapshot()
	return time.Duration(s.RoundUS) * time.Microsecond, time.Duration(s.LateAfterUS) * time.Microsecond
}

func (r *roundScript) wantEstimate(round, lateAfter time.Duration) {
	r.t.Helper()
	if gr, gl := r.estimate(); gr != round || gl != lateAfter {
		r.t.Errorf("round %v, late after %v; want %v, %v", gr, gl, round, lateAfter)
	}
}

// TestLateAfterBeforeFirstSample pins that an entity that has timed no
// round arms today's deadline: DeferredAckInterval, with a probe still
// in flight as well as before any.
func TestLateAfterBeforeFirstSample(t *testing.T) {
	r := newRoundScript(t, 2, roundFloor, roundCeiling)
	r.wantEstimate(0, roundFloor)
	r.data(0)
	r.wantEstimate(0, roundFloor)
	// Resident data owed nothing else waits exactly the floor.
	if out := r.e.Tick(roundFloor - time.Microsecond); len(out.PDUs) != 0 {
		t.Fatalf("before the floor: %v", out.PDUs)
	}
	if out := r.e.Tick(roundFloor); len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("at the floor: %v, want one late SYNC", out.PDUs)
	}
}

// TestRoundSampleDiscardedAcrossRepair pins Karn's rule: a probe that a
// RET for this entity or an eviction spanned yields no sample, and the
// next clean probe does.
func TestRoundSampleDiscardedAcrossRepair(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(r *roundScript, now time.Duration)
	}{
		{"ret", func(r *roundScript, now time.Duration) {
			ret := &pdu.PDU{Kind: pdu.KindRet, Src: 1, ACK: []pdu.Seq{1, 1, 1},
				LSrc: 0, LSeq: 2, BUF: core.BufferUnits}
			out, err := r.e.Receive(ret, now)
			if err != nil {
				r.t.Fatal(err)
			}
			if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindData || out.PDUs[0].SEQ != 1 {
				r.t.Fatalf("RET served %v, want the DATA again", out.PDUs)
			}
		}},
		{"evict", func(r *roundScript, now time.Duration) {
			if _, err := r.e.Evict(2, now); err != nil {
				r.t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRoundScript(t, 3, roundFloor, roundCeiling)
			r.data(0)
			tc.spoil(r, roundFloor/2)
			for j := pdu.EntityID(1); j < 3; j++ {
				if !r.e.Evicted(j) {
					r.answer(j, 3*time.Millisecond)
				}
			}
			r.wantEstimate(0, roundFloor)
			r.round(10*time.Millisecond, 4*time.Millisecond)
			r.wantEstimate(4*time.Millisecond, 8*time.Millisecond)
		})
	}
}

// TestRoundProbeTimesFirstDATA pins what is timed: the first DATA sent
// while no probe is out, not a DATA sent behind it, and never a SYNC,
// which a trailing round leaves for whatever traffic comes next to
// acknowledge.
func TestRoundProbeTimesFirstDATA(t *testing.T) {
	ms := time.Millisecond
	r := newRoundScript(t, 2, roundFloor, roundCeiling)
	r.data(0)
	r.data(2 * ms)
	// The DATA were entity 0's round 1, so the answer draws round 2 only.
	if sent := r.answer(1, 5*ms); len(sent) != 1 || sent[0].Kind != pdu.KindSync {
		t.Fatalf("answer drew %v, want one SYNC, the second confirmation round", sent)
	}
	r.wantEstimate(5*ms, 10*ms)
	r.answer(1, 100*ms) // acknowledges the SYNC 95 ms on
	r.wantEstimate(5*ms, 10*ms)
}

// TestFlowBlockedLateAfterFloor pins the one exception to the observed
// round: an entity whose window holds its backlog back asks for help
// DeferredAckInterval after its last send, whatever the round.
func TestFlowBlockedLateAfterFloor(t *testing.T) {
	ms := time.Millisecond
	r := newRoundScript(t, 2, roundFloor, roundCeiling)
	r.round(0, 4*ms)
	r.wantEstimate(4*ms, 8*ms)
	now := time.Second
	for i := 0; i < 20; i++ { // W = 16 own PDUs unacknowledged, then the rest queue
		r.data(now)
	}
	if r.e.Snapshot().PendingSubmits == 0 {
		t.Fatal("nothing queued behind the window")
	}
	r.wantEstimate(4*ms, roundFloor)
	if out := r.e.Tick(now + roundFloor - time.Microsecond); len(out.PDUs) != 0 {
		t.Fatalf("before the floor: %v", out.PDUs)
	}
	out := r.e.Tick(now + roundFloor)
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindAckOnly || !out.PDUs[0].NeedAck {
		t.Fatalf("at the floor: %v, want one ACKONLY asking for answers", out.PDUs)
	}
}

// TestLateAfterClamped pins the estimator and its clamp: the first clean
// sample sets the round, later ones move it by an eighth of the
// difference, and the deadline — twice the round — never leaves
// [DeferredAckInterval, RetransmitTimeout], the floor winning when it is
// the larger.
func TestLateAfterClamped(t *testing.T) {
	type sample struct{ x, round, lateAfter time.Duration }
	ms := time.Millisecond
	for _, tc := range []struct {
		name           string
		floor, ceiling time.Duration
		samples        []sample
	}{
		{"ewma", roundFloor, roundCeiling, []sample{
			{3 * ms, 3 * ms, 6 * ms},
			{11 * ms, 4 * ms, 8 * ms}, // 3 + (11-3)/8
		}},
		{"floor", roundFloor, roundCeiling, []sample{
			{100 * time.Microsecond, 100 * time.Microsecond, roundFloor},
		}},
		{"ceiling", roundFloor, roundCeiling, []sample{
			{15 * ms, 15 * ms, roundCeiling},
		}},
		{"floor above ceiling", 30 * ms, roundCeiling, []sample{
			{100 * time.Microsecond, 100 * time.Microsecond, 30 * ms},
			{80*ms + 100*time.Microsecond, 10*ms + 100*time.Microsecond, 30 * ms},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRoundScript(t, 2, tc.floor, tc.ceiling)
			now := time.Duration(0)
			for _, s := range tc.samples {
				r.round(now, s.x)
				r.wantEstimate(s.round, s.lateAfter)
				now += s.x + time.Second
			}
		})
	}
}

// TestLateConfirmFollowsObservedRound pins the deadline in use: with the
// peer answering each DATA x after it went, the entity's confirmation
// goes at once on the answer, and the late confirmation that resident
// data still owes fires min(2x, RetransmitTimeout) after that last send,
// and not a tick before. The last answer is a DATA: the answer to a
// SYNC lets entity 0 deliver its own DATA at once, leaving nothing
// resident, while the peer's DATA stays until the peer confirms entity
// 0's SYNC.
func TestLateConfirmFollowsObservedRound(t *testing.T) {
	for _, x := range []time.Duration{3 * time.Millisecond, 12 * time.Millisecond} {
		t.Run(x.String(), func(t *testing.T) {
			r := newRoundScript(t, 2, roundFloor, roundCeiling)
			now := time.Duration(0)
			for i := 0; i < 3; i++ {
				r.round(now, x)
				now += time.Second
			}
			r.data(now)
			// One SYNC: round 2 for its own DATA (the DATA was round 1),
			// and both rounds for the peer's, whose sender it covers.
			sent := r.answerWith(pdu.KindData, []byte("p"), 1, now+x)
			if len(sent) != 1 || sent[0].Kind != pdu.KindSync {
				t.Fatalf("answer drew %v, want one SYNC, the confirmation rounds", sent)
			}
			last := now + x
			due := last + min(2*x, roundCeiling)
			lateBefore := r.e.Stats().LateConfirms
			if out := r.e.Tick(due - time.Microsecond); len(out.PDUs) != 0 {
				t.Fatalf("%v before the deadline: %v", time.Microsecond, out.PDUs)
			}
			out := r.e.Tick(due)
			if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
				t.Fatalf("at the deadline: %v, want one late SYNC", out.PDUs)
			}
			if got := r.e.Stats().LateConfirms - lateBefore; got != 1 {
				t.Errorf("LateConfirms moved by %d, want 1", got)
			}
		})
	}
}
