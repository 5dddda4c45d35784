package core_test

import (
	"errors"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

func TestEvictValidation(t *testing.T) {
	e := newScripted(t, core.Config{ID: 0, N: 3})
	if _, err := e.Evict(0, 0); !errors.Is(err, core.ErrSelfEvict) {
		t.Errorf("self-evict: %v", err)
	}
	if _, err := e.Evict(5, 0); err == nil {
		t.Error("out-of-range evict accepted")
	}
	if e.Evicted(1) {
		t.Error("entity 1 evicted without cause")
	}
	if _, err := e.Evict(1, 0); err != nil {
		t.Fatal(err)
	}
	if !e.Evicted(1) {
		t.Error("eviction not recorded")
	}
	// Idempotent.
	if _, err := e.Evict(1, 0); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", e.Stats().Evicted)
	}
}

// TestEvictUnblocksAcknowledgment reproduces the failure the extension
// exists for: a silent third entity freezes the 2-entity exchange's
// acknowledgments; evicting it releases the deliveries immediately.
func TestEvictUnblocksAcknowledgment(t *testing.T) {
	ents := newScriptCluster(t, 3)
	e0, e1 := ents[0], ents[1]

	// A full exchange between e0 and e1, with entity 2 dead silent.
	p := submit(t, e0, "payload")
	receive(t, e1, p)
	carriers := []*pdu.PDU{
		submit(t, e1, "c1"), // e1 confirms p
	}
	receive(t, e0, carriers[0])
	carriers = append(carriers, submit(t, e0, "c2"))
	receive(t, e1, carriers[1])
	carriers = append(carriers, submit(t, e1, "c3"))
	out := receive(t, e0, carriers[2])

	// Entity 2 never confirmed anything: nothing can be delivered.
	if len(out.Deliveries) != 0 {
		t.Fatalf("deliveries with a dead quorum member: %v", out.Deliveries)
	}
	if got := e0.Snapshot().MinAL[0]; got != 1 {
		t.Fatalf("minAL_0 = %d with silent member, want 1", got)
	}

	// Evict the dead entity at both survivors: the quorum shrinks and
	// the pipeline drains.
	evOut, err := e0.Evict(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range evOut.Deliveries {
		if d.Src == 0 && string(d.Data) == "payload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("eviction did not unblock delivery: %v", evOut.Deliveries)
	}
	if _, err := e1.Evict(2, 0); err != nil {
		t.Fatal(err)
	}
}

// TestAutoSuspicion lets the suspicion timer evict a peer that stays
// silent while confirmations are owed.
func TestAutoSuspicion(t *testing.T) {
	cfg := core.Config{
		ID: 0, N: 3,
		DeferredAckInterval: time.Millisecond,
		SuspectAfter:        50 * time.Millisecond,
	}
	e0, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ID = 1
	e1, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// e0 broadcasts; e1 responds; entity 2 stays dead. Exchange their
	// PDUs and tick past the suspicion timeout.
	now := time.Duration(0)
	outs := e0.Submit([]byte("m"), now)
	pending := outs.PDUs
	var delivered int
	for i := 0; i < 200; i++ {
		now += 2 * time.Millisecond
		var next []*pdu.PDU
		for _, p := range pending {
			if p.Src == 0 {
				o, err := e1.Receive(p.Clone(), now)
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, o.PDUs...)
			} else {
				o, err := e0.Receive(p.Clone(), now)
				if err != nil {
					t.Fatal(err)
				}
				delivered += len(o.Deliveries)
				next = append(next, o.PDUs...)
			}
		}
		o0 := e0.Tick(now)
		delivered += len(o0.Deliveries)
		o1 := e1.Tick(now)
		pending = append(next, append(o0.PDUs, o1.PDUs...)...)
	}
	if !e0.Evicted(2) || !e1.Evicted(2) {
		t.Fatalf("silent entity not suspected: e0=%v e1=%v (stats %+v)",
			e0.Evicted(2), e1.Evicted(2), e0.Stats())
	}
	if e0.Stats().AutoSuspected == 0 {
		t.Error("AutoSuspected not counted")
	}
	if delivered == 0 {
		t.Error("message never delivered after suspicion")
	}
}

// TestNoSuspicionWhenQuiescent ensures idle silence is never suspicious.
func TestNoSuspicionWhenQuiescent(t *testing.T) {
	e, err := core.New(core.Config{
		ID: 0, N: 3,
		DeferredAckInterval: time.Millisecond,
		SuspectAfter:        10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		e.Tick(time.Duration(i) * 10 * time.Millisecond)
	}
	if e.Evicted(1) || e.Evicted(2) {
		t.Error("quiescent entity suspected its peers")
	}
}

// TestEvictedSourceDoesNotHoldRoundTwo: round 2 waits until every live
// peer's vector passes the newest accepted DATA of every source. A DATA
// from a source that is then evicted may never reach the other peers,
// so the eviction drops that column from the test and round 2 goes out
// at once instead of on the deferred-ack timer.
func TestEvictedSourceDoesNotHoldRoundTwo(t *testing.T) {
	e0, err := core.New(core.Config{ID: 0, N: 3, DeferredAckInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	data := &pdu.PDU{Kind: pdu.KindData, Src: 2, SEQ: 1, ACK: []pdu.Seq{1, 1, 1},
		NeedAck: true, LSrc: pdu.NoEntity, Data: []byte("x"), BUF: 4096}
	if out, err := e0.Receive(data, 0); err != nil || len(out.PDUs) != 0 {
		t.Fatalf("DATA from 2: %v, %v (want silence until 1 is heard)", out.PDUs, err)
	}
	// Entity 1 speaks without having seen entity 2's DATA: all-heard fires
	// round 1, but 1 stays uncovered in column 2.
	sync := &pdu.PDU{Kind: pdu.KindSync, Src: 1, SEQ: 1, ACK: []pdu.Seq{1, 1, 1},
		LSrc: pdu.NoEntity, BUF: 4096}
	out, err := e0.Receive(sync, time.Millisecond)
	if err != nil || len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("round 1: %v, %v (want one SYNC)", out.PDUs, err)
	}
	out, err = e0.Evict(2, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync || out.PDUs[0].NeedAck {
		t.Fatalf("after evicting 2: %v, want round 2 (one SYNC, no NeedAck)", out.PDUs)
	}
	if s := e0.Stats(); s.DeferredConfirms != 2 || s.LateConfirms != 0 {
		t.Errorf("DeferredConfirms %d, LateConfirms %d; want 2 rounds, none late", s.DeferredConfirms, s.LateConfirms)
	}
}

// TestEvictionVoidsRoundProbe: Karn's rule on both eviction paths. A
// probe that an eviction spans timed the wait for the evicted peer, not
// a confirmation round, so its sample is discarded whether the peer was
// evicted by hand or by the suspicion timer. Twin 3-entity clusters in
// which entity 2 never speaks: one evicts it at 60 ms with Evict, the
// other through SuspectAfter = 50 ms; both must end with the same
// round estimate and retry timeout, those of a cluster with no sample.
func TestEvictionVoidsRoundProbe(t *testing.T) {
	run := func(suspectAfter, evictAt time.Duration) (roundUS, retryUS int64) {
		var ents [2]*core.Entity
		for i := range ents {
			e, err := core.New(core.Config{
				ID: pdu.EntityID(i), N: 3,
				DeferredAckInterval: time.Millisecond,
				RetransmitTimeout:   20 * time.Millisecond,
				SuspectAfter:        suspectAfter,
			})
			if err != nil {
				t.Fatal(err)
			}
			ents[i] = e
		}
		pending := ents[0].Submit([]byte("m"), 0).PDUs
		for now := time.Millisecond; now <= 100*time.Millisecond; now += time.Millisecond {
			var next []*pdu.PDU
			for _, p := range pending {
				o, err := ents[1-p.Src].Receive(p.Clone(), now)
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, o.PDUs...)
			}
			for _, e := range ents {
				if now == evictAt {
					o, err := e.Evict(2, now)
					if err != nil {
						t.Fatal(err)
					}
					next = append(next, o.PDUs...)
				}
				next = append(next, e.Tick(now).PDUs...)
			}
			pending = next
		}
		for i, e := range ents {
			if !e.Evicted(2) {
				t.Fatalf("entity %d never evicted the silent peer", i)
			}
		}
		s := ents[0].Snapshot()
		return s.RoundUS, s.RetryAfterUS
	}
	manualRound, manualRetry := run(0, 60*time.Millisecond)
	autoRound, autoRetry := run(50*time.Millisecond, 0)
	if autoRound != manualRound || autoRetry != manualRetry {
		t.Errorf("suspicion left round %d µs, retry %d µs; Evict left %d µs, %d µs",
			autoRound, autoRetry, manualRound, manualRetry)
	}
	if manualRound != 0 || manualRetry != time.Millisecond.Microseconds() {
		t.Errorf("Evict left round %d µs, retry %d µs; want no sample: 0, 1000", manualRound, manualRetry)
	}
}
