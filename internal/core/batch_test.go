package core

// White-box tests for input batches (Hold/Release): inside a batch every
// input runs every stage but the deferred confirmation, which the close
// decides once on the state after the last input.

import (
	"slices"
	"testing"
	"time"

	"cobcast/internal/pdu"
)

// batchPeerData is scripted peer 1's s-th DATA in a two-entity cluster:
// it has heard nothing from entity 0, so entity 0 owes a round 1 on each.
func batchPeerData(s pdu.Seq) *pdu.PDU {
	return &pdu.PDU{Kind: pdu.KindData, Src: 1, SEQ: s, ACK: []pdu.Seq{1, s},
		Data: []byte("m"), LSrc: pdu.NoEntity, BUF: BufferUnits}
}

func newBatchEntity(t *testing.T) *Entity {
	t.Helper()
	e, err := New(Config{ID: 0, N: 2, DeferredAckInterval: time.Millisecond, RetransmitTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBatchSendsOneConfirmation feeds k DATA PDUs that each draw a SYNC
// when fed one at a time, and feeds them to a twin inside one batch: the
// twin sends nothing until the close, then one SYNC whose ACK vector is
// REQ after the last input, and ends owing the rounds the unbatched
// entity ends owing.
func TestBatchSendsOneConfirmation(t *testing.T) {
	const k = 4
	single, batched := newBatchEntity(t), newBatchEntity(t)
	if !batched.Hold() {
		t.Fatal("Hold on a fresh entity opened no batch")
	}
	if batched.Hold() {
		t.Fatal("a second Hold reported a new batch")
	}
	for i := 1; i <= k; i++ {
		now := time.Duration(i) * time.Microsecond
		su, err := single.Receive(batchPeerData(pdu.Seq(i)), now)
		if err != nil {
			t.Fatal(err)
		}
		if len(su.PDUs) != 1 || su.PDUs[0].Kind != pdu.KindSync {
			t.Fatalf("unbatched input %d sent %v, want one SYNC", i, kinds(su.PDUs))
		}
		checkInvariants(t, single, i)
		sb, err := batched.Receive(batchPeerData(pdu.Seq(i)), now)
		if err != nil {
			t.Fatal(err)
		}
		if len(sb.PDUs) != 0 {
			t.Fatalf("batched input %d sent %v before the close", i, kinds(sb.PDUs))
		}
		if len(sb.Deliveries) != len(su.Deliveries) {
			t.Fatalf("batched input %d delivered %d, unbatched %d", i, len(sb.Deliveries), len(su.Deliveries))
		}
		checkInvariants(t, batched, i)
	}
	req := batched.REQ()
	out := batched.Release(k * time.Microsecond)
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("close sent %v, want one SYNC", kinds(out.PDUs))
	}
	if len(out.Deliveries) != 0 {
		t.Fatalf("close delivered %d messages", len(out.Deliveries))
	}
	if got := out.PDUs[0].ACK; !slices.Equal(got, req) {
		t.Fatalf("SYNC ACK = %v, want REQ after the last input %v", got, req)
	}
	checkInvariants(t, batched, k+1)
	if batched.rounds != single.rounds {
		t.Fatalf("rounds = %d after the close, %d fed one at a time", batched.rounds, single.rounds)
	}
	if st, su := batched.Stats(), single.Stats(); st.SyncSent != 1 || su.SyncSent != k || st.Committed != su.Committed {
		t.Fatalf("SyncSent batched %d unbatched %d; committed %d vs %d", st.SyncSent, su.SyncSent, st.Committed, su.Committed)
	}
	if out := batched.Release(k * time.Microsecond); len(out.PDUs) != 0 {
		t.Fatalf("Release with no batch open sent %v", kinds(out.PDUs))
	}
	// Closed, the entity confirms per input again.
	out, err := batched.Receive(batchPeerData(k+1), (k+1)*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PDUs) != 1 || out.PDUs[0].Kind != pdu.KindSync {
		t.Fatalf("input after the close sent %v, want one SYNC", kinds(out.PDUs))
	}
}

// TestBatchKeepsOwedSince: inputs inside a batch still start the
// late-confirmation clock, so a batch cannot make a late confirmation
// later than the inputs fed one at a time would.
func TestBatchKeepsOwedSince(t *testing.T) {
	e := newBatchEntity(t)
	e.Hold()
	if _, err := e.Receive(batchPeerData(1), 3*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !e.owed || e.owedSince != 3*time.Microsecond {
		t.Fatalf("owed %v since %v inside a batch, want since 3µs", e.owed, e.owedSince)
	}
	e.Release(9 * time.Microsecond)
	if e.owedSince != 3*time.Microsecond {
		t.Fatalf("the close moved owedSince to %v", e.owedSince)
	}
}

func kinds(ps []*pdu.PDU) []pdu.Kind {
	var ks []pdu.Kind
	for _, p := range ps {
		ks = append(ks, p.Kind)
	}
	return ks
}
