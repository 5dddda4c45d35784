package core_test

import (
	"reflect"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

// FuzzReceiveWire feeds arbitrary datagrams (decoded through the real
// wire codec, as the UDP runtime does) into an entity: whatever arrives,
// Receive must never panic and must preserve the entity's ability to
// make progress with a legitimate peer afterwards.
func FuzzReceiveWire(f *testing.F) {
	good := &pdu.PDU{Kind: pdu.KindData, CID: 7, Src: 1, SEQ: 1,
		ACK: []pdu.Seq{1, 1, 1}, BUF: 100, LSrc: pdu.NoEntity, Data: []byte("hi")}
	b, err := good.MarshalV2(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	ret := &pdu.PDU{Kind: pdu.KindRet, CID: 7, Src: 2,
		ACK: []pdu.Seq{1, 1, 1}, LSrc: 0, LSeq: 5}
	b2, err := ret.MarshalV2(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b2)
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := core.New(core.Config{ID: 0, N: 3, ClusterID: 7})
		if err != nil {
			t.Fatal(err)
		}
		p, err := pdu.UnmarshalV2(data, new(pdu.StampDecoder))
		if err != nil {
			return // the runtime drops undecodable datagrams
		}
		_, _ = e.Receive(p, 0) // may error; must not panic
		// The entity must still function.
		out := e.Submit([]byte("after"), time.Millisecond)
		if len(out.PDUs) == 0 && e.Snapshot().PendingSubmits == 0 {
			t.Fatal("entity wedged after fuzzed PDU")
		}
	})
}

// FuzzReceiveCrafted builds structurally valid but adversarial PDUs
// (wild sequence numbers, huge ACK entries, inconsistent RET ranges and
// held lists, ACK vectors that go backwards) and checks the entity
// neither panics nor violates basic invariants. The entity has sent four
// DATA PDUs first, so a RET for it has something to serve: it may serve
// only SEQs of the RET's range its held list does not name, and nothing
// at all in answer to any other PDU. It hands the entity each PDU three
// times, as a shared network does, and checks Receive never wrote it.
//
// Bit 4 of back follows the PDU with a second sequenced PDU from the
// same source at SEQ+1, its own ACK entry SEQ+1, whose ACK entries
// picked by bits 0–2 are one lower: a source's successive vectors need
// not be monotone on the wire. The honest-sender contract refuses such a
// successor at the door (its own entry lowered) or at acceptance (any
// other), and every fold before that must keep the larger value.
//
// Bit 5 turns on TotalOrder, so the release stage sees the crafted
// commits. Bit 6 sets SuspectAfter to 20 ms: the entity owes the
// cluster confirmations from its first DATA on, so the closing ticks at
// 100–120 ms evict every peer that has stayed silent, through the one
// eviction path, on whatever state the crafted input left.
func FuzzReceiveCrafted(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(1), uint64(1), uint64(1), uint64(1), uint8(0), uint64(0), false, uint8(0), []byte(nil))
	f.Add(uint8(2), uint8(4), uint64(1<<60), uint64(9), uint64(0), uint64(1<<62), uint8(1), uint64(1<<61), true, uint8(0x15), []byte(nil))
	// RETs for entity 0 with held lists: naming SEQs 2 and 3 of [1,5);
	// naming SEQs 2–8 of [1,9), of which the source never sent 5–8;
	// naming SEQs 2–9 on [1,5), past the range's end; a list on a
	// one-hole range and one longer than its range, both invalid.
	f.Add(uint8(1), uint8(3), uint64(0), uint64(1), uint64(1), uint64(1), uint8(0), uint64(5), false, uint8(0), []byte{0x03})
	f.Add(uint8(2), uint8(3), uint64(0), uint64(1), uint64(1), uint64(1), uint8(0), uint64(9), true, uint8(0), []byte{0x7f})
	f.Add(uint8(1), uint8(3), uint64(0), uint64(1), uint64(1), uint64(1), uint8(0), uint64(5), false, uint8(0), []byte{0xff})
	f.Add(uint8(1), uint8(3), uint64(0), uint64(3), uint64(1), uint64(1), uint8(0), uint64(3), false, uint8(0), []byte{0x01})
	f.Add(uint8(1), uint8(3), uint64(0), uint64(1), uint64(1), uint64(1), uint8(0), uint64(5), false, uint8(0), []byte{0x01, 0x01})
	// A DATA far ahead of its source's stream and an ACK entry further
	// still: the requester's RET must not size a held list on that span.
	f.Add(uint8(1), uint8(0), uint64(1<<60), uint64(1), uint64(1<<60|1), uint64(1<<62), uint8(0), uint64(0), false, uint8(0), []byte(nil))
	// A DATA then a SYNC from source 1 whose entries for 0 and 2 fall
	// back from 3 to 2.
	f.Add(uint8(1), uint8(0), uint64(1), uint64(3), uint64(1), uint64(3), uint8(0), uint64(0), true, uint8(0x15), []byte(nil))
	// Total order: an in-order DATA from source 1 that has accepted
	// entity 0's four DATA, and its successor. Nothing commits while
	// entity 2 is silent, so suspicion is on too: the closing ticks evict
	// both peers and the release stage delivers all six messages.
	f.Add(uint8(1), uint8(0), uint64(1), uint64(5), uint64(1), uint64(1), uint8(0), uint64(0), true, uint8(0x70), []byte(nil))
	// Suspicion: a SYNC from source 2 far ahead of its stream, then the
	// silence that gets both peers evicted with its gap still open.
	f.Add(uint8(2), uint8(1), uint64(7), uint64(1), uint64(1), uint64(7), uint8(0), uint64(0), false, uint8(0x40), []byte(nil))
	f.Fuzz(func(t *testing.T, srcRaw, kindRaw uint8, seq, a0, a1, a2 uint64,
		lsrcRaw uint8, lseq uint64, need bool, back uint8, held []byte) {
		kinds := []pdu.Kind{pdu.KindData, pdu.KindSync, pdu.KindAckOnly, pdu.KindRet}
		p := &pdu.PDU{
			Kind:    kinds[int(kindRaw)%len(kinds)],
			Src:     pdu.EntityID(srcRaw % 3),
			ACK:     []pdu.Seq{pdu.Seq(a0), pdu.Seq(a1), pdu.Seq(a2)},
			NeedAck: need,
			LSrc:    pdu.NoEntity,
		}
		if p.Kind.Sequenced() {
			p.SEQ = pdu.Seq(seq | 1)
		}
		if p.Kind == pdu.KindRet {
			p.LSrc = pdu.EntityID(lsrcRaw % 3)
			p.LSeq = pdu.Seq(lseq | 1)
			p.Data = held
		}
		in := []*pdu.PDU{p}
		if back&0x10 != 0 {
			q := &pdu.PDU{Kind: pdu.KindSync, Src: p.Src, SEQ: p.SEQ + 1,
				ACK: append([]pdu.Seq(nil), p.ACK...), NeedAck: need, LSrc: pdu.NoEntity}
			q.ACK[q.Src] = q.SEQ
			if p.Kind == pdu.KindData {
				q.Kind, q.Data = pdu.KindData, []byte("next")
			}
			for k := range q.ACK {
				if back&(1<<k) != 0 && q.ACK[k] > 0 {
					q.ACK[k]--
				}
			}
			in = append(in, q)
		}
		want := make([]*pdu.PDU, len(in))
		for i, p := range in {
			want[i] = p.Clone()
		}
		cfg := core.Config{ID: 0, N: 3, TotalOrder: back&0x20 != 0}
		if back&0x40 != 0 {
			cfg.SuspectAfter = 20 * time.Millisecond
		}
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			e.Submit([]byte{byte(i)}, 0)
		}
		sent := e.Seq()
		for j, p := range in {
			servable := p.Kind == pdu.KindRet && p.LSrc == 0 && p.Validate(3) == nil
			for i := 0; i < 3; i++ {
				out, _ := e.Receive(p, time.Duration(3*j+i)*time.Millisecond)
				for _, q := range out.PDUs {
					if !q.Kind.Sequenced() || q.SEQ >= sent {
						continue // a control PDU or a fresh confirmation
					}
					if !servable || q.SEQ < p.ACK[0] || q.SEQ >= p.LSeq || p.Holds(q.SEQ) {
						t.Fatalf("served SEQ %d in answer to %v", q.SEQ, want[j])
					}
				}
			}
		}
		// Ticks after adversarial input must not panic either.
		for i := 0; i < 3; i++ {
			e.Tick(time.Duration(10+i) * 10 * time.Millisecond)
		}
		if e.Resident() < 0 {
			t.Fatal("negative residency")
		}
		for j, p := range in {
			if !reflect.DeepEqual(p, want[j]) {
				t.Fatalf("Receive wrote the PDU: %+v, was %+v", p, want[j])
			}
		}
	})
}
