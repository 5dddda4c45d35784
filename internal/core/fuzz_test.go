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
		if len(out.PDUs) == 0 && e.PendingSubmits() == 0 {
			t.Fatal("entity wedged after fuzzed PDU")
		}
	})
}

// FuzzReceiveCrafted builds structurally valid but adversarial PDUs
// (wild sequence numbers, huge ACK entries, inconsistent RET ranges and
// held lists, any Delta annotation) and checks the entity neither panics
// nor violates basic invariants. The entity has sent four DATA PDUs
// first, so a RET for it has something to serve: it may serve only SEQs
// of the RET's range its held list does not name, and nothing at all in
// answer to any other PDU. It hands the entity the same PDU three times,
// as a shared network does, and checks Receive never wrote it — with the
// sparse fold and with DenseFold.
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
	f.Add(uint8(1), uint8(0), uint64(1<<60), uint64(1), uint64(1<<62), uint64(1), uint8(0), uint64(0), false, uint8(0), []byte(nil))
	f.Fuzz(func(t *testing.T, srcRaw, kindRaw uint8, seq, a0, a1, a2 uint64,
		lsrcRaw uint8, lseq uint64, need bool, deltaRaw uint8, held []byte) {
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
		// Bit 4 attaches a Delta; bits 0–3 pick its indices, index 3
		// being out of range for n = 3.
		if deltaRaw&0x10 != 0 {
			p.Delta = []pdu.Seq{}
			for k := pdu.Seq(0); k < 4; k++ {
				if deltaRaw&(1<<k) != 0 {
					p.Delta = append(p.Delta, k)
				}
			}
		}
		want := p.Clone().OwnDelta()
		servable := p.Kind == pdu.KindRet && p.LSrc == 0 && p.Validate(3) == nil
		for _, dense := range []bool{false, true} {
			e, err := core.New(core.Config{ID: 0, N: 3, DenseFold: dense})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				e.Submit([]byte{byte(i)}, 0)
			}
			sent := e.Seq()
			for i := 0; i < 3; i++ {
				out, _ := e.Receive(p, time.Duration(i)*time.Millisecond)
				for _, q := range out.PDUs {
					if !q.Kind.Sequenced() || q.SEQ >= sent {
						continue // a control PDU or a fresh confirmation
					}
					if !servable || q.SEQ < p.ACK[0] || q.SEQ >= p.LSeq || p.Holds(q.SEQ) {
						t.Fatalf("DenseFold=%v: served SEQ %d in answer to %v", dense, q.SEQ, want)
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
			if !reflect.DeepEqual(p, want) {
				t.Fatalf("DenseFold=%v: Receive wrote the PDU: %+v, was %+v", dense, p, want)
			}
		}
	})
}
