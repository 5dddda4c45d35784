package core_test

import (
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
// (wild sequence numbers, huge ACK entries, inconsistent RET ranges) and
// checks the entity neither panics nor violates basic invariants.
func FuzzReceiveCrafted(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(1), uint64(1), uint64(1), uint64(1), uint8(0), uint64(0), false)
	f.Add(uint8(2), uint8(4), uint64(1<<60), uint64(9), uint64(0), uint64(1<<62), uint8(1), uint64(1<<61), true)
	f.Fuzz(func(t *testing.T, srcRaw, kindRaw uint8, seq, a0, a1, a2 uint64,
		lsrcRaw uint8, lseq uint64, need bool) {
		e, err := core.New(core.Config{ID: 0, N: 3})
		if err != nil {
			t.Fatal(err)
		}
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
		}
		for i := 0; i < 3; i++ {
			_, _ = e.Receive(p.Clone(), time.Duration(i)*time.Millisecond)
		}
		// Ticks after adversarial input must not panic either.
		for i := 0; i < 3; i++ {
			e.Tick(time.Duration(10+i) * 10 * time.Millisecond)
		}
		if e.Resident() < 0 {
			t.Fatal("negative residency")
		}
	})
}
