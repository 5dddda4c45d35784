package core_test

import (
	"fmt"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

// benchPair wires two entities back-to-back, exchanging outputs inline.
func benchExchange(b *testing.B, n int, totalOrder bool) {
	ents := make([]*core.Entity, n)
	for i := range ents {
		e, err := core.New(core.Config{
			ID: pdu.EntityID(i), N: n,
			Window:     1 << 20,
			TotalOrder: totalOrder,
		})
		if err != nil {
			b.Fatal(err)
		}
		ents[i] = e
	}
	payload := make([]byte, 64)
	now := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		src := i % n
		out := ents[src].Submit(payload, now)
		for _, p := range out.PDUs {
			for j := range ents {
				if j == src {
					continue
				}
				o, err := ents[j].Receive(p.Clone(), now)
				if err != nil {
					b.Fatal(err)
				}
				// Second-order traffic is dropped to keep the benchmark
				// focused on the Submit/Receive path cost.
				_ = o
			}
		}
	}
}

// BenchmarkSubmitReceive measures one data broadcast fanned to every
// peer, the protocol's hot path, by cluster size and service level.
func BenchmarkSubmitReceive(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		n := n
		b.Run(fmt.Sprintf("CO/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			benchExchange(b, n, false)
		})
	}
	b.Run("TO/n=4", func(b *testing.B) {
		b.ReportAllocs()
		benchExchange(b, 4, true)
	})
}

// BenchmarkTickIdle measures the cost of a timer tick on a quiescent
// entity (the steady-state background load).
func BenchmarkTickIdle(b *testing.B) {
	e, err := core.New(core.Config{ID: 0, N: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tick(time.Duration(i) * time.Millisecond)
	}
}

// BenchmarkDuplicateRejection measures the duplicate fast path.
func BenchmarkDuplicateRejection(b *testing.B) {
	e := newScripted(b, core.Config{ID: 0, N: 3})
	p := &pdu.PDU{Kind: pdu.KindData, Src: 1, SEQ: 1,
		ACK: []pdu.Seq{1, 1, 1}, LSrc: pdu.NoEntity, Data: []byte("x")}
	if _, err := e.Receive(p.Clone(), 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Receive(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}
