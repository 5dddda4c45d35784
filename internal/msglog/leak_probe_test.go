package msglog

import (
	"testing"

	"cobcast/internal/pdu"
)

// TestProbeHeadGrowth runs sustained push/pop through a Queue, once
// draining it every cycle and once at a standing depth that never
// drains: in both, the head index and the backing array stay bounded by
// the depth, not by the number of PDUs that passed through.
func TestProbeHeadGrowth(t *testing.T) {
	for _, depth := range []int{0, 5, 100} {
		var q Queue
		seq := pdu.Seq(1)
		for ; int(seq) <= depth; seq++ {
			q.Insert(&pdu.PDU{SEQ: seq})
		}
		for i := 0; i < 100000; i++ {
			q.Insert(&pdu.PDU{SEQ: seq})
			seq++
			q.Dequeue()
		}
		if q.Len() != depth {
			t.Fatalf("depth %d: Len = %d", depth, q.Len())
		}
		if bound := 2*depth + 130; q.head > bound || cap(q.pdus) > 2*bound {
			t.Errorf("depth %d: head %d, len %d, cap %d grew past %d", depth, q.head, len(q.pdus), cap(q.pdus), bound)
		}
	}
}
