package cobcast

import (
	"fmt"
	"testing"

	"cobcast/internal/groups"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

func TestGroupMetricsSlotBounded(t *testing.T) {
	nd := &Node{}
	for i := 0; i < statezGroupLimit; i++ {
		if !nd.groupMetricsSlot() {
			t.Fatalf("slot %d refused below the bound", i)
		}
	}
	for i := 0; i < 4; i++ {
		if nd.groupMetricsSlot() {
			t.Fatal("slot granted past the bound")
		}
	}
}

// nullBatchTransport swallows frames so only the shard-side staging code
// runs; it implements BatchTransport to exercise the staged-batch path.
type nullBatchTransport struct{ broadcasts, batches int }

func (tr *nullBatchTransport) Broadcast([]byte) error { tr.broadcasts++; return nil }
func (tr *nullBatchTransport) BroadcastBatch(b [][]byte) error {
	tr.batches++
	return nil
}
func (tr *nullBatchTransport) Recv() <-chan []byte { return nil }
func (tr *nullBatchTransport) Close() error        { return nil }

// TestGroupFramesSteadyStateAllocs requires the wire send hot path —
// Append onto per-group in-progress frames, Flush sealing one frame per
// group into one staged batch — to be allocation-free once the per-group
// states and build buffers exist, for group 0 (the single-group path,
// v2 header) as for v3-addressed groups. The public Broadcast
// necessarily copies its payload, but from the shard goroutine down to
// the transport no allocation may remain.
func TestGroupFramesSteadyStateAllocs(t *testing.T) {
	for _, gs := range [][]uint32{{7, 9, 400}, {0}} {
		t.Run(fmt.Sprintf("groups%v/v2", gs), func(t *testing.T) {
			tr := &nullBatchTransport{}
			f := groups.NewWireFrames(tr, obsv.NewLinkMetrics(), 0)
			p := &pdu.PDU{
				Kind: pdu.KindData, CID: 1, Src: 0, SEQ: 0,
				ACK: make([]pdu.Seq, 4), LSrc: pdu.NoEntity,
				Data: make([]byte, 64),
			}
			step := func() {
				for _, g := range gs {
					p.SEQ++
					f.Append(g, p)
				}
				f.Flush()
			}
			// Warm up: instantiate per-group send states, grow the build
			// buffers and the staged slice to their steady-state sizes.
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
				t.Errorf("Append+Flush allocates %.2f per op in steady state, want 0", allocs)
			}
			if len(gs) > 1 && tr.batches == 0 {
				t.Fatal("staged-batch path never taken")
			}
			if len(gs) == 1 && tr.broadcasts == 0 {
				t.Fatal("single-frame path never taken")
			}
		})
	}
}

func TestGroupNameFoldsIntoWireRange(t *testing.T) {
	// Group IDs must fit the v3 header's 28-bit field whatever the name.
	for _, name := range []string{"", "a", "costarring", "liquid", "déjà vu", "x/y/z"} {
		g := Group(name)
		if uint32(g) > 0x0FFFFFFF {
			t.Errorf("Group(%q) = %d exceeds MaxGroupID", name, g)
		}
		if g == DefaultGroup {
			t.Errorf("Group(%q) mapped to the default group", name)
		}
	}
}
