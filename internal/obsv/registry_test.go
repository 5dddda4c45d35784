package obsv_test

import (
	"bytes"
	"strings"
	"testing"

	"cobcast/internal/obsv"
	"cobcast/internal/obsv/promtext"
)

// populateEntity bumps a distinctive value into every entity counter so
// renders are distinguishable from zero defaults.
func populateEntity(m *obsv.EntityMetrics) {
	m.DataSent.Add(1)
	m.SyncSent.Add(2)
	m.AckOnlySent.Add(3)
	m.RetSent.Add(4)
	m.DataRecv.Add(5)
	m.SyncRecv.Add(6)
	m.AckOnlyRecv.Add(7)
	m.RetRecv.Add(8)
	m.Accepted.Add(9)
	m.Duplicates.Add(10)
	m.Parked.Add(11)
	m.F1Detections.Add(12)
	m.F2Detections.Add(13)
	m.RetServed.Add(14)
	m.Preacked.Add(15)
	m.Acked.Add(16)
	m.Committed.Add(17)
	m.Delivered.Add(18)
	m.CPIDisplaced.Add(19)
	m.CPIDisplacement.Add(20)
	m.DeferredConfirms.Add(21)
	m.FlowBlocked.Add(22)
	m.InvalidPDUs.Add(23)
	m.LateConfirms.Add(24)
	m.DeliverLatencyUS.Observe(120)
	m.AckWaitUS.Observe(3000)
}

func testRegistry() *obsv.Registry {
	reg := obsv.NewRegistry()
	em := obsv.NewEntityMetrics()
	populateEntity(em)
	lm := obsv.NewLinkMetrics()
	lm.Flush(4, true)
	lm.Flush(1, false)
	snap := func() (obsv.StateSnapshot, bool) {
		return obsv.StateSnapshot{
			Node: "0", Seq: 7,
			REQ: []uint64{8, 8}, MinAL: []uint64{7, 7}, MinPAL: []uint64{7, 7},
			Committed: []uint64{7, 7}, RRL: []int{1, 2},
			PRL: 3, ARL: 4, Parked: 0, SendLog: 5, PendingSubmits: 0,
			BufFree: 4000, BufUnits: 4096, Quiescent: false,
		}, true
	}
	reg.RegisterNode("0", em, lm, snap)

	var tm obsv.TransportMetrics
	tm.Sent.Add(100)
	tm.Received.Add(90)
	tm.Overrun.Add(2)
	reg.RegisterTransport("0", &tm)

	var nm obsv.NetworkMetrics
	nm.Sent.Add(500)
	nm.Delivered.Add(450)
	nm.DroppedLoss.Add(40)
	nm.DroppedOverrun.Add(7)
	nm.DroppedPartition.Add(3)
	reg.RegisterNetwork("memnet", &nm)
	return reg
}

func TestWriteMetricsIsValidPrometheusText(t *testing.T) {
	reg := testRegistry()
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}

	checks := []struct {
		family string
		labels map[string]string
		want   float64
	}{
		{"cobcast_pdus_sent_total", map[string]string{"node": "0", "kind": "data"}, 1},
		{"cobcast_pdus_sent_total", map[string]string{"node": "0", "kind": "ret"}, 4},
		{"cobcast_pdus_received_total", map[string]string{"node": "0", "kind": "sync"}, 6},
		{"cobcast_loss_detections_total", map[string]string{"cond": "f1"}, 12},
		{"cobcast_loss_detections_total", map[string]string{"cond": "f2"}, 13},
		{"cobcast_retransmissions_served_total", map[string]string{"node": "0"}, 14},
		{"cobcast_committed_total", nil, 17},
		{"cobcast_cpi_displaced_total", nil, 19},
		{"cobcast_cpi_displacement_positions_total", nil, 20},
		{"cobcast_deferred_confirms_total", nil, 21},
		{"cobcast_late_confirms_total", nil, 24},
		{"cobcast_link_flushed_pdus_total", nil, 5},
		{"cobcast_link_early_flushes_total", nil, 1},
		{"cobcast_transport_datagrams_sent_total", map[string]string{"transport": "0"}, 100},
		{"cobcast_net_pdus_dropped_total", map[string]string{"cause": "loss"}, 40},
		{"cobcast_net_pdus_dropped_total", map[string]string{"cause": "partition"}, 3},
		{"cobcast_seq", map[string]string{"node": "0"}, 7},
		{"cobcast_rrl_depth", nil, 3}, // summed over sources: 1+2
		{"cobcast_sendlog_pdus", nil, 5},
		{"cobcast_buf_free_units", nil, 4000},
		{"cobcast_quiescent", nil, 0},
	}
	for _, c := range checks {
		got, ok := fams.Value(c.family, c.labels)
		if !ok {
			t.Errorf("%s%v: no samples", c.family, c.labels)
			continue
		}
		if got != c.want {
			t.Errorf("%s%v = %v, want %v", c.family, c.labels, got, c.want)
		}
	}

	for _, hist := range []string{"cobcast_deliver_latency_us", "cobcast_ack_wait_us", "cobcast_link_flush_batch_pdus"} {
		f, ok := fams[hist]
		if !ok {
			t.Errorf("histogram family %s missing", hist)
			continue
		}
		if f.Type != "histogram" {
			t.Errorf("%s type = %s", hist, f.Type)
		}
	}
}

func TestRegistryUniqueLabels(t *testing.T) {
	reg := obsv.NewRegistry()
	a := reg.RegisterNode("0", obsv.NewEntityMetrics(), nil, nil)
	b := reg.RegisterNode("0", obsv.NewEntityMetrics(), nil, nil)
	if a == b {
		t.Fatalf("duplicate labels not disambiguated: %q vs %q", a, b)
	}
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := promtext.Parse(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("invalid exposition with duplicate registrations: %v", err)
	}
	if !strings.Contains(buf.String(), `node="`+b+`"`) {
		t.Fatalf("disambiguated label %q not rendered", b)
	}
}

func TestStatezSortsAndSkipsDeclined(t *testing.T) {
	reg := obsv.NewRegistry()
	mk := func(node string, ok bool) obsv.SnapshotFunc {
		return func() (obsv.StateSnapshot, bool) {
			return obsv.StateSnapshot{Node: node, Seq: 1}, ok
		}
	}
	reg.RegisterNode("2", nil, nil, mk("2", true))
	reg.RegisterNode("0", nil, nil, mk("0", true))
	reg.RegisterNode("1", nil, nil, mk("1", false)) // declines: omitted
	s := reg.Statez()
	if len(s.Nodes) != 2 {
		t.Fatalf("got %d nodes, want 2 (declined snapshot not skipped)", len(s.Nodes))
	}
	if s.Nodes[0].Node != "0" || s.Nodes[1].Node != "2" {
		t.Fatalf("not sorted by node: %v, %v", s.Nodes[0].Node, s.Nodes[1].Node)
	}
}

func TestNilRegistryRegistrationIsSafe(t *testing.T) {
	var reg *obsv.Registry
	reg.RegisterNode("0", nil, nil, nil)
	reg.RegisterTransport("0", nil)
	reg.RegisterNetwork("x", nil)
}
