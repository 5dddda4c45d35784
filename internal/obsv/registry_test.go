package obsv_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cobcast/internal/obsv"
	"cobcast/internal/obsv/promtext"
)

// entityCounters is a distinctive value in every entity counter so
// renders are distinguishable from zero defaults.
var entityCounters = obsv.EntityStats{
	DataSent: 1, SyncSent: 2, AckOnlySent: 3, RetSent: 4,
	DataRecv: 5, SyncRecv: 6, AckOnlyRecv: 7, RetRecv: 8,
	Accepted: 9, Duplicates: 10, Parked: 11,
	F1Detections: 12, F2Detections: 13, Retransmitted: 14,
	Preacked: 15, Acked: 16, Committed: 17, Delivered: 18,
	CPIDisplaced: 19, CPIDisplacement: 20, DeferredConfirms: 21,
	FlowBlocked: 22, InvalidPDUs: 23, LateConfirms: 24,
}

func testRegistry() *obsv.Registry {
	reg := obsv.NewRegistry()
	em := obsv.NewEntityMetrics()
	em.DeliverLatencyUS.Observe(120)
	em.AckWaitUS.Observe(3000)
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
			Counters: entityCounters,
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

// TestEveryEntityStatsFieldOnMetrics sets each EntityStats field, found
// by reflection, to a distinct value and requires that value in the
// sample of the family naming that field: a counter added to
// EntityStats without a /metrics family (or without a row here) fails.
func TestEveryEntityStatsFieldOnMetrics(t *testing.T) {
	kind := func(k string) map[string]string { return map[string]string{"node": "0", "kind": k} }
	cond := func(c string) map[string]string { return map[string]string{"node": "0", "cond": c} }
	node := map[string]string{"node": "0"}
	type sample struct {
		family string
		labels map[string]string
	}
	families := map[string]sample{
		"DataSent":         {"cobcast_pdus_sent_total", kind("data")},
		"SyncSent":         {"cobcast_pdus_sent_total", kind("sync")},
		"AckOnlySent":      {"cobcast_pdus_sent_total", kind("ackonly")},
		"RetSent":          {"cobcast_pdus_sent_total", kind("ret")},
		"MsgsSent":         {"cobcast_msgs_sent_total", node},
		"RetRetries":       {"cobcast_ret_retries_total", node},
		"DataRecv":         {"cobcast_pdus_received_total", kind("data")},
		"SyncRecv":         {"cobcast_pdus_received_total", kind("sync")},
		"AckOnlyRecv":      {"cobcast_pdus_received_total", kind("ackonly")},
		"RetRecv":          {"cobcast_pdus_received_total", kind("ret")},
		"Accepted":         {"cobcast_accepted_total", node},
		"Duplicates":       {"cobcast_duplicates_total", node},
		"Parked":           {"cobcast_parked_total", node},
		"F1Detections":     {"cobcast_loss_detections_total", cond("f1")},
		"F2Detections":     {"cobcast_loss_detections_total", cond("f2")},
		"Retransmitted":    {"cobcast_retransmissions_served_total", node},
		"Preacked":         {"cobcast_preacked_total", node},
		"Acked":            {"cobcast_acked_total", node},
		"Committed":        {"cobcast_committed_total", node},
		"Delivered":        {"cobcast_delivered_total", node},
		"CPIDisplaced":     {"cobcast_cpi_displaced_total", node},
		"CPIDisplacement":  {"cobcast_cpi_displacement_positions_total", node},
		"DeferredConfirms": {"cobcast_deferred_confirms_total", node},
		"LateConfirms":     {"cobcast_late_confirms_total", node},
		"FlowBlocked":      {"cobcast_flow_blocked_total", node},
		"MaxResident":      {"cobcast_max_resident_pdus", node},
		"InvalidPDUs":      {"cobcast_invalid_pdus_total", node},
		"Evicted":          {"cobcast_evicted_total", node},
		"AutoSuspected":    {"cobcast_auto_suspected_total", node},
		"PressureEvicted":  {"cobcast_pressure_evictions_total", node},
	}

	var st obsv.EntityStats
	v := reflect.ValueOf(&st).Elem()
	want := make(map[string]float64, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		val := 1000 + i
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(val))
		case reflect.Int:
			f.SetInt(int64(val))
		default:
			t.Fatalf("EntityStats.%s: unexpected kind %s", v.Type().Field(i).Name, f.Kind())
		}
		want[v.Type().Field(i).Name] = float64(val)
	}
	reg := obsv.NewRegistry()
	reg.RegisterNode("0", nil, nil, func() (obsv.StateSnapshot, bool) {
		// A ledgered node, so the ledger series (pressure evictions)
		// render too.
		return obsv.StateSnapshot{Node: "0", LedgerBudget: 1, Counters: st}, true
	})
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
	for name, w := range want {
		s, ok := families[name]
		if !ok {
			t.Errorf("EntityStats.%s names no /metrics family", name)
			continue
		}
		if got, ok := fams.Value(s.family, s.labels); !ok || got != w {
			t.Errorf("EntityStats.%s: %s%v = %v (present %v), want %v", name, s.family, s.labels, got, ok, w)
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
