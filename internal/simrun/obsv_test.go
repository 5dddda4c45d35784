package simrun

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"cobcast/internal/network"
	"cobcast/internal/obsv"
	"cobcast/internal/obsv/promtext"
	"cobcast/internal/workload"
)

func runLossy(t *testing.T, reg *obsv.Registry) *Cluster {
	t.Helper()
	c, err := New(Options{
		N:        4,
		Net:      []network.Option{network.WithSeed(7), network.WithLossRate(0.15)},
		Trace:    true,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadWorkload(workload.NewContinuous(4, 30, 32))
	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRegistryDoesNotPerturbRun asserts that attaching instrumentation
// changes nothing about the protocol run: identical total counters with
// and without a registry.
func TestRegistryDoesNotPerturbRun(t *testing.T) {
	plain := runLossy(t, nil)
	instr := runLossy(t, obsv.NewRegistry())
	if p, i := plain.TotalStats(), instr.TotalStats(); p != i {
		t.Fatalf("stats diverge:\nplain %+v\ninstr %+v", p, i)
	}
}

// TestRegistryCountersMatchEntityStats asserts that the counters a
// scraper sees, rendered from the state snapshot, equal the entity's own
// Stats.
func TestRegistryCountersMatchEntityStats(t *testing.T) {
	reg := obsv.NewRegistry()
	c := runLossy(t, reg)

	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for i, e := range c.Entities {
		s := e.Stats()
		node := map[string]string{"node": strconv.Itoa(i)}
		withKind := func(kind string) map[string]string {
			return map[string]string{"node": strconv.Itoa(i), "kind": kind}
		}
		checks := []struct {
			family string
			labels map[string]string
			want   uint64
		}{
			{"cobcast_pdus_sent_total", withKind("data"), s.DataSent},
			{"cobcast_pdus_sent_total", withKind("sync"), s.SyncSent},
			{"cobcast_pdus_sent_total", withKind("ackonly"), s.AckOnlySent},
			{"cobcast_pdus_sent_total", withKind("ret"), s.RetSent},
			{"cobcast_pdus_received_total", withKind("data"), s.DataRecv},
			{"cobcast_pdus_received_total", withKind("sync"), s.SyncRecv},
			{"cobcast_pdus_received_total", withKind("ackonly"), s.AckOnlyRecv},
			{"cobcast_pdus_received_total", withKind("ret"), s.RetRecv},
			{"cobcast_accepted_total", node, s.Accepted},
			{"cobcast_duplicates_total", node, s.Duplicates},
			{"cobcast_parked_total", node, s.Parked},
			{"cobcast_loss_detections_total", map[string]string{"node": strconv.Itoa(i), "cond": "f1"}, s.F1Detections},
			{"cobcast_loss_detections_total", map[string]string{"node": strconv.Itoa(i), "cond": "f2"}, s.F2Detections},
			{"cobcast_retransmissions_served_total", node, s.Retransmitted},
			{"cobcast_ret_retries_total", node, s.RetRetries},
			{"cobcast_preacked_total", node, s.Preacked},
			{"cobcast_acked_total", node, s.Acked},
			{"cobcast_committed_total", node, s.Committed},
			{"cobcast_delivered_total", node, s.Delivered},
			{"cobcast_cpi_displaced_total", node, s.CPIDisplaced},
			{"cobcast_cpi_displacement_positions_total", node, s.CPIDisplacement},
			{"cobcast_deferred_confirms_total", node, s.DeferredConfirms},
			{"cobcast_late_confirms_total", node, s.LateConfirms},
			{"cobcast_flow_blocked_total", node, s.FlowBlocked},
			{"cobcast_invalid_pdus_total", node, s.InvalidPDUs},
		}
		for _, ch := range checks {
			got, ok := fams.Value(ch.family, ch.labels)
			if !ok {
				t.Fatalf("entity %d: %s%v has no samples", i, ch.family, ch.labels)
			}
			if uint64(got) != ch.want {
				t.Errorf("entity %d: %s%v = %v, want %d", i, ch.family, ch.labels, got, ch.want)
			}
		}
	}
}

// TestSnapshotDrainsAtQuiescence asserts that after a clean run the
// snapshots report a drained DATA pipeline: no resident, parked or
// unconfirmed DATA, no queued submissions, every entity quiescent.
// (Aggregate depths like Parked/SendLog may keep trailing SYNCs — the
// same distinction the chaos liveness check draws on Snapshot().)
func TestSnapshotDrainsAtQuiescence(t *testing.T) {
	reg := obsv.NewRegistry()
	runLossy(t, reg)
	statez := reg.Statez()
	if len(statez.Nodes) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(statez.Nodes))
	}
	for _, s := range statez.Nodes {
		if s.DataResident != 0 || s.ParkedData != 0 || s.SendLogData != 0 ||
			s.ReleasePending != 0 || s.PendingSubmits != 0 {
			t.Errorf("node %s DATA pipeline not drained: %+v", s.Node, s)
		}
		if !s.Quiescent {
			t.Errorf("node %s not quiescent", s.Node)
		}
		if s.BufFree > s.BufUnits {
			t.Errorf("node %s buffer accounting: free %d > total %d", s.Node, s.BufFree, s.BufUnits)
		}
		if len(s.REQ) != 4 || len(s.Committed) != 4 || len(s.RRL) != 4 {
			t.Errorf("node %s vector lengths: %+v", s.Node, s)
		}
	}
}
