package core_test

import (
	"reflect"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// loadedEntity builds an entity carrying live state in every snapshot
// dimension: a resident PRL/RRL, a non-empty send log, and traffic from
// a second source, so snapshot benches copy realistic depths.
func loadedEntity(tb testing.TB, n int) *core.Entity {
	tb.Helper()
	ents := make([]*core.Entity, 2)
	for i := range ents {
		ents[i] = newScripted(tb, scriptConfig(pdu.EntityID(i), n))
	}
	now := time.Millisecond
	for i := 0; i < 8; i++ {
		out := ents[0].Submit([]byte("snapshot-load"), now)
		for _, p := range out.PDUs {
			if _, err := ents[1].Receive(p, now); err != nil {
				tb.Fatal(err)
			}
		}
		out1 := ents[1].Submit([]byte("reply"), now)
		for _, p := range out1.PDUs {
			if _, err := ents[0].Receive(p, now); err != nil {
				tb.Fatal(err)
			}
		}
		now += time.Millisecond
	}
	return ents[0]
}

// TestSnapshotIntoMatchesSnapshot pins that the scratch-reusing path
// and the allocating path produce identical state, including when the
// scratch arrives dirty from a previous fill of a *larger* cluster.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	e := loadedEntity(t, 2)
	want := e.Snapshot()
	var got obsv.StateSnapshot
	e.SnapshotInto(&got)
	assertSnapshotEqual(t, want, got)

	// Dirty, over-sized scratch: capacity reused, length corrected.
	dirty := obsv.StateSnapshot{
		Node:      "stale",
		REQ:       make([]uint64, 9),
		MinAL:     []uint64{7, 7, 7},
		MinPAL:    []uint64{7},
		Committed: make([]uint64, 5),
		RRL:       []int{9, 9, 9, 9},
		SendLog:   42,
	}
	e.SnapshotInto(&dirty)
	assertSnapshotEqual(t, want, dirty)
}

func assertSnapshotEqual(t *testing.T, want, got obsv.StateSnapshot) {
	t.Helper()
	eqU := func(name string, a, b []uint64) {
		if len(a) != len(b) {
			t.Fatalf("%s length: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: %d vs %d", name, i, a[i], b[i])
			}
		}
	}
	eqU("REQ", want.REQ, got.REQ)
	eqU("MinAL", want.MinAL, got.MinAL)
	eqU("MinPAL", want.MinPAL, got.MinPAL)
	eqU("Committed", want.Committed, got.Committed)
	if len(want.RRL) != len(got.RRL) {
		t.Fatalf("RRL length: %d vs %d", len(want.RRL), len(got.RRL))
	}
	for i := range want.RRL {
		if want.RRL[i] != got.RRL[i] {
			t.Errorf("RRL[%d]: %d vs %d", i, want.RRL[i], got.RRL[i])
		}
	}
	// Scalars: compare via copies with the slices nilled out.
	w, g := want, got
	w.REQ, w.MinAL, w.MinPAL, w.Committed, w.RRL = nil, nil, nil, nil, nil
	g.REQ, g.MinAL, g.MinPAL, g.Committed, g.RRL = nil, nil, nil, nil, nil
	if !reflect.DeepEqual(w, g) {
		t.Errorf("scalar fields differ:\n  want %+v\n  got  %+v", w, g)
	}
}

// TestSnapshotIntoAllocFree guards the satellite fix: once the scratch
// is warm, a scrape allocates nothing.
func TestSnapshotIntoAllocFree(t *testing.T) {
	e := loadedEntity(t, 2)
	var s obsv.StateSnapshot
	e.SnapshotInto(&s) // warm the scratch (and the node label)
	if n := testing.AllocsPerRun(100, func() { e.SnapshotInto(&s) }); n != 0 {
		t.Errorf("SnapshotInto with warm scratch: %v allocs/op, want 0", n)
	}
	if prl := e.PRLSnapshot(); len(prl) != s.PRL || s.PRL == 0 {
		t.Errorf("PRLSnapshot holds %d PDUs, snapshot PRL depth %d, want equal and non-zero", len(prl), s.PRL)
	}
}

// BenchmarkSnapshotInto measures the per-scrape cost of the
// scratch-reusing snapshot path; allocs/op must stay 0.
func BenchmarkSnapshotInto(b *testing.B) {
	e := loadedEntity(b, 2)
	var s obsv.StateSnapshot
	e.SnapshotInto(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SnapshotInto(&s)
	}
}

// BenchmarkSnapshot is the allocating baseline BenchmarkSnapshotInto is
// compared against (five O(n) slices per call).
func BenchmarkSnapshot(b *testing.B) {
	e := loadedEntity(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Snapshot()
	}
}
