package flight

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestRecordAndSnapshot(t *testing.T) {
	r := NewRing(8)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	r.Record(0, EvSequence, 1, 0, 1, -1, 100)
	r.Record(0, EvWireOut, 1, 0, 1, -1, 110)
	r.Record(1, EvRetRequest, 0, 2, 7, 2, 120)

	evs := r.Snapshot(nil)
	if len(evs) != 3 {
		t.Fatalf("Snapshot len = %d, want 3: %+v", len(evs), evs)
	}
	want := []Event{
		{At: 100, Type: EvSequence, TypeName: "sequence", Src: 0, Seq: 1, Kind: 1, Peer: -1},
		{At: 110, Type: EvWireOut, TypeName: "wire-out", Src: 0, Seq: 1, Kind: 1, Peer: -1},
		{Entity: 1, At: 120, Type: EvRetRequest, TypeName: "ret-request", Src: 2, Seq: 7, Kind: 0, Peer: 2},
	}
	for i, w := range want {
		if evs[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], w)
		}
	}
}

func TestWrapAroundKeepsNewest(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 100; i++ {
		r.Record(0, EvAccept, 1, int32(i%4), uint64(i), -1, int64(i))
	}
	if got := r.Recorded(); got != 100 {
		t.Fatalf("Recorded = %d, want 100", got)
	}
	evs := r.Snapshot(nil)
	if len(evs) != 8 {
		t.Fatalf("Snapshot len = %d, want 8", len(evs))
	}
	// The retained window is the last 8 records, oldest first.
	for i, ev := range evs {
		if want := uint64(92 + i); ev.Seq != want || ev.At != int64(want) {
			t.Errorf("event %d: seq=%d at=%d, want %d", i, ev.Seq, ev.At, want)
		}
	}
}

// TestLogNeverWraps: a log grows past its initial size and keeps every
// event, each with the entity that recorded it.
func TestLogNeverWraps(t *testing.T) {
	r := NewLog()
	const total = 3*DefaultEvents + 5
	for i := 0; i < total; i++ {
		r.Record(int32(i%3), EvAccept, 1, 0, uint64(i), -1, int64(i))
	}
	if r.Recorded() != total || r.Cap() < total {
		t.Fatalf("Recorded %d, Cap %d, want %d kept", r.Recorded(), r.Cap(), total)
	}
	evs := r.Snapshot(nil)
	if len(evs) != total {
		t.Fatalf("Snapshot len = %d, want %d", len(evs), total)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Entity != int32(i%3) {
			t.Fatalf("event %d: seq=%d entity=%d", i, ev.Seq, ev.Entity)
		}
	}
}

// TestEventJSONRoundTrip: a decoded /tracez event has its Type back.
func TestEventJSONRoundTrip(t *testing.T) {
	r := NewRing(4)
	r.Record(3, EvRetServe, 1, 3, 9, 0, 77)
	want := r.Snapshot(nil)[0]
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip %s: got %+v, want %+v", b, got, want)
	}
}

func TestSizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultEvents}, {-1, DefaultEvents}, {1, 1}, {3, 4}, {8, 8}, {1000, 1024},
	} {
		if got := NewRing(tc.in).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Record(0, EvAccept, 1, 0, 1, -1, 0) // must not panic
	if r.Cap() != 0 || r.Recorded() != 0 {
		t.Fatalf("nil ring reported non-zero size")
	}
	if got := r.Snapshot(nil); got != nil {
		t.Fatalf("nil ring Snapshot = %v, want nil", got)
	}
}

// TestConcurrentWritersAndScrape is the -race witness for the seqlock:
// several writers record while readers continuously snapshot. Every
// event a reader observes must be internally consistent (the writer-id
// is encoded redundantly in Src and At, and Seq mirrors At), proving
// no torn slot ever escapes the stamp check.
func TestConcurrentWritersAndScrape(t *testing.T) {
	r := NewRing(64)
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				at := int64(w)<<32 | int64(i)
				r.Record(int32(w), EvAccept, uint8(w), int32(w), uint64(at), int32(w), at)
			}
		}(w)
	}

	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var scratch []Event
			for {
				select {
				case <-stop:
					return
				default:
				}
				scratch = r.Snapshot(scratch[:0])
				for _, ev := range scratch {
					w := ev.At >> 32
					if int64(ev.Src) != w || ev.Seq != uint64(ev.At) ||
						ev.Kind != uint8(w) || int64(ev.Peer) != w || int64(ev.Entity) != w {
						t.Errorf("torn event escaped seqlock: %+v", ev)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
}

// TestRecordZeroAllocs pins the record fast path at zero allocations,
// both enabled and disabled (nil ring).
func TestRecordZeroAllocs(t *testing.T) {
	r := NewRing(256)
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(2, EvAccept, 1, 3, 41, -1, 12345)
	}); n != 0 {
		t.Fatalf("Record allocates %v/op, want 0", n)
	}
	var nilRing *Ring
	if n := testing.AllocsPerRun(1000, func() {
		nilRing.Record(2, EvAccept, 1, 3, 41, -1, 12345)
	}); n != 0 {
		t.Fatalf("nil Record allocates %v/op, want 0", n)
	}
}

// TestSnapshotReuseZeroAllocs: a scraper reusing its scratch slice
// pays no per-scrape allocations once warm.
func TestSnapshotReuseZeroAllocs(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 100; i++ {
		r.Record(0, EvAccept, 1, 0, uint64(i), -1, int64(i))
	}
	scratch := r.Snapshot(nil)
	if n := testing.AllocsPerRun(100, func() {
		scratch = r.Snapshot(scratch[:0])
	}); n != 0 {
		t.Fatalf("Snapshot with reused scratch allocates %v/op, want 0", n)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := NewRing(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(2, EvAccept, 1, 3, uint64(i), -1, int64(i))
	}
}

func BenchmarkRecordNil(b *testing.B) {
	var r *Ring
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(2, EvAccept, 1, 3, uint64(i), -1, int64(i))
	}
}
