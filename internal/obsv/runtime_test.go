package obsv

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestRuntimeMetricsOnScrape(t *testing.T) {
	reg := NewRegistry()

	// Force at least one GC cycle so the pause histogram has content.
	runtime.GC()

	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cobcast_go_goroutines ",
		"cobcast_go_heap_alloc_bytes ",
		"cobcast_go_heap_inuse_bytes ",
		"cobcast_go_gc_cycles_total ",
		"cobcast_go_gc_pause_us_bucket{le=\"+Inf\"}",
		"cobcast_go_gc_pause_us_count ",
		"cobcast_process_uptime_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Build identity: version + toolchain, value pinned at 1.
	if !strings.Contains(out, "cobcast_build_info{version=") {
		t.Errorf("metrics missing build_info gauge:\n%s", out)
	}
	if !strings.Contains(out, "go=\""+runtime.Version()+"\"} 1") {
		t.Errorf("build_info missing toolchain version: %s", grepLine(out, "cobcast_build_info{"))
	}
}

func TestLiveHeapReturnsPostGCHeap(t *testing.T) {
	// Hold a known-large allocation across the forced GC: LiveHeap must
	// include retained memory and be nonzero.
	held := make([]byte, 1<<20)
	h := LiveHeap()
	if h == 0 {
		t.Fatal("LiveHeap returned 0")
	}
	if h < uint64(len(held)) {
		t.Fatalf("LiveHeap %d smaller than a live %d-byte allocation", h, len(held))
	}
	runtime.KeepAlive(held)
}

func grepLine(s, substr string) string {
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			return ln
		}
	}
	return "<absent>"
}
