// Go runtime health, build identity, and process uptime for /metrics.
// One implementation shared by the HTTP exposition and cosoak's trend
// sampling, so "live heap" means the same thing everywhere.

package obsv

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// LiveHeap forces a garbage collection and returns the post-GC heap
// bytes in use — the retention measure: what the program is actually
// holding, with garbage excluded. This is deliberately expensive (a
// full GC); use it for trend sampling, not per-scrape gauges (the
// /metrics heap gauges read MemStats without forcing a collection).
func LiveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// gcPauseBucketsUS bounds the GC pause histogram: 10µs .. 500ms.
func gcPauseBucketsUS() []uint64 {
	return []uint64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 100000, 500000}
}

// runtimeTracker accumulates GC pause observations across scrapes so
// the pause histogram is cumulative like every other histogram. Scrape
// N feeds the pauses that completed since scrape N-1; gaps longer than
// the runtime's 256-entry pause log lose the overwritten tail.
type runtimeTracker struct {
	mu        sync.Mutex
	pauses    *Histogram
	lastNumGC uint32
}

// sample reads the current runtime stats and folds new GC pauses into
// the cumulative histogram.
func (t *runtimeTracker) sample() (goroutines int, ms runtime.MemStats, pauses HistogramSnapshot) {
	goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pauses == nil {
		t.pauses = NewHistogram(gcPauseBucketsUS()...)
	}
	from := t.lastNumGC
	if ms.NumGC > from+uint32(len(ms.PauseNs)) {
		from = ms.NumGC - uint32(len(ms.PauseNs))
	}
	for i := from; i < ms.NumGC; i++ {
		t.pauses.Observe(ms.PauseNs[(i+255)%256] / 1000)
	}
	t.lastNumGC = ms.NumGC
	return goroutines, ms, t.pauses.Snapshot()
}

// buildIdentity resolves once per process: the module version (or VCS
// revision when built from a checkout) and the Go toolchain version.
var buildIdentity = sync.OnceValue(func() (id struct{ version, goVersion string }) {
	id.version = "unknown"
	id.goVersion = runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		id.version = v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			id.version = s.Value[:12]
		}
	}
	return
})

// writeRuntimeMetrics renders process-wide Go runtime health, build
// identity and uptime. Called from WriteMetrics on every scrape.
func (r *Registry) writeRuntimeMetrics(bw *errWriter) {
	goroutines, ms, pauses := r.rt.sample()

	bw.printf("# HELP cobcast_go_goroutines Current goroutine count.\n# TYPE cobcast_go_goroutines gauge\n")
	bw.printf("cobcast_go_goroutines %d\n", goroutines)
	bw.printf("# HELP cobcast_go_heap_alloc_bytes Bytes of allocated heap objects (live + not yet swept).\n# TYPE cobcast_go_heap_alloc_bytes gauge\n")
	bw.printf("cobcast_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	bw.printf("# HELP cobcast_go_heap_inuse_bytes Bytes in in-use heap spans.\n# TYPE cobcast_go_heap_inuse_bytes gauge\n")
	bw.printf("cobcast_go_heap_inuse_bytes %d\n", ms.HeapInuse)
	bw.printf("# HELP cobcast_go_gc_cycles_total Completed GC cycles.\n# TYPE cobcast_go_gc_cycles_total counter\n")
	bw.printf("cobcast_go_gc_cycles_total %d\n", ms.NumGC)

	bw.printf("# HELP cobcast_go_gc_pause_us Stop-the-world GC pause durations, microseconds.\n# TYPE cobcast_go_gc_pause_us histogram\n")
	for i, b := range pauses.Bounds {
		bw.printf("cobcast_go_gc_pause_us_bucket{le=\"%d\"} %d\n", b, pauses.Cumulative[i])
	}
	bw.printf("cobcast_go_gc_pause_us_bucket{le=\"+Inf\"} %d\n", pauses.Count)
	bw.printf("cobcast_go_gc_pause_us_sum %d\n", pauses.Sum)
	bw.printf("cobcast_go_gc_pause_us_count %d\n", pauses.Count)

	if !r.start.IsZero() {
		bw.printf("# HELP cobcast_process_uptime_seconds Seconds since the registry was created (process start, in practice).\n# TYPE cobcast_process_uptime_seconds gauge\n")
		bw.printf("cobcast_process_uptime_seconds %.3f\n", time.Since(r.start).Seconds())
	}

	id := buildIdentity()
	bw.printf("# HELP cobcast_build_info Build identity; value is always 1.\n# TYPE cobcast_build_info gauge\n")
	bw.printf("cobcast_build_info{version=%q,go=%q} 1\n", id.version, id.goVersion)
}
