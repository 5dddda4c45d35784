package udpnet

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cobcast/internal/pdu"
)

// BenchmarkLoopbackOneWay measures what one datagram trip costs on this
// host with nothing of cobcast above the transport: one of four
// transports broadcasts a timestamped datagram every 500 µs, the other
// three read Recv(), and the row reports the one-way p50 and p99. In idle
// the sender sleeps until each due time and nothing else runs. In
// yielding-neighbour one more goroutine spins on runtime.Gosched. In
// yielding-sender the sender itself spins on runtime.Gosched until each
// due time — bench/'s open-loop generator (waitUntil) to the letter. The
// yielding rows show how the Go scheduler then delays socket readiness:
// the spinner keeps a P busy and the global run queue non-empty, so no P
// reaches findRunnable's non-blocking netpoll and the datagram waits for
// the thread parked in epoll_wait to get a CPU (DESIGN.md §2o). It
// measures the host and the runtime, not this repository's code, so it
// is not pinned.
func BenchmarkLoopbackOneWay(b *testing.B) {
	for _, mode := range []string{"idle", "yielding-neighbour", "yielding-sender"} {
		b.Run(mode, func(b *testing.B) {
			const interval = 500 * time.Microsecond
			trs := mesh(b, 4, 0)
			quit := make(chan struct{})
			var workers sync.WaitGroup
			if mode == "yielding-neighbour" {
				workers.Add(1)
				go func() {
					defer workers.Done()
					for {
						select {
						case <-quit:
							return
						default:
							runtime.Gosched()
						}
					}
				}()
			}
			base := time.Now()
			var received atomic.Int64
			samples := make([][]int64, len(trs)-1)
			for r, tr := range trs[1:] {
				workers.Add(1)
				go func() {
					defer workers.Done()
					for {
						select {
						case d := <-tr.Recv():
							sent := int64(binary.LittleEndian.Uint64(d))
							samples[r] = append(samples[r], int64(time.Since(base))-sent)
							pdu.PutDatagram(d)
							received.Add(1)
						case <-quit:
							return
						}
					}
				}()
			}
			buf := make([]byte, 64)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				due := start.Add(time.Duration(i) * interval)
				if mode == "yielding-sender" {
					for time.Until(due) > 0 {
						runtime.Gosched()
					}
				} else {
					time.Sleep(time.Until(due))
				}
				binary.LittleEndian.PutUint64(buf, uint64(time.Since(base)))
				if err := trs[0].Broadcast(buf); err != nil {
					b.Fatal(err)
				}
			}
			// Loopback may drop under pressure; do not wait for ever.
			want := int64(b.N * (len(trs) - 1))
			for deadline := time.Now().Add(2 * time.Second); received.Load() < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			b.StopTimer()
			close(quit)
			workers.Wait()
			var all []int64
			for _, s := range samples {
				all = append(all, s...)
			}
			if len(all) == 0 {
				b.Fatal("no datagram arrived")
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			b.ReportMetric(float64(all[len(all)/2])/1e3, "p50-us")
			b.ReportMetric(float64(all[len(all)*99/100])/1e3, "p99-us")
			b.ReportMetric(float64(len(all))/float64(want), "arrived")
		})
	}
}
