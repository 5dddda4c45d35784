// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per experiment in DESIGN.md's index), plus
// protocol microbenchmarks. Custom metrics carry the experiment's
// headline number; cmd/cobench prints the same data as tables and
// EXPERIMENTS.md records one run against the paper.
package cobcast_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cobcast"
	"cobcast/internal/core"
	"cobcast/internal/experiments"
	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
	"cobcast/internal/simrun"
	"cobcast/internal/udpnet"
	"cobcast/internal/vclock"
	"cobcast/internal/workload"
)

var benchSizes = []int{2, 4, 8, 16}

// hotSizes extends the hot-path sweeps (Fig8Tco, HotPathPipeline) to the
// cluster scales the delta-stamp codec targets: the O(n) ACK vector only
// dominates the wire and fold cost from n≈64 up (experiment E12). The
// n=256 point is where the sparse fold engine's amortized-O(changed)
// claim is measured against the dense baseline (experiment E17).
var hotSizes = []int{2, 4, 8, 16, 64, 128, 256}

// captureStream records the PDUs arriving at entity 0 during a realistic
// n-entity run, for replay microbenchmarks.
func captureStream(b *testing.B, n, perSender int) []*pdu.PDU {
	b.Helper()
	var stream []*pdu.PDU
	c, err := simrun.New(simrun.Options{
		N:   n,
		Net: []sim.NetOption{sim.NetUniformDelay(time.Millisecond)},
		PDUTap: func(to, _ pdu.EntityID, p *pdu.PDU) {
			if to == 0 {
				stream = append(stream, p.Clone())
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	c.LoadWorkload(workload.NewContinuous(n, perSender, 64))
	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		b.Fatal(err)
	}
	return stream
}

// BenchmarkFig8Tco is Figure 8's Tco series (experiment E1a): protocol
// processing cost per received PDU at cluster size n. The paper's claim
// is O(n) growth.
func BenchmarkFig8Tco(b *testing.B) {
	for _, n := range hotSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			stream := captureStream(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			processed := 0
			for processed < b.N {
				b.StopTimer()
				ent, err := core.New(core.Config{ID: 0, N: n})
				if err != nil {
					b.Fatal(err)
				}
				now := time.Duration(0)
				b.StartTimer()
				for _, p := range stream {
					now += 10 * time.Microsecond
					_, _ = ent.Receive(p, now)
					if processed++; processed >= b.N {
						break
					}
				}
			}
		})
	}
}

// BenchmarkFig8TcoDense is BenchmarkFig8Tco with the sparse ACK-fold
// fast paths disabled (core.Config.DenseFold): the dense reference
// arithmetic every stamp operation falls back to. The Fig8Tco/Fig8TcoDense
// ratio at each n is experiment E17's fold-cost curve — the dense engine
// pays O(n) per PDU while the sparse engine amortizes to O(changed).
func BenchmarkFig8TcoDense(b *testing.B) {
	for _, n := range hotSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			stream := captureStream(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			processed := 0
			for processed < b.N {
				b.StopTimer()
				ent, err := core.New(core.Config{ID: 0, N: n, DenseFold: true})
				if err != nil {
					b.Fatal(err)
				}
				now := time.Duration(0)
				b.StartTimer()
				for _, p := range stream {
					now += 10 * time.Microsecond
					_, _ = ent.Receive(p, now)
					if processed++; processed >= b.N {
						break
					}
				}
			}
		})
	}
}

// BenchmarkFig8TcoRecorded is BenchmarkFig8Tco with the flight recorder
// enabled (experiment E16): the same replayed PDU stream with every
// lifecycle transition recorded into a live ring. The delta against
// Fig8Tco is the tracing overhead the always-on recorder charges the
// hot path; allocs/op must stay identical (the ring never allocates).
func BenchmarkFig8TcoRecorded(b *testing.B) {
	for _, n := range hotSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			stream := captureStream(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			processed := 0
			for processed < b.N {
				b.StopTimer()
				ent, err := core.New(core.Config{ID: 0, N: n, Flight: flight.NewRing(flight.DefaultEvents)})
				if err != nil {
					b.Fatal(err)
				}
				now := time.Duration(0)
				b.StartTimer()
				for _, p := range stream {
					now += 10 * time.Microsecond
					_, _ = ent.Receive(p, now)
					if processed++; processed >= b.N {
						break
					}
				}
			}
		})
	}
}

// BenchmarkFig8Tap is Figure 8's Tap series (experiment E1b):
// application-to-application delay on the real-time cluster, reported as
// the tap_us metric.
func BenchmarkFig8Tap(b *testing.B) {
	for _, n := range benchSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				tap, err := experiments.MeasureTapRealtime(n, 4)
				if err != nil {
					b.Fatal(err)
				}
				total += tap
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N), "tap_us")
		})
	}
}

// BenchmarkTable1 is experiment E2: the full Example 4.1 / Figure 7
// exchange through the engine.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAckLatency2R is experiment E3: accept-to-delivery latency in
// units of the propagation delay R (paper: ≈ 2).
func BenchmarkAckLatency2R(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var ratio float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AckLatency([]int{n}, 2*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				ratio += rows[0].RatioToR
			}
			b.ReportMetric(ratio/float64(b.N), "xR")
		})
	}
}

// BenchmarkBufferOccupancy is experiment E4: peak resident PDUs against
// the paper's 2nW guideline, reported as resident_pdus.
func BenchmarkBufferOccupancy(b *testing.B) {
	for _, n := range []int{4, 8} {
		for _, w := range []int{4, 16} {
			n, w := n, w
			b.Run(fmt.Sprintf("n=%d/W=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				var peak int
				for i := 0; i < b.N; i++ {
					rows, err := experiments.BufferOccupancy([]int{n}, []int{w}, 10)
					if err != nil {
						b.Fatal(err)
					}
					if rows[0].MaxResident > peak {
						peak = rows[0].MaxResident
					}
				}
				b.ReportMetric(float64(peak), "resident_pdus")
				b.ReportMetric(float64(2*n*w), "bound_2nW")
			})
		}
	}
}

// BenchmarkPDULength is experiment E5: encoded PDU size (O(n)), reported
// as wire_bytes.
func BenchmarkPDULength(b *testing.B) {
	for _, n := range benchSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			p := &pdu.PDU{
				Kind: pdu.KindData, Src: 0, SEQ: 1,
				ACK: make([]pdu.Seq, n), LSrc: pdu.NoEntity,
				Data: make([]byte, 64),
			}
			var size int
			for i := 0; i < b.N; i++ {
				buf, err := p.Marshal()
				if err != nil {
					b.Fatal(err)
				}
				size = len(buf)
			}
			b.ReportMetric(float64(size), "wire_bytes")
		})
	}
}

// BenchmarkSelectiveVsGoBackN is experiment E6: retransmission volume of
// the CO protocol's selective scheme against the TO protocol's go-back-n
// under identical loss, reported as co_retx and gbn_retx.
func BenchmarkSelectiveVsGoBackN(b *testing.B) {
	for _, loss := range []float64{0.02, 0.05, 0.10} {
		loss := loss
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			b.ReportAllocs()
			var co, gbn uint64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RetxComparison(4, 80, []float64{loss}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				co += rows[0].CORetransmitted
				gbn += rows[0].GBNRetransmissions
			}
			b.ReportMetric(float64(co)/float64(b.N), "co_retx")
			b.ReportMetric(float64(gbn)/float64(b.N), "gbn_retx")
		})
	}
}

// BenchmarkCOvsCBCAST is experiment E7a: full per-PDU pipeline cost of
// the CO protocol vs CBCAST's vector-clock delivery test.
func BenchmarkCOvsCBCAST(b *testing.B) {
	b.Run("CO", func(b *testing.B) {
		for _, n := range benchSizes {
			n := n
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				stream := captureStream(b, n, 8)
				b.ReportAllocs()
				b.ResetTimer()
				processed := 0
				for processed < b.N {
					b.StopTimer()
					ent, err := core.New(core.Config{ID: 0, N: n})
					if err != nil {
						b.Fatal(err)
					}
					now := time.Duration(0)
					b.StartTimer()
					for _, p := range stream {
						now += 10 * time.Microsecond
						_, _ = ent.Receive(p, now)
						if processed++; processed >= b.N {
							break
						}
					}
				}
			})
		}
	})
	b.Run("CBCAST", func(b *testing.B) {
		for _, n := range benchSizes {
			n := n
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				rows, err := experiments.ISISCost([]int{n}, 8)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = rows // the cost is measured inside ISISCost; report it
				}
				b.ReportMetric(rows[0].CBCASTNsPerMsg, "cbcast_ns_per_msg")
			})
		}
	})
}

// BenchmarkOrderingPrimitive is experiment E7b: one causality decision —
// Theorem 4.1's two sequence comparisons (O(1)) against one vector-clock
// comparison (O(n)).
func BenchmarkOrderingPrimitive(b *testing.B) {
	for _, n := range benchSizes {
		n := n
		p := &pdu.PDU{Kind: pdu.KindData, Src: 0, SEQ: 5, ACK: make([]pdu.Seq, n)}
		q := &pdu.PDU{Kind: pdu.KindData, Src: 1, SEQ: 3, ACK: make([]pdu.Seq, n)}
		for i := range q.ACK {
			q.ACK[i] = 6
		}
		b.Run(fmt.Sprintf("seqtest/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var r pdu.Relation
			for i := 0; i < b.N; i++ {
				r = pdu.Compare(p, q)
			}
			_ = r
		})
		v, w := vclock.New(n), vclock.New(n)
		for i := range w {
			w[i] = uint64(i + 1)
		}
		b.Run(fmt.Sprintf("vclock/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var o vclock.Ordering
			for i := 0; i < b.N; i++ {
				o = v.Compare(w)
			}
			_ = o
		})
	}
}

// BenchmarkMessageComplexity is experiment E8: cluster-wide PDUs per
// application message (paper: O(n), not O(n²)), reported as pdus_per_msg.
func BenchmarkMessageComplexity(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var per float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.MessageComplexity([]int{n}, 8)
				if err != nil {
					b.Fatal(err)
				}
				per += rows[0].PerMessage
			}
			b.ReportMetric(per/float64(b.N), "pdus_per_msg")
			b.ReportMetric(float64(n*n), "n_squared")
		})
	}
}

// BenchmarkAblationWindow is ablation A1: completion time of a saturating
// workload as the flow-control window W varies.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		w := w
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AblationWindow(4, []int{w}, 12)
				if err != nil {
					b.Fatal(err)
				}
				virtual += rows[0].CompletionVirtual
			}
			b.ReportMetric(float64(virtual.Microseconds())/float64(b.N), "completion_virtual_us")
		})
	}
}

// BenchmarkAblationDeferredAck is ablation A2: confirmation traffic as
// the deferred-ack interval varies.
func BenchmarkAblationDeferredAck(b *testing.B) {
	for _, iv := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		iv := iv
		b.Run(iv.String(), func(b *testing.B) {
			b.ReportAllocs()
			var pdus uint64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AblationDeferredAck(4, []time.Duration{iv}, 12)
				if err != nil {
					b.Fatal(err)
				}
				pdus += rows[0].TotalPDUs
			}
			b.ReportMetric(float64(pdus)/float64(b.N), "total_pdus")
		})
	}
}

// BenchmarkAblationBuffer is ablation A3: buffer-overrun loss induced by
// shrinking the receive inbox on the real-time network.
func BenchmarkAblationBuffer(b *testing.B) {
	for _, cap := range []int{8, 64, 1024} {
		cap := cap
		b.Run(fmt.Sprintf("inbox=%d", cap), func(b *testing.B) {
			b.ReportAllocs()
			var over, retx uint64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AblationBuffer(3, []int{cap}, 30)
				if err != nil {
					b.Fatal(err)
				}
				over += rows[0].Overruns
				retx += rows[0].Retransmitted
			}
			b.ReportMetric(float64(over)/float64(b.N), "overruns")
			b.ReportMetric(float64(retx)/float64(b.N), "retransmitted")
		})
	}
}

// BenchmarkTotalOrderOverhead compares virtual-time completion of the
// same workload under CO and TO service levels — the latency price of
// total order.
func BenchmarkTotalOrderOverhead(b *testing.B) {
	for _, mode := range []struct {
		name  string
		total bool
	}{{"CO", false}, {"TO", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				c, err := simrun.New(simrun.Options{
					N:    4,
					Core: core.Config{TotalOrder: mode.total},
					Net:  []sim.NetOption{sim.NetUniformDelay(time.Millisecond)},
				})
				if err != nil {
					b.Fatal(err)
				}
				c.LoadWorkload(workload.NewContinuous(4, 8, 32))
				done, err := c.RunToQuiescence(2 * time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				virtual += done
			}
			b.ReportMetric(float64(virtual.Microseconds())/float64(b.N), "completion_virtual_us")
		})
	}
}

// BenchmarkEndToEndThroughput measures sustained real-time throughput of
// the public cluster: messages fully delivered everywhere per second.
func BenchmarkEndToEndThroughput(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tap, err := experiments.MeasureTapRealtime(n, 10)
			if err != nil {
				b.Fatal(err)
			}
			_ = tap
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.MeasureTapRealtime(n, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarshalUnmarshal measures the wire codec.
func BenchmarkMarshalUnmarshal(b *testing.B) {
	p := &pdu.PDU{
		Kind: pdu.KindData, CID: 1, Src: 2, SEQ: 99,
		ACK: make([]pdu.Seq, 8), BUF: 1024, LSrc: pdu.NoEntity,
		Data: make([]byte, 256),
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	buf, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pdu.Unmarshal(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMarshalAppend measures the allocation-free encode path: one
// buffer reused across every marshal. Steady state must report 0
// allocs/op (guarded by TestPooledCodecZeroAllocs in internal/pdu).
func BenchmarkMarshalAppend(b *testing.B) {
	p := &pdu.PDU{
		Kind: pdu.KindData, CID: 1, Src: 2, SEQ: 99,
		ACK: make([]pdu.Seq, 8), BUF: 1024, LSrc: pdu.NoEntity,
		Data: make([]byte, 256),
	}
	buf := make([]byte, 0, p.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = p.MarshalAppend(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchHotPathCodec is the full datagram round trip as a shard loop
// runs it: pooled buffer out of pdu.GetDatagram, MarshalAppend into it,
// UnmarshalFrom into a scratch PDU, buffer back to the pool. When lm/tm
// are non-nil it also pays the per-datagram bookkeeping wireFrames and
// udpnet add around the codec (experiment E11).
func benchHotPathCodec(b *testing.B, lm *obsv.LinkMetrics, tm *obsv.TransportMetrics) {
	p := &pdu.PDU{
		Kind: pdu.KindData, CID: 1, Src: 2, SEQ: 99,
		ACK: make([]pdu.Seq, 8), BUF: 1024, LSrc: pdu.NoEntity,
		Data: make([]byte, 256),
	}
	var scratch pdu.PDU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := p.MarshalAppend(pdu.GetDatagram())
		if err != nil {
			b.Fatal(err)
		}
		lm.Flush(1, false)
		if tm != nil {
			tm.Sent.Inc()
			tm.Received.Inc()
		}
		if err := scratch.UnmarshalFrom(buf); err != nil {
			b.Fatal(err)
		}
		pdu.PutDatagram(buf)
	}
}

// BenchmarkHotPathCodec is the uninstrumented codec round trip. Steady
// state must report 0 allocs/op.
func BenchmarkHotPathCodec(b *testing.B) {
	benchHotPathCodec(b, nil, nil)
}

// BenchmarkHotPathCodecInstrumented is the same round trip with live
// link and transport metrics attached, as a node registered on an obsv
// registry pays it. Must also stay at 0 allocs/op; the ns/op delta vs
// BenchmarkHotPathCodec is the instrumentation cost per datagram.
func BenchmarkHotPathCodecInstrumented(b *testing.B) {
	benchHotPathCodec(b, obsv.NewLinkMetrics(), &obsv.TransportMetrics{})
}

// BenchmarkHotPathCodecV2 is the v2 analogue of BenchmarkHotPathCodec:
// the same pooled-buffer datagram round trip with a live delta-stamp
// chain — SEQ advances and one ACK entry moves per PDU, so the steady
// state alternates deltas with interval-th full stamps exactly like a
// sender's link. Steady state must report 0 allocs/op (the codec-path
// gate of PR 5) at every n.
func BenchmarkHotPathCodecV2(b *testing.B) {
	for _, n := range []int{8, 16, 64, 128} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := &pdu.PDU{
				Kind: pdu.KindData, CID: 1, Src: 2, SEQ: 0,
				ACK: make([]pdu.Seq, n), BUF: 1024, LSrc: pdu.NoEntity,
				Data: make([]byte, 256),
			}
			enc := pdu.NewStampEncoder(0)
			var dec pdu.StampDecoder
			var scratch pdu.PDU
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.SEQ++
				p.ACK[i%n]++
				buf, err := p.MarshalAppendV2(pdu.GetDatagram(), enc)
				if err != nil {
					b.Fatal(err)
				}
				if err := scratch.UnmarshalFromV2(buf, &dec); err != nil {
					b.Fatal(err)
				}
				pdu.PutDatagram(buf)
			}
		})
	}
}

// BenchmarkFig8WireBytes is experiment E12: the E5 PDU-length redo at
// the byte level. It replays the Fig. 8 continuous workload through
// both wire codecs and reports mean encoded bytes per DT PDU as the
// v1_bytes and v2_bytes metrics (reduction as v2_saved_frac). The PR 5
// acceptance gate reads the n=64 point: v2 must shed at least half of
// v1's bytes.
func BenchmarkFig8WireBytes(b *testing.B) {
	for _, n := range []int{8, 16, 64, 128} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rows, err := experiments.WireBytes([]int{n}, 8, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rows
			}
			b.ReportMetric(rows[0].V1BytesPerDT, "v1_bytes")
			b.ReportMetric(rows[0].V2BytesPerDT, "v2_bytes")
			b.ReportMetric(rows[0].Reduction, "v2_saved_frac")
		})
	}
}

// BenchmarkHotPathPipeline drives a lossless n-entity mesh closed-loop:
// each iteration broadcasts one message and relays every induced PDU
// (acks included) until the cluster is silent, so one iteration covers
// the whole receive→pack→ack→commit pipeline through confirmation.
// Unlike core's BenchmarkSubmitReceive it does not drop second-order
// traffic, and unlike BenchmarkFig8Tco the entities live across
// iterations, exposing steady-state amortized cost and allocations of
// the incremental confirmation minima.
func BenchmarkHotPathPipeline(b *testing.B) {
	benchHotPathPipeline(b, func() *obsv.EntityMetrics { return nil })
}

// BenchmarkHotPathPipelineInstrumented is the same closed-loop mesh with
// a live EntityMetrics on every entity: each input additionally mirrors
// its stat deltas into atomic counters and feeds the latency histograms.
// The ns/op delta vs BenchmarkHotPathPipeline is the per-message cost of
// the obsv layer (experiment E11).
func BenchmarkHotPathPipelineInstrumented(b *testing.B) {
	benchHotPathPipeline(b, obsv.NewEntityMetrics)
}

func benchHotPathPipeline(b *testing.B, metrics func() *obsv.EntityMetrics) {
	type envelope struct {
		src int
		p   *pdu.PDU
	}
	for _, n := range hotSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ents := make([]*core.Entity, n)
			for i := range ents {
				ent, err := core.New(core.Config{
					ID: pdu.EntityID(i), N: n,
					Window:                 1 << 20,
					DisableDeferredConfirm: true,
					Metrics:                metrics(),
				})
				if err != nil {
					b.Fatal(err)
				}
				ents[i] = ent
			}
			payload := make([]byte, 64)
			queue := make([]envelope, 0, 64)
			now := time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += time.Microsecond
				src := i % n
				out := ents[src].Submit(payload, now)
				for _, p := range out.PDUs {
					queue = append(queue, envelope{src, p})
				}
				for head := 0; head < len(queue); head++ {
					ev := queue[head]
					for j := range ents {
						if j == ev.src {
							continue
						}
						o, err := ents[j].Receive(ev.p.Clone(), now)
						if err != nil {
							b.Fatal(err)
						}
						for _, q := range o.PDUs {
							queue = append(queue, envelope{j, q})
						}
					}
				}
				queue = queue[:0]
			}
		})
	}
}

// BenchmarkFrameCodec measures the batch-frame layer on top of the PDU
// codec: encode a k-PDU batch into one frame and decode it back through
// a scratch PDU, as wireFrames does per datagram. Reported per PDU;
// steady state must show 0 allocs/op.
func BenchmarkFrameCodec(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		batch := batch
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			p := &pdu.PDU{
				Kind: pdu.KindData, CID: 1, Src: 2, SEQ: 99,
				ACK: make([]pdu.Seq, 8), BUF: 1024, LSrc: pdu.NoEntity,
				Data: make([]byte, 256),
			}
			var enc pdu.FrameEncoder
			var dec pdu.FrameDecoder
			var scratch pdu.PDU
			buf := make([]byte, 0, batch*(p.EncodedSize()+pdu.FrameEntrySize)+pdu.FrameHeaderSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				enc.Begin(buf[:0])
				for j := 0; j < batch; j++ {
					if err := enc.Append(p); err != nil {
						b.Fatal(err)
					}
				}
				frame := enc.Bytes()
				buf = frame
				if err := dec.Reset(frame); err != nil {
					b.Fatal(err)
				}
				for {
					ok, err := dec.Next(&scratch)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
			}
		})
	}
}

// newBenchUDPMesh binds n loopback transports into a full mesh
// (discover ephemeral ports first, then re-bind with peer lists). The
// discover-then-rebind window can lose a port to another process, so
// the whole mesh build retries a few times before giving up.
func newBenchUDPMesh(b *testing.B, n int, opts ...udpnet.Option) []*udpnet.Transport {
	b.Helper()
	const attempts = 5
	for attempt := 1; ; attempt++ {
		addrs := make([]string, n)
		for i := range addrs {
			tr, err := udpnet.New("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
			if err != nil {
				b.Fatal(err)
			}
			addrs[i] = tr.LocalAddr()
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
		}
		trs := make([]*udpnet.Transport, 0, n)
		ok := true
		for i := 0; i < n && ok; i++ {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			tr, err := udpnet.New(addrs[i], peers, 8192, opts...)
			if err != nil {
				if attempt == attempts {
					b.Fatalf("rebind %d: %v", i, err)
				}
				ok = false
				break
			}
			trs = append(trs, tr)
		}
		if ok {
			return trs
		}
		for _, tr := range trs {
			tr.Close()
		}
	}
}

// BenchmarkBatchedThroughput is the wire-speed headline experiment: PDU
// broadcast throughput over the real UDP loopback path across three
// wire shapes. "per-datagram" is the seed's wire behavior (one frame of
// one PDU per datagram, one sendto per peer transmission); "batched" is
// the flush-on-loop-idle link's frame batching from PR 2 (16 PDUs per
// frame, four frames staged per flush) over the same portable sendto
// path; "mmsg" is that frame batching over the batched sendmmsg/
// recvmmsg path, where one staged flush toward all peers is a single
// syscall. One benchmark op is one PDU broadcast from node 0 to the n-1
// receivers, which drain and decode concurrently; the delivered-frac
// metric reports the fraction of PDU copies that survived the lossy
// path. The sender hot loop must stay at 0 allocs/op on every shape.
func BenchmarkBatchedThroughput(b *testing.B) {
	// frameGroup mirrors the frames a multi-frame flush stages before
	// handing them to BroadcastBatch (see wireFrames.sendStaged).
	const frameGroup = 4
	for _, mode := range []struct {
		name  string
		batch int // PDUs per frame
		group int // frames per BroadcastBatch
		mmsg  bool
	}{
		{"per-datagram", 1, 1, false},
		{"batched", 16, frameGroup, false},
		{"mmsg", 16, frameGroup, true},
	} {
		for _, n := range []int{2, 4, 8, 16, 32} {
			mode, n := mode, n
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				trs := newBenchUDPMesh(b, n, udpnet.WithBatchSyscalls(mode.mmsg))
				if mode.mmsg && !trs[0].BatchSyscalls() {
					for _, tr := range trs {
						tr.Close()
					}
					b.Skip("batched syscalls unsupported on this platform")
				}
				var delivered atomic.Uint64
				var wg sync.WaitGroup
				for _, tr := range trs[1:] {
					wg.Add(1)
					go func(tr *udpnet.Transport) {
						defer wg.Done()
						var dec pdu.FrameDecoder
						var scratch pdu.PDU
						for raw := range tr.Recv() {
							if dec.Reset(raw) == nil {
								for {
									ok, err := dec.Next(&scratch)
									if !ok || err != nil {
										break
									}
									delivered.Add(1)
								}
							}
							pdu.PutDatagram(raw)
						}
					}(tr)
				}
				p := &pdu.PDU{
					Kind: pdu.KindData, CID: 1, Src: 0, SEQ: 1,
					ACK: make([]pdu.Seq, n), LSrc: pdu.NoEntity,
					Data: make([]byte, 64),
				}
				var enc pdu.FrameEncoder
				bufs := make([][]byte, mode.group)
				for k := range bufs {
					bufs[k] = make([]byte, 0, udpnet.MaxDatagram)
				}
				staged := make([][]byte, 0, mode.group)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; {
					staged = staged[:0]
					for g := 0; g < mode.group && i < b.N; g++ {
						enc.Begin(bufs[g][:0])
						for j := 0; j < mode.batch && i < b.N; j++ {
							p.SEQ = pdu.Seq(i + 1)
							if err := enc.Append(p); err != nil {
								b.Fatal(err)
							}
							i++
						}
						bufs[g] = enc.Bytes()
						staged = append(staged, bufs[g])
					}
					if len(staged) == 1 {
						if err := trs[0].Broadcast(staged[0]); err != nil {
							b.Fatal(err)
						}
					} else if err := trs[0].BroadcastBatch(staged); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				time.Sleep(20 * time.Millisecond) // let in-flight datagrams land
				sent := trs[0].Stats()
				for _, tr := range trs {
					tr.Close()
				}
				wg.Wait()
				// delivered-frac: PDU copies surviving the lossy
				// saturated path; delivered_kpps: decoded PDU copies
				// per second of measured send time — the end-to-end
				// throughput the batching is after; syscalls_per_op:
				// send-side syscalls per PDU broadcast, the quantity
				// sendmmsg amortizes.
				total := uint64(b.N) * uint64(n-1)
				b.ReportMetric(float64(delivered.Load())/float64(total), "delivered-frac")
				b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds()/1000, "delivered_kpps")
				calls := sent.Sent + sent.SendErrors
				if sent.SendmmsgCalls > 0 {
					calls = sent.SendmmsgCalls
				}
				b.ReportMetric(float64(calls)/float64(b.N), "syscalls_per_op")
			})
		}
	}
}

// BenchmarkMultiGroupThroughput is experiment E14's headline number: the
// public multi-group runtime driving 8 named groups over an n=2
// in-process cluster, swept over the shard-goroutine count. One op is
// one GroupPort.Broadcast (groups visited round-robin); the benchmark
// waits for every delivery everywhere and reports cluster-wide ordered
// deliveries per second as delivered_kpps. allocs/op is reported
// honestly — the public Broadcast copies its payload by contract, so
// the per-op figure is nonzero here; the zero-alloc claim for the
// underlying frame path is pinned by TestGroupFramesSteadyStateAllocs.
// On a multi-core host delivered_kpps should grow with shards; a
// single-core host (GOMAXPROCS=1) serializes the shard goroutines and
// shows flat-to-declining numbers instead — shard parallelism cannot
// exceed schedulable CPUs, which is why the registry's shard-count
// heuristic caps at runtime.GOMAXPROCS(0). Read shard sweeps from a
// constrained CI runner accordingly.
func BenchmarkMultiGroupThroughput(b *testing.B) {
	const n, groups = 2, 8
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := cobcast.NewCluster(n,
				cobcast.WithGroupShards(shards),
				cobcast.WithDeferredAckInterval(time.Millisecond),
				cobcast.WithRetransmitTimeout(5*time.Millisecond),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ports := experiments.MultiGroupPorts(c, n, groups)
			var delivered atomic.Uint64
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				for g := 0; g < groups; g++ {
					wg.Add(1)
					go func(ch <-chan cobcast.Message) {
						defer wg.Done()
						for range ch {
							delivered.Add(1)
						}
					}(ports[i][g].Deliveries())
				}
			}
			payload := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ports[i%n][i%groups].Broadcast(payload); err != nil {
					b.Fatal(err)
				}
			}
			want := uint64(b.N) * n
			for delivered.Load() < want {
				time.Sleep(100 * time.Microsecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds()/1000, "delivered_kpps")
			c.Close()
			wg.Wait()
		})
	}
}
