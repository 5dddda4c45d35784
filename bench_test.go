// The pinned micro contracts: the benchmark families whose ns/op and
// allocs/op rows bench_pins.json carries and scripts/benchdiff gates
// (`make benchdiff`; CI gates the allocs half). They guard the engine's
// per-PDU cost curve (Fig8Tco and its Recorded variant) and the
// 0-alloc steady state of the codec, frame and pipeline hot paths.
// Everything the paper's evaluation reports is reproduced by
// cmd/cobench over internal/experiments, and what an application feels
// is gated end to end by bench/ (BENCHMARK.json) — neither belongs here.
package cobcast_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cobcast"
	"cobcast/internal/core"
	"cobcast/internal/experiments"
	"cobcast/internal/flight"
	"cobcast/internal/groups"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// hotSizes sweeps the hot-path benchmarks (Fig8Tco, HotPathPipeline) up
// to the cluster scales the delta-stamp codec targets: the O(n) ACK
// vector only dominates the wire and fold cost from n≈64 up (experiment
// E12), and each received PDU's fold scans all n entries (experiment
// E17).
var hotSizes = []int{2, 4, 8, 16, 64, 128, 256}

// replayStreams caches each n's captured stream for the process: b.Run
// calls a benchmark's closure once per calibration round and -count
// repeat, and an n = 256 capture simulates the whole run for over a
// minute. The replay never writes the stream's PDUs.
var replayStreams = map[int]*experiments.Stream{}

// benchReplay times core.Entity.Receive over the PDU stream entity 0 saw
// in a realistic n-entity run (the stream cobench's Fig. 8 Tco replays),
// against fresh engines built by cfg outside the timer. One op is one
// received PDU.
func benchReplay(b *testing.B, cfg func(n int) core.Config) {
	for _, n := range hotSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			stream := replayStreams[n]
			if stream == nil {
				var err error
				if stream, err = experiments.CaptureStream(n, 8); err != nil {
					b.Fatal(err)
				}
				replayStreams[n] = stream
			}
			b.ReportAllocs()
			b.ResetTimer()
			for processed := 0; processed < b.N; {
				b.StopTimer()
				ent, err := core.New(cfg(n))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				processed += stream.Replay(ent, b.N-processed)
			}
		})
	}
}

// BenchmarkFig8Tco is Figure 8's Tco series (experiment E1a): protocol
// processing cost per received PDU at cluster size n. The paper's claim
// is O(n) growth.
func BenchmarkFig8Tco(b *testing.B) {
	benchReplay(b, func(n int) core.Config { return core.Config{ID: 0, N: n} })
}

// BenchmarkFig8TcoRecorded is BenchmarkFig8Tco with the flight recorder
// enabled (experiment E16): the same replayed PDU stream with every
// lifecycle transition recorded into a live ring. The delta against
// Fig8Tco is the tracing overhead the always-on recorder charges the
// hot path; allocs/op must stay identical (the ring never allocates).
func BenchmarkFig8TcoRecorded(b *testing.B) {
	benchReplay(b, func(n int) core.Config {
		return core.Config{ID: 0, N: n, Flight: flight.NewRing(flight.DefaultEvents)}
	})
}

// benchHotPathCodec is the full datagram round trip as a shard loop
// runs it: pooled buffer out of pdu.GetDatagram, MarshalAppendV2 into it
// along a live delta-stamp chain (SEQ advances and one ACK entry moves
// per PDU, so deltas alternate with interval-th full stamps as on a
// sender's link), UnmarshalFromV2 into a scratch PDU, buffer back to the
// pool. Non-nil lm/tm add the per-datagram bookkeeping wireFrames and
// udpnet do around the codec (experiment E11).
func benchHotPathCodec(b *testing.B, n int, lm *obsv.LinkMetrics, tm *obsv.TransportMetrics) {
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
		lm.Flush(1, false)
		if tm != nil {
			tm.Sent.Inc()
			tm.Received.Inc()
		}
		if err := scratch.UnmarshalFromV2(buf, &dec); err != nil {
			b.Fatal(err)
		}
		pdu.PutDatagram(buf)
	}
}

// BenchmarkHotPathCodecV2 is the uninstrumented codec round trip.
// Steady state must report 0 allocs/op (the codec-path gate of PR 5) at
// every n.
func BenchmarkHotPathCodecV2(b *testing.B) {
	for _, n := range []int{8, 16, 64, 128} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchHotPathCodec(b, n, nil, nil) })
	}
}

// BenchmarkHotPathCodecInstrumented is the n=8 round trip with live link
// and transport metrics attached, as a node registered on an obsv
// registry pays it. Must also stay at 0 allocs/op; the ns/op delta vs
// BenchmarkHotPathCodecV2/n=8 is the instrumentation cost per datagram.
func BenchmarkHotPathCodecInstrumented(b *testing.B) {
	benchHotPathCodec(b, 8, obsv.NewLinkMetrics(), &obsv.TransportMetrics{})
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
	benchHotPathPipeline(b, func() *obsv.EntityMetrics { return nil }, false)
}

// BenchmarkHotPathPipelineTotalOrder is the same closed-loop mesh in
// total-order mode: each commit also stamps a logical time, and each
// input probes the release stage's head (releaseTotal), which holds a
// message until every other source has committed past it. It is the
// one pinned row that runs the TO release stage.
func BenchmarkHotPathPipelineTotalOrder(b *testing.B) {
	benchHotPathPipeline(b, func() *obsv.EntityMetrics { return nil }, true)
}

// BenchmarkHotPathPipelineInstrumented is the same closed-loop mesh with
// a live EntityMetrics on every entity: each own delivery and each commit
// additionally feeds the latency histograms (the counters cost nothing
// extra: scrapes read them from the state snapshot). The ns/op delta vs
// BenchmarkHotPathPipeline is the per-message cost of the obsv layer
// (experiment E11).
func BenchmarkHotPathPipelineInstrumented(b *testing.B) {
	benchHotPathPipeline(b, obsv.NewEntityMetrics, false)
}

// envelope is one PDU in flight on a benchmark mesh, with its sender.
type envelope struct {
	src int
	p   *pdu.PDU
}

// benchHotPathPipeline builds each mesh once and keeps it running across
// the benchmark's b.N trials, after three warm-up rounds of n messages:
// confirmations ride only on DATA here, so nothing commits until every
// entity has spoken twice, and the per-source logs settle a round later.
// Timing those cheaper rounds (≈3n against ≈4n allocs) made ns/op and
// allocs/op depend on how b.N compared with n.
func benchHotPathPipeline(b *testing.B, metrics func() *obsv.EntityMetrics, totalOrder bool) {
	for _, n := range hotSizes {
		n := n
		var step func(b *testing.B) // one iteration on the warmed mesh
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if step == nil {
				ents := make([]*core.Entity, n)
				for i := range ents {
					ent, err := core.New(core.Config{
						ID: pdu.EntityID(i), N: n,
						Window:     1 << 20,
						Metrics:    metrics(),
						TotalOrder: totalOrder,
					})
					if err != nil {
						b.Fatal(err)
					}
					ent.Hold() // never released: no deferred confirmation
					ents[i] = ent
				}
				payload := make([]byte, 64)
				queue := make([]envelope, 0, 64)
				iter := 0
				step = func(b *testing.B) {
					now := time.Duration(iter+1) * time.Microsecond
					src := iter % n
					iter++
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
				for i := 0; i < 3*n; i++ {
					step(b)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(b)
			}
		})
	}
}

// BenchmarkHotPathBacklogDrain is the saturation regime in miniature:
// entity 0 of a lossless 4-entity mesh submits a burst of 64 128-byte
// messages against a W = 16 window, and every induced PDU is relayed
// (ticking the deferred-confirmation timers whenever the mesh falls
// silent) until all four entities have delivered the burst. The first
// 16 messages find the window open and leave one per PDU; the other 48
// queue behind it and ride packed when it reopens (DESIGN.md §2n). One
// op is one message, so ns/op is ns/msg across the whole cluster.
func BenchmarkHotPathBacklogDrain(b *testing.B) {
	const n, burst = 4, 64
	ents := make([]*core.Entity, n)
	for i := range ents {
		ent, err := core.New(core.Config{ID: pdu.EntityID(i), N: n, Window: 16})
		if err != nil {
			b.Fatal(err)
		}
		ents[i] = ent
	}
	payload := make([]byte, 128)
	queue := make([]envelope, 0, 256)
	var now time.Duration
	delivered := 0
	emit := func(src int, out core.Output) {
		for _, p := range out.PDUs {
			queue = append(queue, envelope{src, p})
		}
		delivered += len(out.Deliveries)
	}
	round := func() {
		delivered = 0
		for i := 0; i < burst; i++ {
			now += time.Microsecond
			emit(0, ents[0].Submit(payload, now))
		}
		for head := 0; delivered < burst*n || head < len(queue); {
			now += time.Microsecond
			if head == len(queue) {
				now += core.DefaultDeferredAckInterval
				for j, e := range ents {
					emit(j, e.Tick(now))
				}
				continue
			}
			ev := queue[head]
			head++
			for j, e := range ents {
				if j == ev.src {
					continue
				}
				out, err := e.Receive(ev.p.Clone(), now)
				if err != nil {
					b.Fatal(err)
				}
				emit(j, out)
			}
		}
		queue = queue[:0]
	}
	for i := 0; i < 3; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		round()
	}
}

// BenchmarkHotPathDeliveryHandoff is the path a committed message takes
// from the engine's output to the application (DESIGN.md §2o): one
// producer standing in for the shard hands a port engine-shaped batches
// — 1 delivery, what a paced cluster commits per input, and 43, PR 22's
// measured messages per DATA PDU at saturation — and one consumer ranges
// over Deliveries(). One op is one message through queue, pump and
// channel. The producer stays within 1024 messages of the consumer, as
// the flow window keeps an engine near its application, so the row
// times the hand-off and not the growth of an unbounded backlog.
func BenchmarkHotPathDeliveryHandoff(b *testing.B) {
	for _, k := range []int{1, 43} {
		k := k
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			c, err := cobcast.NewCluster(2)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			nd, g := c.Node(0), cobcast.GroupID(7)
			batch := make([]core.Delivery, k)
			for i := range batch {
				batch[i] = core.Delivery{Src: 1, SEQ: 1, Index: i, Data: make([]byte, 128)}
			}
			var consumed atomic.Int64
			go func() {
				for range nd.Group(g).Deliveries() {
					consumed.Add(1)
				}
			}()
			pushed := int64(0)
			run := func(msgs int) {
				for target := pushed + int64(msgs); pushed < target; pushed += int64(k) {
					for pushed-consumed.Load() > 1024 {
						runtime.Gosched()
					}
					nd.DeliverForTest(g, batch)
				}
				for consumed.Load() < pushed {
					runtime.Gosched()
				}
			}
			run(8192) // queue, swap buffer and channel at their steady sizes
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// BenchmarkHotPathShardInbox is the hop every submission and received
// datagram takes into the runtime (DESIGN.md §2d): concurrent producers,
// one per GOMAXPROCS, call Registry.Submit and one shard loop takes
// their inputs off its inbox in batches. The group's engine failed to
// build, so the shard drops each input on arrival and one op times the
// hand-off alone: the group lookup, the inbox bound, the wake-up and the
// loop's swap. Quiescent, which queues behind every submission, closes
// the timed region.
func BenchmarkHotPathShardInbox(b *testing.B) {
	r := groups.New(groups.Config{
		Shards:    1,
		NewEntity: func(uint32, *core.Ledger) (*core.Entity, error) { return nil, errors.New("no engine") },
		NewFrames: func(int) groups.Frames { return nopFrames{} },
		Deliver:   func(uint32, []core.Delivery) {},
		Now:       func() time.Duration { return 0 },
	})
	defer r.Close()
	ctx, data := context.Background(), make([]byte, 128)
	for i := 0; i < 4096; i++ { // inbox and swap buffer at their steady sizes
		if err := r.Submit(ctx, 1, data); err != nil {
			b.Fatal(err)
		}
	}
	r.Quiescent()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := r.Submit(ctx, 1, data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	r.Quiescent()
}

// nopFrames is a wire that stages and sends nothing.
type nopFrames struct{}

func (nopFrames) Append(uint32, *pdu.PDU)                          {}
func (nopFrames) Flush()                                           {}
func (nopFrames) Deliver(uint32, groups.Inbound, func(p *pdu.PDU)) {}

// BenchmarkFrameCodec measures the batch-frame layer on top of the PDU
// codec: encode a k-PDU batch into one full-stamped frame and decode it
// back through a scratch PDU, as wireFrames does per datagram. Reported
// per PDU; steady state must show 0 allocs/op.
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
				enc.BeginV2(buf[:0], nil)
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
