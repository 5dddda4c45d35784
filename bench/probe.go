package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/msglog"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
)

// The probes drive one layer at a time from a single goroutine, through
// the layer's public functions, timing each call from outside. They run
// in virtual time under one seed, so every count they report repeats
// exactly; only their timings carry noise.

// engineProbeSpec sizes one engine probe run.
type engineProbeSpec struct {
	n      int // entities per group
	groups int
	total  bool // core.Config.TotalOrder
	loss   float64
	rate   float64 // arrival rate of the schedule fed in
	msgs   int
	seed   int64
}

// batch is the PDUs one engine call emitted, in order: what a link
// would coalesce into one datagram.
type batch struct {
	group, from int
	pdus        []*pdu.PDU
}

type engineProbe struct {
	msgs                        int
	submitNs, receiveNs, tickNs float64 // mean per call
	receiveP99Ns                float64
	engineUsPerMsg              float64    // all engine call time of all entities ÷ messages
	receivesPerMsg              float64    // exact
	pdusPerMsg                  float64    // exact: PDUs emitted ÷ messages
	deltaIndicesPerPDU          float64    // mean len(Delta) over sequenced PDUs emitted
	denseShare                  float64    // sequenced PDUs emitted without a Delta
	batches                     []batch    // every emission, in order
	arrivals                    []*pdu.PDU // sequenced PDUs as entity 0 of group 0 received them
}

const (
	// lossSalt separates the probe's drop pattern from the schedule drawn
	// from the same seed.
	lossSalt = 0x5DEECE66D
	// probeDelay is the one-way delay of the probe's virtual network,
	// about what a hand-off between two node loops takes. Without one,
	// every confirmation would arrive before the next submission and
	// the all-heard rule would answer each PDU with a round of SYNCs.
	probeDelay = 50 * time.Microsecond
)

// probeEngine builds groups × n core.Entity values with the workloads'
// protocol settings, connects each group by an in-process FIFO with a
// fixed delay that drops a (batch, destination) pair with probability
// loss, feeds the first msgs messages of the seeded schedule in virtual
// time (ticking every entity each deferred-ACK interval), and times
// every Submit, Receive and Tick.
func probeEngine(spec engineProbeSpec) (*engineProbe, error) {
	ents := make([][]*core.Entity, spec.groups)
	for g := range ents {
		for i := 0; i < spec.n; i++ {
			e, err := core.New(core.Config{
				ID:                  pdu.EntityID(i),
				N:                   spec.n,
				DeferredAckInterval: deferredAckInterval,
				RetransmitTimeout:   retransmitTimeout,
				TotalOrder:          spec.total,
			})
			if err != nil {
				return nil, fmt.Errorf("engine probe: %w", err)
			}
			ents[g] = append(ents[g], e)
		}
	}
	horizon := time.Duration(float64(spec.msgs)/spec.rate*1.5*float64(time.Second)) + time.Second
	sched := newSchedule(spec.seed, spec.n, spec.groups, spec.rate, horizon)
	if sched.len() < spec.msgs {
		return nil, fmt.Errorf("engine probe: schedule holds %d of %d messages", sched.len(), spec.msgs)
	}

	res := &engineProbe{msgs: spec.msgs}
	drop := rand.New(rand.NewSource(spec.seed ^ lossSalt))
	delivered := make([][]int, spec.groups)
	for g := range delivered {
		delivered[g] = make([]int, spec.n)
	}
	perGroup := make([]int, spec.groups)
	type inflight struct {
		batch
		at time.Duration // arrival time at every other entity
	}
	var (
		now                         time.Duration
		queue                       []inflight
		submitT, receiveT, tickT    time.Duration
		receiveDur                  []int64
		emitted, sequenced, indices int
		dense, ticks                int
	)
	emit := func(g, from int, out core.Output) {
		delivered[g][from] += len(out.Deliveries)
		if len(out.PDUs) == 0 {
			return
		}
		b := batch{group: g, from: from, pdus: out.PDUs}
		queue = append(queue, inflight{b, now + probeDelay})
		res.batches = append(res.batches, b)
		emitted += len(out.PDUs)
		for _, p := range out.PDUs {
			if !p.Kind.Sequenced() {
				continue
			}
			sequenced++
			if p.Delta == nil {
				dense++
			}
			indices += len(p.Delta)
		}
	}
	// arrive fans the oldest in-flight batch out to the other entities of
	// its group. One FIFO with one delay keeps every sender's PDUs in
	// order; a dropped (batch, destination) pair models a lost datagram.
	arrive := func() {
		b := queue[0]
		queue = queue[1:]
		for to := 0; to < spec.n; to++ {
			if to == b.from || (spec.loss > 0 && drop.Float64() < spec.loss) {
				continue
			}
			for _, p := range b.pdus {
				q := p.Clone() // Receive takes ownership, as at the network boundary
				if b.group == 0 && to == 0 && q.Kind.Sequenced() {
					res.arrivals = append(res.arrivals, p)
				}
				t0 := time.Now()
				out, _ := ents[b.group][to].Receive(q, now) // own PDUs are always valid
				d := time.Since(t0)
				receiveT += d
				receiveDur = append(receiveDur, int64(d))
				emit(b.group, to, out)
			}
		}
	}
	tickAll := func() {
		for g := range ents {
			for i, e := range ents[g] {
				t0 := time.Now()
				out := e.Tick(now)
				tickT += time.Since(t0)
				ticks++
				emit(g, i, out)
			}
		}
	}
	done := func() bool {
		for g := range delivered {
			for _, d := range delivered[g] {
				if d < perGroup[g] {
					return false
				}
			}
		}
		return true
	}

	// The event loop: whichever of the next arrival, the next tick and
	// the next submission comes first in virtual time.
	payload := make([]byte, payloadSize)
	stamp := make([]uint64, clusterSize)
	nextTick := deferredAckInterval
	limit := sched.due[spec.msgs-1] + 20*time.Second
	for next := 0; next < spec.msgs || len(queue) > 0 || !done(); {
		switch {
		case len(queue) > 0 && queue[0].at <= nextTick && (next == spec.msgs || queue[0].at <= sched.due[next]):
			now = queue[0].at
			arrive()
		case next < spec.msgs && sched.due[next] <= nextTick:
			now = sched.due[next]
			src, g := int(sched.src[next]), int(sched.group[next])
			perGroup[g]++
			fillPayload(payload, spec.seed, header{src: src, group: g, id: uint32(next)}, stamp)
			next++
			t0 := time.Now()
			out := ents[g][src].Submit(payload, now)
			submitT += time.Since(t0)
			emit(g, src, out)
		default:
			now = nextTick
			nextTick += deferredAckInterval
			tickAll()
		}
		if now > limit {
			return nil, errors.New("engine probe: messages undelivered after 20 s of virtual time")
		}
	}
	for g := range delivered {
		for i, d := range delivered[g] {
			if d != perGroup[g] {
				return nil, fmt.Errorf("engine probe: entity %d of group %d delivered %d of %d", i, g, d, perGroup[g])
			}
		}
	}

	msgs, receives := float64(spec.msgs), float64(len(receiveDur))
	res.submitNs = ratio(float64(submitT), msgs)
	res.receiveNs = ratio(float64(receiveT), receives)
	res.tickNs = ratio(float64(tickT), float64(ticks))
	slices.Sort(receiveDur)
	res.receiveP99Ns = float64(percentile(receiveDur, 99))
	res.engineUsPerMsg = float64(submitT+receiveT+tickT) / 1e3 / msgs
	res.receivesPerMsg = receives / msgs
	res.pdusPerMsg = float64(emitted) / msgs
	res.deltaIndicesPerPDU = ratio(float64(indices), float64(sequenced))
	res.denseShare = ratio(float64(dense), float64(sequenced))
	return res, nil
}

type codecProbe struct {
	encodeNsPerPDU, decodeNsPerPDU float64
	bytesPerPDU, bytesPerMsg       float64 // exact
	pdusPerFrame                   float64
}

// probeCodec frames every batch the engine probe emitted the way the
// node's links do — wire codec v2, one stamp encoder per sender stream,
// a v3 group header when the workload uses groups — and decodes each
// frame again, timing both directions and checking the round trip.
func probeCodec(ep *engineProbe, groups int) (codecProbe, error) {
	type stream struct{ group, from int }
	encoders := make(map[stream]*pdu.StampEncoder)
	decoders := make([]pdu.FrameDecoder, groups)
	stamps := make([]pdu.StampDecoder, groups)
	for g := range decoders {
		decoders[g].SetStampDecoder(&stamps[g])
	}
	var (
		enc          pdu.FrameEncoder
		scratch      pdu.PDU
		buf          = make([]byte, 0, 4096)
		encT, decT   time.Duration
		pdus, frames int
		bytes        int
	)
	for _, b := range ep.batches {
		st := encoders[stream{b.group, b.from}]
		if st == nil {
			st = pdu.NewStampEncoder(0)
			encoders[stream{b.group, b.from}] = st
		}
		t0 := time.Now()
		if groups > 1 {
			enc.BeginGroup(buf[:0], uint32(b.group+1), pdu.WireVersion2, st)
		} else {
			enc.BeginV2(buf[:0], st)
		}
		for _, p := range b.pdus {
			if err := enc.Append(p); err != nil {
				return codecProbe{}, fmt.Errorf("codec probe: encode: %w", err)
			}
		}
		frame := enc.Bytes()
		encT += time.Since(t0)
		buf = frame

		dec := &decoders[b.group]
		got := 0
		t0 = time.Now()
		err := dec.Reset(frame)
		for err == nil {
			var ok bool
			if ok, err = dec.Next(&scratch); !ok {
				break
			}
			if want := b.pdus[got]; scratch.Src != want.Src || scratch.SEQ != want.SEQ || scratch.Kind != want.Kind {
				return codecProbe{}, fmt.Errorf("codec probe: decoded %v, want %v", &scratch, want)
			}
			got++
		}
		decT += time.Since(t0)
		if err != nil || got != len(b.pdus) {
			return codecProbe{}, fmt.Errorf("codec probe: decoded %d of %d PDUs: %v", got, len(b.pdus), err)
		}
		pdus += got
		frames++
		bytes += len(frame)
	}
	return codecProbe{
		encodeNsPerPDU: ratio(float64(encT), float64(pdus)),
		decodeNsPerPDU: ratio(float64(decT), float64(pdus)),
		bytesPerPDU:    ratio(float64(bytes), float64(pdus)),
		bytesPerMsg:    ratio(float64(bytes), float64(ep.msgs)),
		pdusPerFrame:   ratio(float64(pdus), float64(frames)),
	}, nil
}

// probeLog replays, through a bounded msglog.Log, the sequenced PDUs one
// entity received in arrival order (first copies only): InsertCPI for
// each, Dequeue once 32 are resident. It returns nanoseconds per PDU.
func probeLog(ep *engineProbe, n int) float64 {
	var l msglog.Log
	l.Reserve(n, 64)
	seen := make(map[msgKey]bool, len(ep.arrivals))
	inserts := 0
	start := time.Now()
	for _, p := range ep.arrivals {
		k := msgKey{int32(p.Src), uint64(p.SEQ)}
		if seen[k] {
			continue
		}
		seen[k] = true
		l.InsertCPI(p)
		if l.Len() > 32 {
			l.Dequeue()
		}
		inserts++
	}
	return ratio(float64(time.Since(start)), float64(inserts))
}

// probeCap bounds how many PDUs (or datagrams) a transport probe moves.
const probeCap = 20000

// probeNetwork broadcasts the engine probe's batches over a bare
// in-memory network of n ports and drains every receiver after each
// one. It returns nanoseconds per PDU broadcast, hand-off to the
// network's channel goroutines included.
func probeNetwork(ep *engineProbe, n int) (float64, error) {
	net := network.New(n)
	defer net.Close()
	pdus := 0
	start := time.Now()
	for _, b := range ep.batches {
		if pdus >= probeCap {
			break
		}
		if err := net.Endpoint(pdu.EntityID(b.from)).Broadcast(b.pdus...); err != nil {
			return 0, fmt.Errorf("network probe: %w", err)
		}
		for to := 0; to < n; to++ {
			if to == b.from {
				continue
			}
			// Nothing is dropped: no loss is configured and the inbox
			// is drained after every batch, so this cannot block.
			<-net.Endpoint(pdu.EntityID(to)).Recv()
		}
		pdus += len(b.pdus)
	}
	return ratio(float64(time.Since(start)), float64(pdus)), nil
}

// probeUDP sends frames of frameSize bytes, two per BroadcastBatch call,
// from one of n loopback UDP transports and drains the other n-1 after
// each call. It returns nanoseconds per datagram put on the wire.
func probeUDP(n, frameSize int) (float64, error) {
	trs, err := bindUDP(n)
	if err != nil {
		return 0, fmt.Errorf("udp probe: %w", err)
	}
	defer func() {
		for _, tr := range trs {
			_ = tr.Close() // nothing left to flush
		}
	}()
	frame := make([]byte, frameSize)
	pair := [][]byte{frame, frame}
	datagrams, lost := 0, 0
	start := time.Now()
	for datagrams < probeCap {
		if err := trs[0].BroadcastBatch(pair); err != nil {
			return 0, fmt.Errorf("udp probe: %w", err)
		}
		for _, tr := range trs[1:] {
			for range pair {
				select {
				case d := <-tr.Recv():
					pdu.PutDatagram(d)
				case <-time.After(50 * time.Millisecond):
					lost++
				}
			}
		}
		datagrams += len(pair) * (n - 1)
	}
	if lost*100 > datagrams {
		return 0, fmt.Errorf("udp probe: %d of %d loopback datagrams lost", lost, datagrams)
	}
	return ratio(float64(time.Since(start)), float64(datagrams)), nil
}
