package cobcast

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/groups"
	"cobcast/internal/network"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// --- deliveryQueue close/popAll interleavings ---

// seqBatch is an engine-shaped batch: one source's SEQs from..to.
func seqBatch(src pdu.EntityID, from, to pdu.Seq) []core.Delivery {
	var b []core.Delivery
	for s := from; s <= to; s++ {
		b = append(b, core.Delivery{Src: src, SEQ: s})
	}
	return b
}

func TestDeliveryQueuePopAfterCloseDrained(t *testing.T) {
	q := newDeliveryQueue()
	q.close()
	if b, ok := q.popAll(nil); ok {
		t.Fatalf("popAll on closed empty queue returned %v", b)
	}
	// popAll stays terminal.
	if _, ok := q.popAll(nil); ok {
		t.Fatal("second popAll on closed empty queue succeeded")
	}
}

func TestDeliveryQueuePopAfterCloseNonEmpty(t *testing.T) {
	// Close must not discard queued messages: the pump takes the
	// remainder — every batch pushed, in order — then sees ok=false.
	q := newDeliveryQueue()
	q.push(7, seqBatch(1, 1, 2))
	q.push(7, seqBatch(1, 3, 3))
	q.close()
	b, ok := q.popAll(nil)
	if !ok || len(b) != 3 {
		t.Fatalf("popAll = %v,%v, want the 3 queued messages", b, ok)
	}
	for i, m := range b {
		if m.Group != 7 || m.Src != 1 || m.Seq != uint64(i+1) {
			t.Fatalf("message %d = %+v, want group 7 src 1 seq %d", i, m, i+1)
		}
	}
	if _, ok := q.popAll(b); ok {
		t.Fatal("popAll after draining closed queue succeeded")
	}
}

func TestDeliveryQueuePushAfterCloseDropped(t *testing.T) {
	q := newDeliveryQueue()
	q.close()
	q.push(0, seqBatch(0, 1, 1))
	if _, ok := q.popAll(nil); ok {
		t.Fatal("push after close was accepted")
	}
}

func TestDeliveryQueueCloseUnblocksPop(t *testing.T) {
	q := newDeliveryQueue()
	done := make(chan bool)
	go func() {
		_, ok := q.popAll(nil) // blocks: queue empty
		done <- ok
	}()
	q.close()
	if ok := <-done; ok {
		t.Fatal("blocked popAll returned ok=true on close")
	}
}

func TestDeliveryQueueConcurrentPushPopClose(t *testing.T) {
	// Hammer push/popAll/close from separate goroutines; under -race
	// this checks the queue's locking and the buffer swap, and the
	// per-pusher sequence check that no message is lost, duplicated or
	// reordered — in particular that the signal-on-empty rule never
	// leaves the popper asleep beside a backlog.
	q := newDeliveryQueue()
	const pushers, perPusher, batchLen = 4, 1000, 5
	var pushed sync.WaitGroup
	for g := 0; g < pushers; g++ {
		pushed.Add(1)
		go func(g int) {
			defer pushed.Done()
			for i := 1; i <= perPusher; i += batchLen {
				q.push(0, seqBatch(pdu.EntityID(g), pdu.Seq(i), pdu.Seq(i+batchLen-1)))
			}
		}(g)
	}
	got := make(chan string)
	go func() {
		var next [pushers]uint64
		var spare []Message
		for {
			b, ok := q.popAll(spare)
			if !ok {
				for g, n := range next {
					if n != perPusher {
						got <- fmt.Sprintf("pusher %d: popped %d of %d before close", g, n, perPusher)
						return
					}
				}
				got <- ""
				return
			}
			for i, m := range b {
				if next[m.Src]++; m.Seq != next[m.Src] {
					got <- fmt.Sprintf("pusher %d: seq %d where %d was due", m.Src, m.Seq, next[m.Src])
					return
				}
				b[i] = Message{}
			}
			spare = b
		}
	}()
	pushed.Wait()
	q.close()
	if msg := <-got; msg != "" {
		t.Fatal(msg)
	}
}

// --- frames adapters (group 0: the single-group wire path) ---

// chanTransport is an in-process Transport capturing broadcast frames.
type chanTransport struct {
	frames chan []byte
	recv   chan []byte
	closed chan struct{}
	once   sync.Once
}

func newChanTransport() *chanTransport {
	return &chanTransport{
		frames: make(chan []byte, 64),
		recv:   make(chan []byte),
		closed: make(chan struct{}),
	}
}

func (c *chanTransport) Broadcast(datagram []byte) error {
	b := make([]byte, len(datagram))
	copy(b, datagram)
	c.frames <- b
	return nil
}

func (c *chanTransport) Recv() <-chan []byte { return c.recv }

func (c *chanTransport) Close() error {
	c.once.Do(func() { close(c.closed); close(c.recv) })
	return nil
}

func seqPDU(n int, seq pdu.Seq) *pdu.PDU {
	return &pdu.PDU{Kind: pdu.KindSync, Src: 0, SEQ: seq, ACK: make([]pdu.Seq, n)}
}

// streamDecoder returns a frame decoder with a stamp cache, able to
// resolve v2 delta entries when fed one sender's frames in send order.
func streamDecoder() *pdu.FrameDecoder {
	d := new(pdu.FrameDecoder)
	d.SetStampDecoder(new(pdu.StampDecoder))
	return d
}

// decodeAll decodes every PDU of a frame through d.
func decodeAll(t *testing.T, d *pdu.FrameDecoder, frame []byte) []*pdu.PDU {
	t.Helper()
	if err := d.Reset(frame); err != nil {
		t.Fatalf("frame decode: %v", err)
	}
	var out []*pdu.PDU
	for {
		var p pdu.PDU
		ok, err := d.Next(&p)
		if err != nil {
			t.Fatalf("frame decode: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, p.Clone())
	}
}

func TestWireFramesCoalesceAppendsIntoOneFrame(t *testing.T) {
	tr := newChanTransport()
	f := groups.NewWireFrames(tr, nil, 0)
	for i := 1; i <= 5; i++ {
		f.Append(0, seqPDU(3, pdu.Seq(i)))
	}
	f.Flush()
	f.Flush() // empty flush must not emit a frame
	got := decodeAll(t, streamDecoder(), <-tr.frames)
	if len(got) != 5 {
		t.Fatalf("frame carries %d PDUs, want 5", len(got))
	}
	for i, p := range got {
		if p.SEQ != pdu.Seq(i+1) {
			t.Errorf("position %d: seq %d, want %d", i, p.SEQ, i+1)
		}
	}
	select {
	case f := <-tr.frames:
		t.Fatalf("empty flush emitted a %d-byte frame", len(f))
	default:
	}
}

func TestWireFramesFlushBeforeExceedingMaxDatagram(t *testing.T) {
	// Group 0 and a v3-addressed group alike: the early seal stages the
	// full frame (it is sent with the flush, not on overflow) and order
	// holds across the resulting datagrams.
	for _, g := range []uint32{0, 7} {
		tr := newChanTransport()
		f := groups.NewWireFrames(tr, nil, 0)
		// Each PDU is ~15 KiB, so a 60 KiB datagram fits three but not four.
		big := func(seq pdu.Seq) *pdu.PDU {
			p := seqPDU(3, seq)
			p.Kind = pdu.KindData
			p.Data = make([]byte, 15*1024)
			return p
		}
		for i := 1; i <= 4; i++ {
			f.Append(g, big(pdu.Seq(i)))
		}
		select {
		case <-tr.frames:
			t.Fatalf("group %d: overflow sent a frame before the flush", g)
		default:
		}
		f.Flush()
		rawFirst, rawSecond := <-tr.frames, <-tr.frames
		for _, raw := range [][]byte{rawFirst, rawSecond} {
			if len(raw) > MaxDatagram {
				t.Errorf("group %d: frame of %d bytes exceeds MaxDatagram", g, len(raw))
			}
			if fg, ok := pdu.FrameGroup(raw); !ok || fg != g {
				t.Errorf("group %d: frame addressed to group %d (ok=%v)", g, fg, ok)
			}
		}
		d := streamDecoder()
		first, second := decodeAll(t, d, rawFirst), decodeAll(t, d, rawSecond)
		if len(first) != 3 || len(second) != 1 {
			t.Fatalf("group %d: split %d+%d PDUs, want 3+1 (early flush at size bound)", g, len(first), len(second))
		}
		for i, p := range append(first, second...) {
			if p.SEQ != pdu.Seq(i+1) {
				t.Errorf("group %d position %d: seq %d, want %d (order across frames)", g, i, p.SEQ, i+1)
			}
		}
	}
}

func TestMemFramesAutoFlushCapsBatch(t *testing.T) {
	// memFrames must not stage unboundedly during a long drain: it sends
	// on its own once a group's batch hits MemBatchMax, and the early
	// send preserves append order across the resulting datagrams.
	net := network.New(2)
	defer net.Close()
	f := groups.NewMemFrames(net.Endpoint(0), nil)
	for i := 1; i <= groups.MemBatchMax+1; i++ {
		f.Append(0, seqPDU(2, pdu.Seq(i)))
	}
	in := <-net.Endpoint(1).Recv()
	if len(in.PDUs) != groups.MemBatchMax {
		t.Fatalf("early datagram carries %d PDUs before the flush, want %d", len(in.PDUs), groups.MemBatchMax)
	}
	f.Flush()
	got := append([]*pdu.PDU(nil), in.PDUs...)
	for len(got) < groups.MemBatchMax+1 {
		got = append(got, (<-net.Endpoint(1).Recv()).PDUs...)
	}
	for i, p := range got {
		if p.SEQ != pdu.Seq(i+1) {
			t.Fatalf("position %d: seq %d, want %d (order across datagrams)", i, p.SEQ, i+1)
		}
	}
}

// TestWireFramesDropV1FrameAsLoss feeds Deliver a frame under the retired
// header version 1: it must be rejected with ErrBadFrameVersion, deliver
// nothing, count no accepted bytes, hand its pooled buffer back (a leak
// would allocate a fresh 64 KiB buffer per frame) and leave the channel
// decoding good frames.
func TestWireFramesDropV1FrameAsLoss(t *testing.T) {
	lm := obsv.NewLinkMetrics()
	f := groups.NewWireFrames(newChanTransport(), lm, 0)
	good, err := pdu.EncodeFrameV2([]*pdu.PDU{seqPDU(3, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), good...)
	v1[2] = 1
	if err := new(pdu.FrameDecoder).Reset(v1); !errors.Is(err, pdu.ErrBadFrameVersion) {
		t.Fatalf("Reset(v1 frame) = %v, want ErrBadFrameVersion", err)
	}
	// Unroutable, so the router hands it to group 0's decoder.
	if g, ok := pdu.FrameGroup(v1); ok {
		t.Fatalf("FrameGroup(v1 frame) = %d,true, want not-ok", g)
	}
	delivered := 0
	deliver := func(frame []byte) {
		f.Deliver(0, groups.Inbound{Raw: append(pdu.GetDatagram(), frame...)}, func(*pdu.PDU) { delivered++ })
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		deliver(v1)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > runs*pdu.DatagramBufCap/2 {
		t.Fatalf("%d rejected frames allocated %d bytes: buffers not returned to the pool", runs, got)
	}
	if delivered != 0 || lm.BytesIn.Load() != 0 {
		t.Fatalf("v1 frames delivered %d PDUs, counted %d bytes; want none", delivered, lm.BytesIn.Load())
	}
	if deliver(good); delivered != 1 {
		t.Fatalf("good frame after rejected ones delivered %d PDUs, want 1", delivered)
	}
}

func TestWireFramesV2SmallerThanV1(t *testing.T) {
	// A contiguous n=64 stream: the bytes the link counts out must come
	// to well under the fixed-width size model (the retired v1 layout,
	// pdu.EncodedSize) of the same PDUs.
	tr := newChanTransport()
	lm := obsv.NewLinkMetrics()
	f := groups.NewWireFrames(tr, lm, 0)
	v1 := uint64(0)
	for i := 1; i <= 20; i++ {
		p := seqPDU(64, pdu.Seq(i))
		p.ACK[0] = pdu.Seq(i)
		v1 += uint64(pdu.FrameHeaderSize + pdu.FrameEntrySize + p.EncodedSize())
		f.Append(0, p)
		f.Flush()
		if raw := <-tr.frames; raw[2] != pdu.FrameVersion2 {
			t.Fatalf("frame version %d, want %d", raw[2], pdu.FrameVersion2)
		}
	}
	v2 := lm.BytesOut.Load()
	if v2 == 0 {
		t.Fatal("byte counter not populated")
	}
	if v2*2 > v1 {
		t.Fatalf("sent %d bytes, not under half of the fixed-width %d (n=64 stream)", v2, v1)
	}
}

func TestWireFramesDeliverDesyncCountedAndRecovered(t *testing.T) {
	// A receiver that missed the frame carrying a delta's reference must
	// drop the delta as counted loss, then recover from the full stamp
	// once the missing frame is (re)delivered.
	lm := obsv.NewLinkMetrics()
	f := groups.NewWireFrames(newChanTransport(), lm, 0)

	mk := func(seq pdu.Seq) *pdu.PDU {
		p := seqPDU(3, seq)
		p.ACK[0] = seq
		return p
	}
	enc := pdu.NewStampEncoder(1 << 20) // no interval escapes in this test
	f1, err := pdu.EncodeFrameV2([]*pdu.PDU{mk(1)}, enc)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := pdu.EncodeFrameV2([]*pdu.PDU{mk(2), mk(3)}, enc)
	if err != nil {
		t.Fatal(err)
	}
	recv := func(frame []byte) (seqs []pdu.Seq) {
		b := make([]byte, len(frame))
		copy(b, frame)
		f.Deliver(0, groups.Inbound{Raw: b}, func(p *pdu.PDU) { seqs = append(seqs, p.SEQ) })
		return
	}

	if got := recv(f2); len(got) != 0 { // f1 lost: delta has no reference
		t.Fatalf("desynchronized frames delivered %v", got)
	}
	if n := lm.StampDesyncs.Load(); n != 1 {
		t.Fatalf("StampDesyncs = %d, want 1", n)
	}
	if got := recv(f1); len(got) != 1 || got[0] != 1 { // full stamp re-anchors
		t.Fatalf("full-stamp frame delivered %v, want [1]", got)
	}
	if got := recv(f2); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("replayed delta frame delivered %v, want [2 3]", got)
	}
	if n := lm.StampDesyncs.Load(); n != 1 {
		t.Fatalf("StampDesyncs = %d after recovery, want 1", n)
	}
	if lm.BytesIn.Load() == 0 {
		t.Fatal("inbound byte counter not populated")
	}
}

// TestSingleGroupWireBytesGolden pins a single-group node's datagrams to
// the bytes the pre-shard runtime (Node.loop + wireLink, PR 11) emitted
// for the same seeded run: one node of three over a chanTransport, fed a
// peer engine's DATA frames between its own broadcasts, with every timer
// parked so each Broadcast yields exactly one datagram. The golden file
// was captured at that commit (its codec-v1 rows went with that codec);
// group 0 riding a shard must not change a byte.
func TestSingleGroupWireBytesGolden(t *testing.T) {
	golden := map[string][]string{}
	file, err := os.Open("testdata/golden_group0_datagrams.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for sc := bufio.NewScanner(file); sc.Scan(); {
		codec, frame, _ := strings.Cut(sc.Text(), " ")
		golden[codec] = append(golden[codec], frame)
	}
	t.Run("codec2", func(t *testing.T) {
		const n = 3
		want := golden["codec2"]
		if len(want) == 0 {
			t.Fatal("no golden datagrams")
		}
		tr := newChanTransport()
		nd, err := NewNode(0, n, tr, WithDeferredAckInterval(time.Hour), WithRetransmitTimeout(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		peer, err := core.New(core.Config{ID: 1, N: n, Window: core.DefaultWindow})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1994))
		payload := func() []byte {
			b := make([]byte, 8+rng.Intn(40))
			rng.Read(b)
			return b
		}
		recvd := uint64(0)
		for i := range want {
			if i%3 == 1 {
				out := peer.Submit(payload(), time.Duration(i)*time.Millisecond)
				frame, err := pdu.EncodeFrameV2(out.PDUs, nil)
				if err != nil {
					t.Fatal(err)
				}
				tr.recv <- frame
				recvd += uint64(len(out.PDUs))
				for nd.Stats().DataRecv < recvd {
					time.Sleep(time.Millisecond)
				}
			}
			if err := nd.Broadcast(payload()); err != nil {
				t.Fatal(err)
			}
			select {
			case f := <-tr.frames:
				if got := hex.EncodeToString(f); got != want[i] {
					t.Fatalf("datagram %d differs from the parent's:\n got %s\nwant %s", i, got, want[i])
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("no datagram for broadcast %d", i)
			}
		}
	})
}
