package groups

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

// tagFrames records, in order, the tag each inbound it is handed
// carries in Raw (badTag for anything else): the inputs that reached
// the shard's wire adapter, the last step before the engine.
type tagFrames struct {
	mu   sync.Mutex
	tags []uint64
}

const badTag = ^uint64(0)

func (f *tagFrames) Flush() {}
func (f *tagFrames) Deliver(_ uint32, in Inbound, _ func(p *pdu.PDU)) {
	tag := badTag
	if len(in.Raw) == 8 {
		tag = binary.BigEndian.Uint64(in.Raw)
	}
	f.record(tag)
}

// Append records a DATA PDU carrying an 8-byte submission (see
// submitTag), the engine's first output for it; the shard's engine
// sends one per submission while its window is open.
func (f *tagFrames) Append(_ uint32, p *pdu.PDU) {
	if p.Kind == pdu.KindData && !p.Packed && len(p.Data) == 8 {
		f.record(binary.BigEndian.Uint64(p.Data))
	}
}

func (f *tagFrames) record(tag uint64) {
	f.mu.Lock()
	f.tags = append(f.tags, tag)
	f.mu.Unlock()
}

func (f *tagFrames) handled() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.tags...)
}

// tagged is an inbound carrying tag.
func tagged(tag uint64) Inbound {
	return Inbound{Raw: binary.BigEndian.AppendUint64(nil, tag)}
}

// submitTag submits tag on group g as an 8-byte message.
func submitTag(t *testing.T, r *Registry, g uint32, tag uint64) {
	t.Helper()
	if err := r.Submit(context.Background(), g, binary.BigEndian.AppendUint64(nil, tag)); err != nil {
		t.Fatalf("submit %d: %v", tag, err)
	}
}

// newInboxRegistry builds a one-shard registry whose engines are real
// but whose wire is f.
func newInboxRegistry(t *testing.T, f Frames) *Registry {
	t.Helper()
	r := New(Config{
		Shards: 1,
		NewEntity: func(g uint32, _ *core.Ledger) (*core.Entity, error) {
			return core.New(core.Config{ClusterID: g, ID: 0, N: 2})
		},
		NewFrames: func(int) Frames { return f },
		Deliver:   func(uint32, []core.Delivery) {},
		Tick:      time.Millisecond,
		Now:       func() time.Duration { return 0 },
	})
	return r
}

// holdShard keeps s's loop busy in a query until release is first
// called, so everything sent meanwhile stays queued.
func holdShard(t *testing.T, s *shard) (release func()) {
	t.Helper()
	entered, gate, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- s.ask(context.Background(), func(*shard) error {
			close(entered)
			<-gate
			return nil
		})
	}()
	<-entered
	var once sync.Once
	return func() {
		once.Do(func() {
			close(gate)
			if err := <-done; err != nil {
				t.Errorf("held query: %v", err)
			}
		})
	}
}

func queued(s *shard) int {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return len(s.in.queue)
}

// TestInboxBoundBlocksAndCancels pins the inbox bound and Submit's ctx
// contract: with the loop busy, shardInboxCap submissions are accepted
// and the next blocks; cancelling it returns ctx.Err() and queues
// nothing; once the loop takes its batch, a blocked Submit gets in.
func TestInboxBoundBlocksAndCancels(t *testing.T) {
	r := newInboxRegistry(t, &tagFrames{})
	defer r.Close()
	s := r.shards[0]
	release := holdShard(t, s)
	ctx := context.Background()
	for i := 0; i < shardInboxCap; i++ {
		if err := r.Submit(ctx, 1, []byte{byte(i)}); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() { errc <- r.Submit(cctx, 1, []byte("over")) }()
	select {
	case err := <-errc:
		t.Fatalf("Submit into a full inbox returned %v, want it to block", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit = %v, want context.Canceled", err)
	}
	if n := queued(s); n != shardInboxCap {
		t.Fatalf("%d inputs queued after the cancelled Submit, want %d", n, shardInboxCap)
	}
	go func() { errc <- r.Submit(ctx, 1, []byte("late")) }()
	select {
	case err := <-errc:
		t.Fatalf("Submit into a full inbox returned %v, want it to block", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-errc; err != nil {
		t.Fatalf("blocked Submit after the loop took its batch: %v", err)
	}
}

// TestInboxFIFOAcrossSwaps: one sender's inputs are handled in the
// order it sent them, over bursts larger and smaller than the inbox
// with idle gaps between them, so the loop sleeps, wakes and swaps
// buffers many times over.
func TestInboxFIFOAcrossSwaps(t *testing.T) {
	f := &tagFrames{}
	r := newInboxRegistry(t, f)
	defer r.Close()
	rng := rand.New(rand.NewSource(1))
	var sent uint64
	for burst := 0; burst < 60; burst++ {
		for k := rng.Intn(2 * shardInboxCap); k >= 0; k-- {
			r.Inbound(1, tagged(sent))
			sent++
		}
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
	}
	waitFor(t, "every input handled", func() bool { return len(f.handled()) == int(sent) })
	for i, tag := range f.handled() {
		if tag != uint64(i) {
			t.Fatalf("input %d handled as #%d: not in send order", tag, i)
		}
	}
}

// TestInboxCloseReleasesQueued closes a registry whose inbox is full:
// every queued datagram goes back to the pool, every queued query is
// answered ErrClosed, and none of them is handled.
func TestInboxCloseReleasesQueued(t *testing.T) {
	var returned atomic.Int64
	defer func(put func([]byte)) { putDatagram = put }(putDatagram)
	putDatagram = func([]byte) { returned.Add(1) }

	f := &tagFrames{}
	r := newInboxRegistry(t, f)
	s := r.shards[0]
	release := holdShard(t, s)
	const datagrams, asks = 200, shardInboxCap - 200
	for i := 0; i < datagrams; i++ {
		r.Inbound(1, tagged(uint64(i)))
	}
	answers := make(chan error, asks)
	for i := 0; i < asks; i++ {
		go func() {
			answers <- s.ask(context.Background(), func(*shard) error { return nil })
		}()
	}
	waitFor(t, "a full inbox", func() bool { return queued(s) == shardInboxCap })
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	<-s.r.stop // the loop sees stop as soon as it finishes the held query
	release()
	<-closed
	for i := 0; i < asks; i++ {
		if err := <-answers; !errors.Is(err, ErrClosed) {
			t.Fatalf("queued query answered %v, want ErrClosed", err)
		}
	}
	if n := returned.Load(); n != datagrams {
		t.Errorf("%d datagrams returned to the pool at close, want %d", n, datagrams)
	}
	if n := len(f.handled()); n != 0 {
		t.Errorf("%d queued datagrams handled after close, want 0", n)
	}
}

// TestOfferBoundRefusesAndKeepsOrder pins the receive buffer Offer
// fills: with the loop busy, exactly limit offers are taken while
// Submits queue beside them, the next offer is refused and queues
// nothing, and a Submit still gets in (its bound is the inbox's). Once
// the loop takes its batch, the accepted datagrams reach the wire
// adapter in offer order, interleaved with the Submits as they were
// queued, and the buffer is empty again.
func TestOfferBoundRefusesAndKeepsOrder(t *testing.T) {
	const limit = 8
	f := &tagFrames{}
	r := newInboxRegistry(t, f)
	defer r.Close()
	s := r.shards[0]
	release := holdShard(t, s)
	defer release() // before Close, which waits for the loop
	var want []uint64
	for i := uint64(0); i < limit; i++ {
		if !r.Offer(1, tagged(i), limit) {
			t.Fatalf("offer %d of %d refused", i, limit)
		}
		want = append(want, i)
		if i%3 == 0 {
			submitTag(t, r, 1, 1000+i)
			want = append(want, 1000+i)
		}
	}
	if r.Offer(1, tagged(limit), limit) {
		t.Fatalf("offer %d taken past the limit of %d", limit, limit)
	}
	if n := queued(s); n != len(want) {
		t.Fatalf("%d inputs queued after the refused offer, want %d", n, len(want))
	}
	submitTag(t, r, 1, 2000)
	want = append(want, 2000)
	release()
	waitFor(t, "every queued input handled", func() bool { return len(f.handled()) >= len(want) })
	if got := f.handled(); !slices.Equal(got, want) {
		t.Fatalf("handled %v, want %v", got, want)
	}
	if !r.Offer(1, tagged(3000), limit) {
		t.Fatal("offer refused after the loop took the buffer's batch")
	}
}

// TestInboxStressEveryInputOnce: producers send tagged inputs with
// random idle gaps while the loop sleeps, wakes and swaps under them,
// some waiting for room (Inbound) and some offering to a small receive
// buffer and retrying what it refuses (Offer); every tag must be
// handled exactly once, each producer's in order. Run it under -race:
// the inbox is hand-written synchronization, and a swap that leaves the
// queue and the loop's batch on one array loses and duplicates inputs
// here, as does a refused offer that queues.
func TestInboxStressEveryInputOnce(t *testing.T) {
	const producers, offerers, perProducer, limit = 4, 2, 3000, 16
	f := &tagFrames{}
	r := newInboxRegistry(t, f)
	defer r.Close()
	var wg sync.WaitGroup
	var refused atomic.Int64
	for p := 0; p < producers+offerers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				in := tagged(uint64(p)<<32 | uint64(i))
				if p < producers {
					r.Inbound(1, in)
				} else {
					for !r.Offer(1, in, limit) {
						refused.Add(1)
						runtime.Gosched()
					}
				}
				if rng.Intn(64) == 0 {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			}
		}(p)
	}
	wg.Wait()
	t.Logf("%d offers refused and retried", refused.Load())
	// A query queues behind every input sent above.
	if err := r.shards[0].ask(context.Background(), func(*shard) error { return nil }); err != nil {
		t.Fatal(err)
	}
	next := make([]uint64, producers+offerers)
	for _, tag := range f.handled() {
		p, i := tag>>32, tag&(1<<32-1)
		if p >= producers+offerers || i != next[p] {
			t.Fatalf("input %#x handled when %v were next: lost, duplicated, reordered or corrupted", tag, next)
		}
		next[p]++
	}
	for p, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: %d of %d inputs handled", p, n, perProducer)
		}
	}
}
