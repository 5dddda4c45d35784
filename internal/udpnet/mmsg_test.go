package udpnet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cobcast/internal/pdu"
)

// seededWorkload builds count datagrams of varying size from a fixed
// seed, so the exact same byte sequence can be replayed over both wire
// paths.
func seededWorkload(seed int64, count int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, count)
	for i := range out {
		d := make([]byte, 16+rng.Intn(512))
		rng.Read(d)
		// Tag with the index so ordering violations are identifiable.
		d[0], d[1] = byte(i>>8), byte(i)
		out[i] = d
	}
	return out
}

// runWorkload replays the workload from a to b in batches and returns
// the digest of the received byte sequence, in arrival order.
func runWorkload(t *testing.T, a, b *Transport, work [][]byte, batch int) [32]byte {
	t.Helper()
	done := make(chan [32]byte)
	go func() {
		h := sha256.New()
		for range work {
			select {
			case d := <-b.Recv():
				h.Write(d)
				pdu.PutDatagram(d)
			case <-time.After(10 * time.Second):
				t.Error("timeout draining workload")
				close(done)
				return
			}
		}
		var sum [32]byte
		h.Sum(sum[:0])
		done <- sum
	}()
	for i := 0; i < len(work); i += batch {
		end := i + batch
		if end > len(work) {
			end = len(work)
		}
		if err := a.BroadcastBatch(work[i:end]); err != nil {
			t.Fatal(err)
		}
		// Pace lightly so the inbox never overruns: equivalence needs
		// zero loss, and loopback offers no flow control.
		if i%16 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	sum, ok := <-done
	if !ok {
		t.FailNow()
	}
	return sum
}

// TestWirePathEquivalence replays one seeded workload over the batched
// and per-datagram wire paths and requires byte-identical arrival
// sequences: same datagrams, same per-sender order, same digest.
func TestWirePathEquivalence(t *testing.T) {
	work := seededWorkload(42, 400)
	var digests [2][32]byte
	for i, on := range []bool{true, false} {
		a, b := pair(t, 4096, WithBatchSyscalls(on))
		if on && !a.BatchSyscalls() {
			t.Skip("batched syscalls unsupported on this platform")
		}
		digests[i] = runWorkload(t, a, b, work, 16)
		if s := b.Stats(); s.Overrun > 0 {
			t.Fatalf("path batch=%v lost datagrams to overrun: %+v", on, s)
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("delivered sequences differ across wire paths: %x vs %x", digests[0], digests[1])
	}
}

// TestBroadcastBatchOrderAndCounters sends one multi-datagram batch and
// checks arrival order, content, and the syscall-amortization counters.
func TestBroadcastBatchOrderAndCounters(t *testing.T) {
	a, b := pair(t, 4096)
	const count = 32
	batch := make([][]byte, count)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("batch-datagram-%02d", i))
	}
	if err := a.BroadcastBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		got := recvOne(t, b)
		if !bytes.Equal(got, batch[i]) {
			t.Fatalf("position %d: got %q want %q", i, got, batch[i])
		}
	}
	s := a.Stats()
	if s.Sent != count {
		t.Errorf("Sent = %d, want %d", s.Sent, count)
	}
	var wantBytes uint64
	for _, d := range batch {
		wantBytes += uint64(len(d))
	}
	if s.BytesSent != wantBytes {
		t.Errorf("BytesSent = %d, want %d", s.BytesSent, wantBytes)
	}
	if a.BatchSyscalls() {
		// The whole batch fits one sendmmsg toward the single peer.
		if s.SendmmsgCalls == 0 || s.SendmmsgCalls > 2 {
			t.Errorf("SendmmsgCalls = %d, want 1..2 for one %d-datagram batch", s.SendmmsgCalls, count)
		}
		if rs := b.Stats(); rs.RecvmmsgCalls == 0 {
			t.Errorf("receiver RecvmmsgCalls = 0 on batched path (stats %+v)", rs)
		}
	} else if s.SendmmsgCalls != 0 {
		t.Errorf("SendmmsgCalls = %d on per-datagram path", s.SendmmsgCalls)
	}
	if err := a.BroadcastBatch(nil); err != nil {
		t.Errorf("empty batch errored: %v", err)
	}
}

// TestBroadcastBatchOversizeMixed checks that an oversize datagram in a
// batch is rejected and counted while the rest still go out.
func TestBroadcastBatchOversizeMixed(t *testing.T) {
	a, b := pair(t, 64)
	batch := [][]byte{
		[]byte("fine-1"),
		make([]byte, MaxDatagram+1),
		[]byte("fine-2"),
	}
	if err := a.BroadcastBatch(batch); err == nil {
		t.Error("oversize datagram in batch not reported")
	}
	if got := recvOne(t, b); string(got) != "fine-1" {
		t.Errorf("first datagram = %q", got)
	}
	if got := recvOne(t, b); string(got) != "fine-2" {
		t.Errorf("second datagram = %q", got)
	}
	if s := a.Stats(); s.Oversize != 1 || s.Sent != 2 {
		t.Errorf("stats after mixed batch: %+v, want Oversize=1 Sent=2", s)
	}
}

// TestSendErrorsCounted drives a send the kernel must reject —
// destination port 0 fails sendto/sendmmsg with EINVAL — and checks the
// rejection lands in SendErrors instead of vanishing (on either path).
func TestSendErrorsCounted(t *testing.T) {
	for _, on := range []bool{true, false} {
		tr, err := New("127.0.0.1:0", []string{"127.0.0.1:0"}, 0, WithBatchSyscalls(on))
		if err != nil {
			t.Fatal(err)
		}
		if on && !tr.BatchSyscalls() {
			tr.Close()
			continue
		}
		if err := tr.Broadcast([]byte("never leaves")); err != nil {
			t.Fatal(err)
		}
		s := tr.Stats()
		tr.Close()
		if s.SendErrors != 1 || s.Sent != 0 {
			t.Errorf("batch=%v: stats %+v, want SendErrors=1 Sent=0", on, s)
		}
	}
}

// TestSocketBuffers checks the option plumbs through and the effective
// sizes are reported. The kernel may clamp (or on Linux double) the
// request, so only coarse shape is asserted.
func TestSocketBuffers(t *testing.T) {
	tr, err := New("127.0.0.1:0", []string{"127.0.0.1:1"}, 0, WithSocketBuffers(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	r, w := tr.SocketBuffers()
	if r <= 0 || w <= 0 {
		t.Errorf("SocketBuffers = %d, %d; want positive effective sizes", r, w)
	}
	st := tr.State()
	if st.ReadBufferBytes != r || st.WriteBufferBytes != w {
		t.Errorf("State buffers %+v disagree with SocketBuffers %d/%d", st, r, w)
	}
	if st.BatchSyscalls != tr.BatchSyscalls() {
		t.Errorf("State.BatchSyscalls = %v, want %v", st.BatchSyscalls, tr.BatchSyscalls())
	}
}

// TestBatchSyscallsOptionForcesPortablePath pins the explicit opt-out.
func TestBatchSyscallsOptionForcesPortablePath(t *testing.T) {
	tr, err := New("127.0.0.1:0", []string{"127.0.0.1:1"}, 0, WithBatchSyscalls(false))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.BatchSyscalls() {
		t.Error("WithBatchSyscalls(false) left the batched path on")
	}
}

// TestBatchedSendSteadyStateAllocs requires the mmsg send path to be
// allocation-free in steady state: the sockaddrs, iovec patterns and
// mmsghdr rings are all pre-built, and the send closure is bound once.
func TestBatchedSendSteadyStateAllocs(t *testing.T) {
	// Peers nobody listens on: sendto succeeds (UDP is connectionless),
	// nothing arrives anywhere, so only the send path runs.
	tr, err := New("127.0.0.1:0", []string{"127.0.0.1:9", "127.0.0.1:11"}, 0, WithBatchSyscalls(true))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if !tr.BatchSyscalls() {
		t.Skip("batched syscalls unsupported on this platform")
	}
	datagram := bytes.Repeat([]byte("x"), 512)
	batch := [][]byte{datagram, datagram, datagram, datagram}
	// Warm up: first BroadcastBatch sizes the batch pattern.
	for i := 0; i < 4; i++ {
		if err := tr.BroadcastBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Broadcast(datagram); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Broadcast allocates %.2f per op on the mmsg path, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := tr.BroadcastBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("BroadcastBatch allocates %.2f per op on the mmsg path, want 0", allocs)
	}
	if s := tr.Stats(); s.SendErrors > 0 {
		t.Errorf("unexpected send errors: %+v", s)
	}
}

// TestBatchedReceiveSoak pushes thousands of datagrams through the
// recvmmsg ring in bursts (run it with -race to exercise the slot
// ownership protocol) and checks nothing is lost, reordered or torn.
func TestBatchedReceiveSoak(t *testing.T) {
	a, b := pair(t, 8192, WithBatchSyscalls(true))
	if !a.BatchSyscalls() {
		t.Skip("batched syscalls unsupported on this platform")
	}
	const total, batch = 4000, 20
	done := make(chan int)
	go func() {
		next := 0
		for next < total {
			select {
			case d := <-b.Recv():
				got := int(d[0])<<8 | int(d[1])
				if got != next {
					t.Errorf("datagram %d arrived at position %d", got, next)
				}
				next++
				pdu.PutDatagram(d)
			case <-time.After(10 * time.Second):
				done <- next
				return
			}
		}
		done <- next
	}()
	buf := make([][]byte, batch)
	for i := 0; i < total; i += batch {
		for j := range buf {
			d := make([]byte, 128)
			d[0], d[1] = byte((i+j)>>8), byte(i+j)
			buf[j] = d
		}
		if err := a.BroadcastBatch(buf); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if got := <-done; got != total {
		t.Fatalf("received %d/%d datagrams (receiver stats %+v)", got, total, b.Stats())
	}
	s := b.Stats()
	if s.RecvmmsgCalls == 0 || s.RecvmmsgCalls > s.Received {
		t.Errorf("RecvmmsgCalls = %d with Received = %d", s.RecvmmsgCalls, s.Received)
	}
}
