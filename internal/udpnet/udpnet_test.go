package udpnet

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// mesh binds n loopback transports, each with the other n-1 as peers:
// it probes n free ports with throw-away transports, then binds the real
// ones to them.
func mesh(tb testing.TB, n, inboxCap int, opts ...Option) []*Transport {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		probe, err := New("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		addrs[i] = probe.LocalAddr()
		if err := probe.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	trs := make([]*Transport, n)
	for i := range trs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tr, err := New(addrs[i], peers, inboxCap, opts...)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	return trs
}

// pair binds two loopback transports pointed at each other.
func pair(t *testing.T, inboxCap int, opts ...Option) (*Transport, *Transport) {
	t.Helper()
	trs := mesh(t, 2, inboxCap, opts...)
	return trs[0], trs[1]
}

func recvOne(t *testing.T, tr *Transport) []byte {
	t.Helper()
	select {
	case b, ok := <-tr.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for datagram")
		return nil
	}
}

func TestRoundTrip(t *testing.T) {
	a, b := pair(t, 0)
	msg := []byte("over the loopback")
	if err := a.Broadcast(msg); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
	if err := b.Broadcast([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a); string(got) != "reply" {
		t.Fatalf("reply = %q", got)
	}
	if s := a.Stats(); s.Sent == 0 || s.Received == 0 {
		t.Errorf("stats: %+v", s)
	}
}

func TestManyDatagramsInOrderOnLoopback(t *testing.T) {
	a, b := pair(t, 4096)
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Broadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		got := recvOne(t, b)
		if got[0] != byte(i) {
			t.Fatalf("position %d: got %d (loopback reordered?)", i, got[0])
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New("127.0.0.1:0", nil, 0); err == nil {
		t.Error("no peers accepted")
	}
	if _, err := New("###", []string{"127.0.0.1:1"}, 0); err == nil {
		t.Error("bad local addr accepted")
	}
	if _, err := New("127.0.0.1:0", []string{"###"}, 0); err == nil {
		t.Error("bad peer accepted")
	}
}

func TestOversizeDatagramRejected(t *testing.T) {
	a, b := pair(t, 0)
	err := a.Broadcast(make([]byte, MaxDatagram+1))
	if !errors.Is(err, ErrDatagramTooLarge) {
		t.Errorf("oversize error = %v, want ErrDatagramTooLarge", err)
	}
	if s := a.Stats(); s.Oversize != 1 || s.Sent != 0 {
		t.Errorf("after oversize reject: %+v, want Oversize=1 Sent=0", s)
	}
	// A datagram at exactly the bound still goes through.
	if err := a.Broadcast(make([]byte, MaxDatagram)); err != nil {
		t.Fatalf("max-size datagram rejected: %v", err)
	}
	if got := recvOne(t, b); len(got) != MaxDatagram {
		t.Errorf("received %d bytes, want %d", len(got), MaxDatagram)
	}
	if s := a.Stats(); s.Oversize != 1 {
		t.Errorf("Oversize moved on a valid send: %+v", s)
	}
}

func TestCloseIsIdempotentAndStopsTraffic(t *testing.T) {
	a, err := New("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := a.Broadcast([]byte("x")); err == nil {
		t.Error("broadcast after close succeeded")
	}
	if _, ok := <-a.Recv(); ok {
		t.Error("recv not closed")
	}
}

func TestInboxOverrunCounts(t *testing.T) {
	// Tiny inbox with nobody draining: the reader must drop, not block.
	a, b := pair(t, 2)
	const count = 100
	for i := 0; i < count; i++ {
		if err := a.Broadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := b.Stats()
		if s.Received+s.Overrun >= count/2 && s.Overrun > 0 {
			return // drops observed, reader alive
		}
		if time.Now().After(deadline) {
			t.Fatalf("no overrun observed: %+v (UDP may have dropped in-kernel)", s)
		}
		time.Sleep(time.Millisecond)
	}
}
