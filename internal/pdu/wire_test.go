package pdu

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		p    *PDU
	}{
		{
			name: "data",
			p: &PDU{
				Kind: KindData, CID: 42, Src: 2, SEQ: 17,
				ACK: []Seq{1, 2, 3, 4}, BUF: 128, NeedAck: true,
				LSrc: NoEntity, Data: []byte("the quick brown fox"),
			},
		},
		{
			name: "sync empty data",
			p: &PDU{
				Kind: KindSync, CID: 1, Src: 0, SEQ: 1,
				ACK: []Seq{9, 9}, BUF: 1, LSrc: NoEntity,
			},
		},
		{
			name: "ackonly",
			p: &PDU{
				Kind: KindAckOnly, CID: 7, Src: 1,
				ACK: []Seq{5, 6, 7}, BUF: 0, LSrc: NoEntity,
			},
		},
		{
			name: "ret",
			p: &PDU{
				Kind: KindRet, CID: 9, Src: 3,
				ACK: []Seq{1, 1, 1, 1}, LSrc: 2, LSeq: 44,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := tt.p.MarshalV2(nil)
			if err != nil {
				t.Fatalf("MarshalV2: %v", err)
			}
			// Under the fixed-width model, within the early-flush bound.
			if len(b) >= tt.p.EncodedSize() || len(b) > tt.p.EncodedSizeV2Bound() {
				t.Errorf("len = %d, EncodedSize() = %d, bound %d", len(b), tt.p.EncodedSize(), tt.p.EncodedSizeV2Bound())
			}
			got, err := UnmarshalV2(b, nil)
			if err != nil {
				t.Fatalf("UnmarshalV2: %v", err)
			}
			if !reflect.DeepEqual(got, tt.p) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, tt.p)
			}
		})
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := &PDU{
		Kind: KindData, CID: 1, Src: 0, SEQ: 1,
		ACK: []Seq{1, 2}, LSrc: NoEntity, Data: []byte("abc"),
	}
	good, err := p.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, err := UnmarshalV2(good[:cut], nil); err == nil {
				t.Fatalf("UnmarshalV2 accepted %d/%d bytes", cut, len(good))
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := UnmarshalV2(nil, nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := range good {
			bad := bytes.Clone(good)
			bad[i] ^= 0x40
			if _, err := UnmarshalV2(bad, nil); err == nil {
				t.Fatalf("UnmarshalV2 accepted datagram with byte %d flipped", i)
			}
		}
	})
	t.Run("bad magic with fixed crc", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[0] = 0
		refreshCRC(bad)
		if _, err := UnmarshalV2(bad, nil); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version with fixed crc", func(t *testing.T) {
		// 1 is the retired fixed-width codec's version byte.
		for _, v := range []byte{1, 99} {
			bad := bytes.Clone(good)
			bad[2] = v
			refreshCRC(bad)
			if _, err := UnmarshalV2(bad, nil); !errors.Is(err, ErrBadVersion) {
				t.Errorf("version %d: got %v, want ErrBadVersion", v, err)
			}
		}
	})
	t.Run("unknown flag bits with fixed crc", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[4] |= 0x80
		refreshCRC(bad)
		if _, err := UnmarshalV2(bad, nil); !errors.Is(err, ErrBadFlags) {
			t.Errorf("got %v, want ErrBadFlags", err)
		}
	})
}

// refreshCRC recomputes the trailer so corruption tests exercise the
// structural checks rather than the checksum.
func refreshCRC(b []byte) {
	body := b[:len(b)-4]
	crc := crc32.ChecksumIEEE(body)
	b[len(b)-4] = byte(crc >> 24)
	b[len(b)-3] = byte(crc >> 16)
	b[len(b)-2] = byte(crc >> 8)
	b[len(b)-1] = byte(crc)
}

func TestEncodedSizeGrowsLinearlyWithN(t *testing.T) {
	// The O(n) PDU-length claim of Section 5 (experiment E5) under the
	// fixed-width size model: adding one entity adds exactly 8 bytes (one
	// ACK entry).
	size := func(n int) int {
		p := &PDU{Kind: KindSync, Src: 0, SEQ: 1, ACK: make([]Seq, n), LSrc: NoEntity}
		return p.EncodedSize()
	}
	base := size(2)
	for n := 3; n <= 64; n++ {
		if got, want := size(n), base+8*(n-2); got != want {
			t.Fatalf("EncodedSize(n=%d) = %d, want %d", n, got, want)
		}
	}
}

// TestMarshalQuick round-trips randomly generated PDUs.
func TestMarshalQuick(t *testing.T) {
	f := func(cid uint32, srcRaw uint8, seqRaw uint16, bufv uint32, need bool, acks []uint16, data []byte) bool {
		n := len(acks) + 1
		p := &PDU{
			Kind: KindData, CID: cid, Src: EntityID(int(srcRaw) % n),
			SEQ: Seq(seqRaw) + 1, BUF: bufv, NeedAck: need,
			ACK: make([]Seq, len(acks)), LSrc: NoEntity,
		}
		for i, a := range acks {
			p.ACK[i] = Seq(a)
		}
		if len(data) > 0 {
			p.Data = bytes.Clone(data)
		}
		b, err := p.MarshalV2(nil)
		if err != nil {
			return false
		}
		got, err := UnmarshalV2(b, nil)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, p)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMarshalAppendMatchesMarshal checks that MarshalAppendV2 produces the
// exact MarshalV2 encoding, appended after any existing prefix untouched.
func TestMarshalAppendMatchesMarshal(t *testing.T) {
	p := &PDU{
		Kind: KindData, CID: 42, Src: 2, SEQ: 17,
		ACK: []Seq{1, 2, 3, 4}, BUF: 128, NeedAck: true,
		LSrc: NoEntity, Data: []byte("payload"),
	}
	want, err := p.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("existing")
	got, err := p.MarshalAppendV2(bytes.Clone(prefix), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Errorf("prefix clobbered: %q", got[:len(prefix)])
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("appended encoding differs from MarshalV2:\n got %x\nwant %x", got[len(prefix):], want)
	}
}

// TestUnmarshalFromReuse decodes a sequence of differently shaped PDUs
// into one scratch, checking every field is fully overwritten (no state
// leaks between decodes through the reused ACK/Data capacity).
func TestUnmarshalFromReuse(t *testing.T) {
	pdus := []*PDU{
		{Kind: KindData, CID: 1, Src: 0, SEQ: 9, ACK: []Seq{7, 8, 9, 10}, BUF: 4,
			NeedAck: true, LSrc: NoEntity, Data: []byte("a longer payload here")},
		{Kind: KindAckOnly, CID: 1, Src: 2, ACK: []Seq{1, 2}, LSrc: NoEntity},
		{Kind: KindRet, CID: 3, Src: 1, ACK: []Seq{5}, LSrc: 0, LSeq: 6},
		{Kind: KindSync, CID: 2, Src: 3, SEQ: 1, ACK: []Seq{0, 0, 0, 0, 0, 0}, LSrc: NoEntity},
	}
	var scratch PDU
	for i, p := range pdus {
		b, err := p.MarshalV2(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := scratch.UnmarshalFromV2(b, nil); err != nil {
			t.Fatalf("pdu %d: UnmarshalFromV2: %v", i, err)
		}
		// Compare against the fresh-allocation decode (wireEqual treats
		// the empty non-nil Data scratch reuse keeps as the nil a fresh
		// decode yields).
		want, err := UnmarshalV2(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := &scratch; !wireEqual(got, want) {
			t.Errorf("pdu %d: reuse decode mismatch:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

// TestPooledCodecZeroAllocs pins the allocation-free contract of the hot
// path: a pooled datagram buffer through MarshalAppendV2 and a scratch PDU
// through UnmarshalFromV2 must not allocate in steady state.
func TestPooledCodecZeroAllocs(t *testing.T) {
	p := &PDU{
		Kind: KindData, CID: 1, Src: 2, SEQ: 99,
		ACK: make([]Seq, 16), BUF: 1024, LSrc: NoEntity,
		Data: make([]byte, 256),
	}
	var scratch PDU
	// Warm the pool and grow scratch's slices once.
	warm, err := p.MarshalAppendV2(GetDatagram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.UnmarshalFromV2(warm, nil); err != nil {
		t.Fatal(err)
	}
	PutDatagram(warm)

	allocs := testing.AllocsPerRun(100, func() {
		buf, err := p.MarshalAppendV2(GetDatagram(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := scratch.UnmarshalFromV2(buf, nil); err != nil {
			t.Fatal(err)
		}
		PutDatagram(buf)
	})
	if allocs != 0 {
		t.Errorf("pooled marshal/unmarshal round trip: %.1f allocs/op, want 0", allocs)
	}
}

// TestDatagramPool checks the pool contract: GetDatagram returns an
// empty slice with full capacity, and PutDatagram silently drops
// foreign (undersized) buffers instead of poisoning the pool.
func TestDatagramPool(t *testing.T) {
	b := GetDatagram()
	if len(b) != 0 || cap(b) != DatagramBufCap {
		t.Fatalf("GetDatagram: len=%d cap=%d, want 0/%d", len(b), cap(b), DatagramBufCap)
	}
	PutDatagram(b)
	PutDatagram(make([]byte, 16)) // undersized: dropped
	PutDatagram(nil)              // nil: dropped
	if c := GetDatagram(); cap(c) != DatagramBufCap {
		t.Fatalf("pool poisoned: cap=%d, want %d", cap(c), DatagramBufCap)
	}
}
