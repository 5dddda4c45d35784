package pdu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// wireEqual compares the wire identity of two PDUs, taking an empty
// slice for a nil one.
func wireEqual(a, b *PDU) bool {
	ac, bc := *a, *b
	if len(ac.ACK) == 0 && len(bc.ACK) == 0 {
		ac.ACK, bc.ACK = nil, nil
	}
	if len(ac.Data) == 0 && len(bc.Data) == 0 {
		ac.Data, bc.Data = nil, nil
	}
	return reflect.DeepEqual(ac, bc)
}

// seqStream synthesizes a plausible sequenced stream from src for a
// cluster of n: each PDU advances its own ACK entry to SEQ and bumps a
// few other entries, like a live engine does.
func seqStream(src EntityID, n, count int, rng *rand.Rand) []*PDU {
	ack := make([]Seq, n)
	out := make([]*PDU, 0, count)
	for s := 1; s <= count; s++ {
		ack[src] = Seq(s)
		for k := 0; k < 1+rng.Intn(3); k++ {
			j := rng.Intn(n)
			ack[j] += Seq(rng.Intn(3))
		}
		p := &PDU{Kind: KindData, CID: 1, Src: src, SEQ: Seq(s),
			ACK: append([]Seq(nil), ack...), BUF: 100, LSrc: NoEntity,
			Data: []byte("payload")}
		out = append(out, p)
	}
	return out
}

func TestV2RoundTripStream(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64, 128} {
		rng := rand.New(rand.NewSource(int64(n)))
		enc := NewStampEncoder(8)
		var dec StampDecoder
		sawDelta := false
		for _, p := range seqStream(1%EntityID(n), n, 50, rng) {
			b, err := p.MarshalV2(enc)
			if err != nil {
				t.Fatalf("n=%d MarshalV2: %v", n, err)
			}
			if len(b) > p.EncodedSizeV2Bound() {
				t.Fatalf("n=%d len=%d exceeds bound %d", n, len(b), p.EncodedSizeV2Bound())
			}
			got, err := UnmarshalV2(b, &dec)
			if err != nil {
				t.Fatalf("n=%d seq=%d UnmarshalV2: %v", n, p.SEQ, err)
			}
			if !wireEqual(got, p) {
				t.Fatalf("n=%d seq=%d round trip:\n got %v\nwant %v", n, p.SEQ, got, p)
			}
			if b[4]&flagFullStamp == 0 {
				sawDelta = true
			}
		}
		if n >= 16 && !sawDelta {
			t.Errorf("n=%d: no delta stamps produced over 50 contiguous PDUs", n)
		}
	}
}

func TestV2UnsequencedAlwaysFull(t *testing.T) {
	enc := NewStampEncoder(8)
	var dec StampDecoder
	// Prime the reference so a delta would be possible for sequenced PDUs.
	prime := &PDU{Kind: KindData, CID: 1, Src: 0, SEQ: 1, ACK: []Seq{1, 0, 0, 0}, LSrc: NoEntity}
	b, err := prime.MarshalV2(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalV2(b, &dec); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*PDU{
		{Kind: KindAckOnly, CID: 1, Src: 0, ACK: []Seq{1, 0, 0, 0}, LSrc: NoEntity},
		{Kind: KindRet, CID: 1, Src: 0, ACK: []Seq{1, 0, 0, 0}, LSrc: 2, LSeq: 5},
	} {
		b, err := p.MarshalV2(enc)
		if err != nil {
			t.Fatalf("%v: %v", p.Kind, err)
		}
		if b[4]&flagFullStamp == 0 {
			t.Fatalf("%v: unsequenced PDU encoded with delta stamp", p.Kind)
		}
		got, err := UnmarshalV2(b, &dec)
		if err != nil {
			t.Fatalf("%v: %v", p.Kind, err)
		}
		if !wireEqual(got, p) {
			t.Fatalf("%v round trip mismatch", p.Kind)
		}
	}
}

// TestV2RetHeldListRoundTrip carries a RET's held list through the codec:
// a RET for [3,14) from entity 1 that holds SEQs 4, 6 and 13 decodes,
// into a fresh PDU and into a dirty scratch one, to the same fields and
// the same held set, and re-encodes to the same bytes.
func TestV2RetHeldListRoundTrip(t *testing.T) {
	p := &PDU{Kind: KindRet, CID: 3, Src: 1, ACK: []Seq{3, 7, 2}, BUF: 4000, LSrc: 0, LSeq: 14,
		Data: AddHeld(AddHeld(AddHeld(nil, 3, 6), 3, 13), 3, 4)}
	if !bytes.Equal(p.Data, []byte{0x05, 0x02}) {
		t.Fatalf("held list %x, want 0502", p.Data)
	}
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
	b, err := p.MarshalV2(NewStampEncoder(3))
	if err != nil {
		t.Fatal(err)
	}
	scratch := &PDU{ACK: []Seq{9, 9, 9, 9}, Data: []byte("dirty-scratch")}
	fresh, err := UnmarshalV2(b, &StampDecoder{})
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.UnmarshalFromV2(b, &StampDecoder{}); err != nil {
		t.Fatal(err)
	}
	for _, got := range []*PDU{fresh, scratch} {
		if !wireEqual(got, p) {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
		for s := Seq(1); s < 20; s++ {
			if want := s == 4 || s == 6 || s == 13; got.Holds(s) != want {
				t.Errorf("Holds(%d) = %v after the round trip, want %v", s, got.Holds(s), want)
			}
		}
		again, err := got.MarshalV2(nil)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("re-encode: %x (%v), want %x", again, err, b)
		}
	}
}

func TestV2SyncPointEscapes(t *testing.T) {
	n := 16
	enc := NewStampEncoder(4) // full stamp at SEQ % 4 == 0
	mk := func(seq Seq) *PDU {
		ack := make([]Seq, n)
		ack[0] = seq
		return &PDU{Kind: KindData, CID: 1, Src: 0, SEQ: seq, ACK: ack, LSrc: NoEntity}
	}
	fullAt := func(p *PDU) bool {
		b, err := p.MarshalV2(enc)
		if err != nil {
			t.Fatalf("seq %d: %v", p.SEQ, err)
		}
		return b[4]&flagFullStamp != 0
	}
	if !fullAt(mk(1)) {
		t.Error("first PDU of a stream must be full-stamped")
	}
	if fullAt(mk(2)) {
		t.Error("contiguous successor should be delta-stamped")
	}
	if fullAt(mk(3)) {
		t.Error("contiguous successor should be delta-stamped")
	}
	if !fullAt(mk(4)) {
		t.Error("every interval-th PDU must be full-stamped")
	}
	if !fullAt(mk(2)) {
		t.Error("a retransmission (non-contiguous SEQ) must be full-stamped")
	}
	if !fullAt(mk(3)) {
		t.Error("a second retransmission must be full-stamped, not a delta on the first")
	}
	if fullAt(mk(5)) {
		t.Error("the live head must survive retransmissions: SEQ 5 is contiguous with 4")
	}
	// A regressed entry (can't happen in a live stream, but the encoder
	// must never emit a negative increment).
	p := mk(4 + 1)
	enc.lastSeq = 4
	enc.last = make([]Seq, n)
	enc.last[1] = 99
	enc.valid = true
	if !fullAt(p) {
		t.Error("a regressed ACK entry must force a full stamp")
	}
}

func TestV2IntervalOneDegeneratesToFull(t *testing.T) {
	enc := NewStampEncoder(1)
	var dec StampDecoder
	rng := rand.New(rand.NewSource(7))
	for _, p := range seqStream(0, 8, 40, rng) {
		b, err := p.MarshalV2(enc)
		if err != nil {
			t.Fatal(err)
		}
		if b[4]&flagFullStamp == 0 {
			t.Fatalf("seq %d: interval 1 must force full stamps", p.SEQ)
		}
		if _, err := UnmarshalV2(b, &dec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestV2DesyncOnLossAndResync(t *testing.T) {
	n := 8
	enc := NewStampEncoder(10)
	var dec StampDecoder
	rng := rand.New(rand.NewSource(3))
	stream := seqStream(2, n, 30, rng)
	frames := make([][]byte, len(stream))
	for i, p := range stream {
		b, err := p.MarshalV2(enc)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = b
	}
	drop := map[int]bool{4: true} // lose SEQ 5 (a delta carrier)
	desyncs, delivered := 0, 0
	for i, b := range frames {
		if drop[i] {
			continue
		}
		got, err := UnmarshalV2(b, &dec)
		switch {
		case errors.Is(err, ErrDeltaDesync):
			desyncs++
		case err != nil:
			t.Fatalf("seq %d: %v", stream[i].SEQ, err)
		default:
			delivered++
			if !wireEqual(got, stream[i]) {
				t.Fatalf("seq %d reconstructed stamp differs", stream[i].SEQ)
			}
		}
	}
	if desyncs == 0 {
		t.Fatal("loss of a delta's reference must desynchronize the decoder")
	}
	// SEQ 10 is the next sync point: everything at and after it decodes.
	if want := len(stream) - 1 - desyncs; delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
	if delivered < len(stream)-10 {
		t.Fatalf("decoder failed to resync at the interval escape: only %d delivered", delivered)
	}
}

func TestV2DuplicateDeltaDropsDuplicateFullDecodes(t *testing.T) {
	n := 4
	enc := NewStampEncoder(100)
	var dec StampDecoder
	rng := rand.New(rand.NewSource(5))
	stream := seqStream(0, n, 6, rng)
	var frames [][]byte
	for _, p := range stream {
		b, err := p.MarshalV2(enc)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	if _, err := UnmarshalV2(frames[0], &dec); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalV2(frames[1], &dec); err != nil {
		t.Fatal(err)
	}
	// Duplicate of a delta PDU: its reference is no longer SEQ-1.
	if _, err := UnmarshalV2(frames[1], &dec); !errors.Is(err, ErrDeltaDesync) {
		t.Fatalf("duplicate delta: err = %v, want ErrDeltaDesync", err)
	}
	// Duplicate of the full-stamped first PDU still decodes (it is
	// self-contained) and must not regress the cache.
	if _, err := UnmarshalV2(frames[0], &dec); err != nil {
		t.Fatalf("duplicate full stamp: %v", err)
	}
	if got, err := UnmarshalV2(frames[2], &dec); err != nil || !wireEqual(got, stream[2]) {
		t.Fatalf("stream after full-stamp duplicate: got %v err %v", got, err)
	}
}

// TestV2CrossVersionRejection: a datagram or frame in the retired version
// 1 (or any other) fails with a typed error on the decode side, and the
// encoder refuses to build a frame around an entry codec it cannot write.
func TestV2CrossVersionRejection(t *testing.T) {
	p := &PDU{Kind: KindData, CID: 1, Src: 0, SEQ: 1, ACK: []Seq{1, 0}, LSrc: NoEntity}
	v2b, err := p.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	v1b := append([]byte(nil), v2b...)
	v1b[2] = 1
	refreshCRC(v1b)
	var dec StampDecoder
	if _, err := UnmarshalV2(v1b, &dec); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version-1 datagram: err = %v, want ErrBadVersion", err)
	}

	var d FrameDecoder
	d.SetStampDecoder(&dec)
	var scratch PDU
	if err := d.Reset(mixedFrame(t, 1, v2b)); !errors.Is(err, ErrBadFrameVersion) {
		t.Fatalf("Reset(v1 frame) = %v, want ErrBadFrameVersion", err)
	}
	if _, err := d.Next(&scratch); !errors.Is(err, ErrBadFrameVersion) {
		t.Fatalf("Next after rejected v1 frame = %v, want the same terminal error", err)
	}
	if err := d.Reset(mixedFrame(t, FrameVersion2, v1b)); err != nil {
		t.Fatalf("Reset(v2 frame): %v", err)
	}
	if _, err := d.Next(&scratch); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version-1 entry in v2 frame: err = %v, want ErrBadVersion", err)
	}

	for _, ecodec := range []uint8{0, 1, 3} {
		var e FrameEncoder
		e.BeginGroup(nil, 7, ecodec, nil)
		if err := e.Append(p); !errors.Is(err, ErrBadEntryCodec) {
			t.Fatalf("Append under entry codec %d = %v, want ErrBadEntryCodec", ecodec, err)
		}
		if e.Count() != 0 {
			t.Fatalf("rejected Append counted an entry under codec %d", ecodec)
		}
		if err := d.Reset(e.Bytes()); !errors.Is(err, ErrBadEntryCodec) {
			t.Fatalf("Reset(v3 frame, entry codec %d) = %v, want ErrBadEntryCodec", ecodec, err)
		}
	}
}

// mixedFrame hand-builds a frame of the given version around one
// already-encoded entry, bypassing the encoder's version dispatch.
func mixedFrame(t *testing.T, version uint8, entry []byte) []byte {
	t.Helper()
	b := binary.BigEndian.AppendUint16(nil, FrameMagic)
	b = append(b, version)
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint32(b, uint32(len(entry)))
	return append(b, entry...)
}

// TestV2OutOfOrderDeltaIndices hand-crafts a delta stamp whose index
// pairs arrive in descending order; the decoder must apply them
// regardless of order.
func TestV2OutOfOrderDeltaIndices(t *testing.T) {
	n := 4
	var dec StampDecoder
	full := &PDU{Kind: KindData, CID: 1, Src: 0, SEQ: 1, ACK: []Seq{1, 5, 6, 7}, LSrc: NoEntity}
	fb, err := full.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalV2(fb, &dec); err != nil {
		t.Fatal(err)
	}
	// Delta for SEQ 2: entries {3:+2, 0:+1} in descending index order.
	b := binary.BigEndian.AppendUint16(nil, Magic)
	b = append(b, WireVersion2, byte(KindData), 0) // flags: delta stamp
	b = binary.AppendUvarint(b, 1)                 // cid
	b = binary.AppendUvarint(b, uint64(0+1))       // src 0
	b = binary.AppendUvarint(b, 2)                 // seq
	b = binary.AppendUvarint(b, 0)                 // buf
	b = binary.AppendUvarint(b, 0)                 // lsrc NoEntity
	b = binary.AppendUvarint(b, 0)                 // lseq
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, 2) // two delta entries
	b = binary.AppendUvarint(b, 3)
	b = binary.AppendUvarint(b, 2)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 0) // dlen
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	got, err := UnmarshalV2(b, &dec)
	if err != nil {
		t.Fatalf("out-of-order delta: %v", err)
	}
	want := []Seq{2, 5, 6, 9}
	if !reflect.DeepEqual(got.ACK, want) {
		t.Fatalf("ACK = %v, want %v", got.ACK, want)
	}
}

func TestV2RejectsNonMinimalVarint(t *testing.T) {
	// Re-encode the CID field (value 1) as the padded form 0x81 0x00.
	p := &PDU{Kind: KindData, CID: 1, Src: 0, SEQ: 1, ACK: []Seq{1, 0}, LSrc: NoEntity}
	good, err := p.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good[:5]...)
	bad = append(bad, 0x81, 0x00)             // cid = 1, non-minimal
	bad = append(bad, good[6:len(good)-4]...) // rest of body after 1-byte cid
	bad = binary.BigEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
	var dec StampDecoder
	if _, err := UnmarshalV2(bad, &dec); !errors.Is(err, ErrBadVarint) {
		t.Fatalf("non-minimal varint: err = %v, want ErrBadVarint", err)
	}
}

func TestV2DecodeAllocFree(t *testing.T) {
	enc := NewStampEncoder(8)
	rng := rand.New(rand.NewSource(9))
	stream := seqStream(1, 64, 64, rng)
	frames := make([][]byte, len(stream))
	for i, p := range stream {
		b, err := p.MarshalV2(enc)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = b
	}
	var dec StampDecoder
	var scratch PDU
	// Warm the scratch and cache.
	for _, b := range frames {
		if err := scratch.UnmarshalFromV2(b, &dec); err != nil {
			t.Fatal(err)
		}
	}
	dec.Reset()
	allocs := testing.AllocsPerRun(50, func() {
		for _, b := range frames {
			if err := scratch.UnmarshalFromV2(b, &dec); err != nil {
				t.Fatal(err)
			}
		}
		dec.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state v2 decode allocates %.1f per stream", allocs)
	}
}

func TestV2MarshalAllocBound(t *testing.T) {
	enc := NewStampEncoder(8)
	rng := rand.New(rand.NewSource(11))
	stream := seqStream(0, 64, 64, rng)
	buf := make([]byte, 0, 1<<16)
	allocs := testing.AllocsPerRun(50, func() {
		enc.Reset()
		buf = buf[:0]
		for _, p := range stream {
			var err error
			buf, err = p.MarshalAppendV2(buf, enc)
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state v2 encode allocates %.1f per stream", allocs)
	}
}

// TestV2WireSavings pins the headline property: under a contiguous
// stream, bytes per DT PDU are far below the fixed-width size model
// (EncodedSize) at large n.
func TestV2WireSavings(t *testing.T) {
	n := 64
	enc := NewStampEncoder(int(DefaultStampInterval))
	rng := rand.New(rand.NewSource(13))
	v1, v2 := 0, 0
	for _, p := range seqStream(0, n, 200, rng) {
		b2, err := p.MarshalV2(enc)
		if err != nil {
			t.Fatal(err)
		}
		v1 += p.EncodedSize()
		v2 += len(b2)
	}
	if v2*2 > v1 {
		t.Fatalf("encoded bytes %d not <= 50%% of the fixed-width model's %d at n=%d", v2, v1, n)
	}
}
