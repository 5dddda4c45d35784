package pdu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func frameBatch() []*PDU {
	return []*PDU{
		{Kind: KindData, CID: 7, Src: 0, SEQ: 1, ACK: []Seq{1, 1, 1}, BUF: 10, LSrc: NoEntity, Data: []byte("first")},
		{Kind: KindSync, CID: 7, Src: 0, SEQ: 2, ACK: []Seq{2, 1, 1}, BUF: 9, NeedAck: true, LSrc: NoEntity},
		{Kind: KindAckOnly, CID: 7, Src: 0, ACK: []Seq{2, 2, 1}, LSrc: NoEntity},
		{Kind: KindRet, CID: 7, Src: 0, ACK: []Seq{2, 2, 2}, LSrc: 1, LSeq: 5},
	}
}

// decodeFrame decodes every PDU of a frame into fresh PDUs.
func decodeFrame(t *testing.T, b []byte) []*PDU {
	t.Helper()
	var d FrameDecoder
	if err := d.Reset(b); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var out []*PDU
	for {
		var p PDU
		ok, err := d.Next(&p)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, &p)
	}
}

// TestFrameRoundTrip encodes a mixed batch and checks the decoder hands
// back identical PDUs in append order.
func TestFrameRoundTrip(t *testing.T) {
	batch := frameBatch()
	b, err := EncodeFrameV2(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeFrame(t, b)
	if len(got) != len(batch) {
		t.Fatalf("decoded %d PDUs, want %d", len(got), len(batch))
	}
	for i, p := range batch {
		if !wireEqual(p, got[i]) {
			t.Errorf("PDU %d mismatch:\n want %v\n got  %v", i, p, got[i])
		}
	}
}

// TestFrameEmpty checks a zero-PDU frame round-trips (the encoder never
// emits one, but the decoder must not choke on it).
func TestFrameEmpty(t *testing.T) {
	var e FrameEncoder
	e.BeginV2(nil, nil)
	b := e.Bytes()
	if len(b) != FrameHeaderSize {
		t.Fatalf("empty frame is %d bytes, want %d", len(b), FrameHeaderSize)
	}
	if got := decodeFrame(t, b); len(got) != 0 {
		t.Fatalf("decoded %d PDUs from empty frame", len(got))
	}
}

// TestFrameEncoderReuse checks BeginV2 resets state and the appended-to
// buffer convention works (frame appended after a prefix).
func TestFrameEncoderReuse(t *testing.T) {
	batch := frameBatch()
	var e FrameEncoder
	e.BeginV2(nil, nil)
	if err := e.Append(batch[0]); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), e.Bytes()...)

	prefix := []byte("xx")
	e.BeginV2(prefix, nil)
	if e.Count() != 0 {
		t.Fatalf("Count after BeginV2 = %d", e.Count())
	}
	if err := e.Append(batch[0]); err != nil {
		t.Fatal(err)
	}
	out := e.Bytes()
	if !bytes.Equal(out[:2], prefix) {
		t.Fatalf("prefix clobbered: %q", out[:2])
	}
	if !bytes.Equal(out[2:], first) {
		t.Fatalf("re-encoded frame differs from first encoding")
	}
	if e.Size() != len(first) {
		t.Fatalf("Size = %d, want %d", e.Size(), len(first))
	}
}

// TestFrameDecodeMalformed feeds the decoder truncated and corrupt frames:
// each must surface an error (never panic), and the error must be terminal.
func TestFrameDecodeMalformed(t *testing.T) {
	good, err := EncodeFrameV2(frameBatch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrFrameTruncated},
		{"short header", good[:FrameHeaderSize-1], ErrFrameTruncated},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] ^= 0xFF; return b }), ErrBadFrameMagic},
		{"bad version", corrupt(func(b []byte) []byte { b[2] = 99; return b }), ErrBadFrameVersion},
		{"retired version 1", corrupt(func(b []byte) []byte { b[2] = 1; return b }), ErrBadFrameVersion},
		{"truncated entry prefix", good[:FrameHeaderSize+2], ErrFrameTruncated},
		{"truncated entry body", good[:len(good)-1], ErrFrameTruncated},
		{"oversized entry length", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[FrameHeaderSize:], 1<<30)
			return b
		}), ErrFrameTruncated},
		{"count larger than entries", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[3:5], 99)
			return b
		}), ErrFrameTruncated},
		{"trailing bytes", corrupt(func(b []byte) []byte { return append(b, 0xEE) }), ErrFrameTrailing},
		{"corrupt entry checksum", corrupt(func(b []byte) []byte {
			b[len(b)-1] ^= 0xFF
			return b
		}), ErrBadChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d FrameDecoder
			var p PDU
			err := d.Reset(tc.in)
			for err == nil {
				var ok bool
				ok, err = d.Next(&p)
				if !ok && err == nil {
					t.Fatalf("frame decoded cleanly, want %v", tc.want)
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			// The error must be terminal: Next keeps failing identically.
			if _, again := d.Next(&p); !errors.Is(again, tc.want) {
				t.Fatalf("error not terminal: second Next returned %v", again)
			}
		})
	}
}

// TestFrameCodecZeroAlloc proves the batch encode/decode hot path is
// allocation-free in steady state: a warmed encoder buffer and scratch
// decode PDU are reused across frames without allocating.
func TestFrameCodecZeroAlloc(t *testing.T) {
	batch := frameBatch()
	var e FrameEncoder
	buf := make([]byte, 0, 4096)
	var d FrameDecoder
	var scratch PDU
	// Warm the scratch PDU's ACK/Data capacity.
	e.BeginV2(buf, nil)
	for _, p := range batch {
		if err := e.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	warm := e.Bytes()
	if err := d.Reset(warm); err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := d.Next(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		e.BeginV2(buf, nil)
		for _, p := range batch {
			if err := e.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		b := e.Bytes()
		if err := d.Reset(b); err != nil {
			t.Fatal(err)
		}
		for {
			ok, err := d.Next(&scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("frame codec hot path allocates %.1f times per frame, want 0", allocs)
	}
}

// TestFrameGroupRoundTrip encodes a batch as a v3 group-addressed frame,
// full-stamped and along a live delta chain, and checks the decoder
// reports the group and hands back identical PDUs.
func TestFrameGroupRoundTrip(t *testing.T) {
	batch := frameBatch()
	for _, st := range []*StampEncoder{nil, NewStampEncoder(64)} {
		b, err := EncodeFrameGroup(batch, 42, WireVersion2, st)
		if err != nil {
			t.Fatal(err)
		}
		var d FrameDecoder
		var sd StampDecoder
		d.SetStampDecoder(&sd)
		if err := d.Reset(b); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		if d.Group() != 42 {
			t.Fatalf("Group = %d, want 42", d.Group())
		}
		var got []*PDU
		for {
			var p PDU
			ok, err := d.Next(&p)
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !ok {
				break
			}
			got = append(got, p.Clone())
		}
		if len(got) != len(batch) {
			t.Fatalf("decoded %d PDUs, want %d", len(got), len(batch))
		}
		for i, p := range batch {
			if !wireEqual(p, got[i]) {
				t.Errorf("stamps %v PDU %d mismatch:\n want %v\n got  %v", st != nil, i, p, got[i])
			}
		}
	}
}

// TestFrameGroupDefaultZero checks v2 frames decode as the default group
// and the FrameGroup peek agrees with the full decoder on every layout.
func TestFrameGroupDefaultZero(t *testing.T) {
	batch := frameBatch()
	v2, _ := EncodeFrameV2(batch, nil)
	v3, _ := EncodeFrameGroup(batch, 7, WireVersion2, nil)
	for _, tc := range []struct {
		name  string
		frame []byte
		group uint32
	}{
		{"v2", v2, 0}, {"v3", v3, 7},
	} {
		var d FrameDecoder
		if err := d.Reset(tc.frame); err != nil {
			t.Fatalf("%s Reset: %v", tc.name, err)
		}
		if d.Group() != tc.group {
			t.Fatalf("%s Group = %d, want %d", tc.name, d.Group(), tc.group)
		}
		g, ok := FrameGroup(tc.frame)
		if !ok || g != tc.group {
			t.Fatalf("%s FrameGroup = %d,%v, want %d,true", tc.name, g, ok, tc.group)
		}
	}
	// Non-frames, retired v1 frames and truncated v3 headers are not
	// routable.
	for _, b := range [][]byte{nil, {0xC0}, {0xBE, 0xEF, 0x02, 0x00, 0x00}, {0xC0, 0xBF, 0x01, 0x00, 0x00}, v3[:FrameHeaderSizeV3-1], {0xC0, 0xBF, 0x99}} {
		if g, ok := FrameGroup(b); ok {
			t.Fatalf("FrameGroup(%x) = %d,true, want not-ok", b, g)
		}
	}
	// FrameGroup peeks without range-checking: an overflowing group ID is
	// routable (so the runtime can count it) but Reset rejects it.
	big := append([]byte(nil), v3...)
	binary.BigEndian.PutUint32(big[4:8], MaxGroupID+1)
	if g, ok := FrameGroup(big); !ok || g != MaxGroupID+1 {
		t.Fatalf("FrameGroup(out-of-range) = %d,%v", g, ok)
	}
	var d FrameDecoder
	if err := d.Reset(big); !errors.Is(err, ErrBadFrameGroup) {
		t.Fatalf("Reset(out-of-range group) = %v, want ErrBadFrameGroup", err)
	}
}

// TestFrameGroupMalformed feeds the decoder malformed v3 headers: each
// must surface its typed error terminally, never panic.
func TestFrameGroupMalformed(t *testing.T) {
	good, err := EncodeFrameGroup(frameBatch(), 9, WireVersion2, nil)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"truncated group id", good[:6], ErrFrameTruncated},
		{"truncated v3 header", good[:FrameHeaderSizeV3-1], ErrFrameTruncated},
		{"bad entry codec", corrupt(func(b []byte) []byte { b[3] = 9; return b }), ErrBadEntryCodec},
		{"retired entry codec 1", corrupt(func(b []byte) []byte { b[3] = 1; return b }), ErrBadEntryCodec},
		{"group out of range", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[4:8], 0xFFFFFFFF)
			return b
		}), ErrBadFrameGroup},
		{"count larger than entries", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[8:10], 99)
			return b
		}), ErrFrameTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d FrameDecoder
			var p PDU
			err := d.Reset(tc.in)
			for err == nil {
				var ok bool
				ok, err = d.Next(&p)
				if !ok && err == nil {
					t.Fatalf("frame decoded cleanly, want %v", tc.want)
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if _, again := d.Next(&p); !errors.Is(again, tc.want) {
				t.Fatalf("error not terminal: second Next returned %v", again)
			}
		})
	}
}

// TestFrameGroupZeroAlloc proves the v3 encode/decode path stays
// allocation-free in steady state like v2.
func TestFrameGroupZeroAlloc(t *testing.T) {
	batch := frameBatch()
	var e FrameEncoder
	buf := make([]byte, 0, 4096)
	var d FrameDecoder
	var scratch PDU
	run := func() {
		e.BeginGroup(buf, 3, WireVersion2, nil)
		for _, p := range batch {
			if err := e.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		b := e.Bytes()
		if err := d.Reset(b); err != nil {
			t.Fatal(err)
		}
		for {
			ok, err := d.Next(&scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	run() // warm scratch capacity
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("v3 frame codec hot path allocates %.1f times per frame, want 0", allocs)
	}
}
