package pdu

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// pack builds the Data of a packed PDU.
func pack(msgs ...string) []byte {
	var b []byte
	for _, m := range msgs {
		b = AppendMessage(b, []byte(m))
	}
	return b
}

func packedPDU(msgs ...string) *PDU {
	return &PDU{Kind: KindData, CID: 1, Src: 1, SEQ: 5, ACK: []Seq{3, 5, 2},
		LSrc: NoEntity, Data: pack(msgs...), Packed: true}
}

func TestPackRoundTrip(t *testing.T) {
	msgs := []string{"first", "", strings.Repeat("x", 300), "last"}
	p := packedPDU(msgs...)
	if err := p.Validate(3); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := 0
	for _, m := range msgs {
		want += PackedSize(len(m))
	}
	if len(p.Data) != want {
		t.Fatalf("pack is %d bytes, PackedSize sums to %d", len(p.Data), want)
	}
	b, err := p.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalV2(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, p)
	}
	if q := got.Clone(); !q.Packed || !bytes.Equal(q.Data, p.Data) {
		t.Fatalf("Clone dropped the pack: %v", q)
	}
	rest := got.Data
	for i, m := range msgs {
		var msg []byte
		var ok bool
		if msg, rest, ok = NextMessage(rest); !ok || string(msg) != m {
			t.Fatalf("message %d = %q ok=%v, want %q", i, msg, ok, m)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last message", len(rest))
	}
	if s := got.String(); !strings.Contains(s, "packed") {
		t.Fatalf("String() = %q, want the packed marker", s)
	}
}

// TestPackGoldenBytes pins the packed wire form byte for byte, and pins
// that the same PDU without the Packed bit differs in the flags byte and
// the CRC only: packing adds a bit, not a layout.
func TestPackGoldenBytes(t *testing.T) {
	p := &PDU{Kind: KindData, CID: 1, Src: 0, SEQ: 2, ACK: []Seq{2, 1}, BUF: 9,
		NeedAck: true, LSrc: NoEntity, Data: pack("ab", "", "c"), Packed: true}
	b, err := p.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "c0bc" + "02" + "01" + "07" + // magic, version, DATA, need|full|packed
		"01" + "01" + "02" + "09" + "00" + "00" + // cid src+1 seq buf lsrc+1 lseq
		"02" + "02" + "01" + // n, stamp
		"06" + "02" + "6162" + "00" + "01" + "63" + // dlen, pack
		"3fdbd795"
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("packed datagram drifted:\n got  %s\n want %s", got, golden)
	}
	p.Packed = false
	u, err := p.MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != len(b) || u[4] != b[4]&^flagPacked || !bytes.Equal(u[5:len(u)-4], b[5:len(b)-4]) {
		t.Fatalf("unpacked sibling differs beyond flags and CRC:\n packed   %x\n unpacked %x", b, u)
	}
}

// TestValidateRejectsMalformedPack covers every way a pack can be wrong;
// each is a typed ErrBadPack out of Validate — before the engine accepts
// the PDU — and none of them panics.
func TestValidateRejectsMalformedPack(t *testing.T) {
	good := pack("one", "two")
	tests := []struct {
		name   string
		mutate func(*PDU)
	}{
		{"flag on sync", func(p *PDU) { p.Kind = KindSync }},
		{"flag on ackonly", func(p *PDU) { p.Kind, p.SEQ = KindAckOnly, 0 }},
		{"flag on ret", func(p *PDU) { p.Kind, p.SEQ, p.LSrc, p.LSeq = KindRet, 0, 0, 1 }},
		{"empty pack", func(p *PDU) { p.Data = nil }},
		{"one message", func(p *PDU) { p.Data = pack("solo") }},
		{"length overrun", func(p *PDU) { p.Data = append(pack("one"), 0x09, 'x') }},
		{"trailing byte", func(p *PDU) { p.Data = append(bytes.Clone(good), 0x7f) }},
		{"truncated varint", func(p *PDU) { p.Data = append(bytes.Clone(good), 0x80) }},
		{"padded varint", func(p *PDU) { p.Data = append(bytes.Clone(good), 0x80, 0x00) }},
		{"huge length", func(p *PDU) {
			p.Data = append(bytes.Clone(good), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
		}},
		{"over the bound", func(p *PDU) {
			p.Data = pack(strings.Repeat("a", MaxPackBytes/2), strings.Repeat("b", MaxPackBytes/2))
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := packedPDU("one", "two")
			tt.mutate(p)
			if err := p.Validate(3); !errors.Is(err, ErrBadPack) {
				t.Fatalf("Validate() = %v, want ErrBadPack", err)
			}
			// The codec carries the bit without judging it, so the bad
			// pack reaches Validate on the far side of the wire too.
			b, err := p.MarshalV2(nil)
			if err != nil {
				t.Fatal(err)
			}
			q, err := UnmarshalV2(b, nil)
			if err != nil {
				t.Fatalf("codec judged the pack: %v", err)
			}
			if err := q.Validate(3); !errors.Is(err, ErrBadPack) {
				t.Fatalf("decoded Validate() = %v, want ErrBadPack", err)
			}
		})
	}
	// The same bytes without the bit are one opaque message.
	p := packedPDU("solo")
	p.Packed = false
	if err := p.Validate(3); err != nil {
		t.Fatalf("unpacked PDU judged as a pack: %v", err)
	}
}

func TestUnknownFlagBitsStillRejected(t *testing.T) {
	b, err := packedPDU("one", "two").MarshalV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 3; bit < 8; bit++ {
		bad := bytes.Clone(b)
		bad[4] |= 1 << bit
		refreshCRC(bad)
		if _, err := UnmarshalV2(bad, nil); !errors.Is(err, ErrBadFlags) {
			t.Fatalf("flag bit %d: err = %v, want ErrBadFlags", bit, err)
		}
	}
}

// TestNewSharesSmallStamps pins the allocation contract of New: PDU and
// stamp are one object up to inlineStamp entries, two beyond, and Clone
// inherits it.
func TestNewSharesSmallStamps(t *testing.T) {
	var sink *PDU // sink and stamp keep the results on the heap
	var stamp []Seq
	for _, tc := range []struct {
		stamp  int
		allocs float64
	}{{0, 1}, {inlineStamp, 1}, {inlineStamp + 1, 2}} {
		if got := testing.AllocsPerRun(100, func() { sink, stamp = New(tc.stamp) }); got != tc.allocs {
			t.Errorf("New(%d): %v allocs, want %v", tc.stamp, got, tc.allocs)
		}
	}
	p := &PDU{Kind: KindSync, Src: 1, SEQ: 1, ACK: make([]Seq, 4)}
	if got := testing.AllocsPerRun(100, func() { sink = p.Clone() }); got != 1 {
		t.Errorf("Clone at n=4: %v allocs, want 1", got)
	}
	_, _ = sink, stamp
}
