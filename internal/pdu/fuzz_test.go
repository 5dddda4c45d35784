package pdu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// seedPDUs holds one PDU of each kind, the seed of both whole-datagram
// decoder targets.
var seedPDUs = []*PDU{
	{Kind: KindData, CID: 1, Src: 0, SEQ: 1, ACK: []Seq{1, 1}, LSrc: NoEntity, Data: []byte("seed")},
	{Kind: KindSync, CID: 9, Src: 2, SEQ: 7, ACK: []Seq{3, 2, 9}, BUF: 44, NeedAck: true, LSrc: NoEntity},
	{Kind: KindAckOnly, Src: 1, ACK: []Seq{5, 5}, LSrc: NoEntity},
	{Kind: KindRet, Src: 3, ACK: []Seq{1, 2, 3, 4}, LSrc: 1, LSeq: 9},
	// Packed DATA, then the malformed packs Validate must reject: the
	// codec carries all of them (the bit is not its to judge).
	{Kind: KindData, CID: 1, Src: 1, SEQ: 4, ACK: []Seq{2, 4}, LSrc: NoEntity, Data: pack("one", "", "three"), Packed: true},
	{Kind: KindSync, CID: 1, Src: 1, SEQ: 5, ACK: []Seq{2, 5}, LSrc: NoEntity, Packed: true},
	{Kind: KindData, CID: 1, Src: 1, SEQ: 6, ACK: []Seq{2, 6}, LSrc: NoEntity, Data: pack("solo"), Packed: true},
	{Kind: KindData, CID: 1, Src: 1, SEQ: 7, ACK: []Seq{2, 7}, LSrc: NoEntity, Data: append(pack("one", "two"), 0x09, 'x'), Packed: true},
}

// checkPackJudged is the pack half of every decoder fuzz target: Validate
// must judge whatever the codec accepted without panicking, and a Packed
// PDU it passes must split cleanly into at least two messages — the walk
// the delivery path makes unchecked.
func checkPackJudged(t *testing.T, p *PDU) {
	if err := p.Validate(len(p.ACK)); err != nil || !p.Packed {
		return
	}
	k := 0
	for rest := p.Data; len(rest) > 0; k++ {
		var ok bool
		if _, rest, ok = NextMessage(rest); !ok {
			t.Fatalf("Validate passed a pack that breaks at message %d: %x", k, p.Data)
		}
	}
	if k < 2 || p.Kind != KindData || len(p.Data) > MaxPackBytes {
		t.Fatalf("Validate passed a %s pack of %d messages, %d bytes", p.Kind, k, len(p.Data))
	}
}

// FuzzUnmarshal throws arbitrary bytes at the stateless wire decoder (no
// stamp cache, so only full stamps can be accepted): it must never panic,
// and everything it accepts must re-encode to the identical datagram —
// the codec is canonical, which is also what rejects unknown flag bits.
func FuzzUnmarshal(f *testing.F) {
	for _, p := range seedPDUs {
		b, err := p.MarshalV2(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xC0, 0xBC}, 40))
	f.Fuzz(fuzzDatagram)
}

// FuzzFrameDecode throws arbitrary bytes at the batch-frame decoder: it
// must never panic or over-read, and any frame it fully accepts must
// re-encode to the identical bytes (the frame codec is canonical).
func FuzzFrameDecode(f *testing.F) {
	seedBatches := [][]*PDU{
		{},
		{{Kind: KindData, CID: 1, Src: 0, SEQ: 1, ACK: []Seq{1, 1}, LSrc: NoEntity, Data: []byte("solo")}},
		{
			{Kind: KindData, CID: 3, Src: 1, SEQ: 4, ACK: []Seq{2, 5, 1}, BUF: 8, LSrc: NoEntity, Data: []byte("a")},
			{Kind: KindSync, CID: 3, Src: 1, SEQ: 5, ACK: []Seq{2, 6, 1}, NeedAck: true, LSrc: NoEntity},
			{Kind: KindAckOnly, CID: 3, Src: 1, ACK: []Seq{2, 6, 2}, LSrc: NoEntity},
			{Kind: KindRet, CID: 3, Src: 1, ACK: []Seq{2, 6, 2}, LSrc: 0, LSeq: 2},
		},
		{
			{Kind: KindData, CID: 3, Src: 2, SEQ: 8, ACK: []Seq{2, 6, 8}, LSrc: NoEntity, Data: pack("p", "q"), Packed: true},
			{Kind: KindData, CID: 3, Src: 2, SEQ: 9, ACK: []Seq{2, 7, 9}, LSrc: NoEntity, Data: []byte("unpacked")},
			{Kind: KindData, CID: 3, Src: 2, SEQ: 10, ACK: []Seq{2, 7, 10}, LSrc: NoEntity, Data: pack("short")[:3], Packed: true},
		},
	}
	for _, batch := range seedBatches {
		// Each batch as a v2 frame: once full-stamped (nil encoder), once
		// with a live delta chain, and once under the retired header
		// version 1, which must be rejected whole.
		b2, err := EncodeFrameV2(batch, nil)
		if err != nil {
			f.Fatal(err)
		}
		b1 := bytes.Clone(b2)
		b1[2] = 1
		f.Add(b1)
		f.Add(b2)
		b2d, err := EncodeFrameV2(batch, NewStampEncoder(64))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b2d)
		// The same batches as v3 group-addressed frames: a low group
		// naming the retired entry codec 1 (rejected), a high-but-valid
		// group with a live delta chain.
		b3, err := EncodeFrameGroup(batch, 7, WireVersion2, nil)
		if err != nil {
			f.Fatal(err)
		}
		b3[3] = 1
		f.Add(b3)
		b3d, err := EncodeFrameGroup(batch, MaxGroupID, WireVersion2, NewStampEncoder(64))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b3d)
	}
	f.Add([]byte{})
	f.Add([]byte{0xC0, 0xBF})
	f.Add(bytes.Repeat([]byte{0xC0, 0xBF, 0x01}, 20))
	f.Add(bytes.Repeat([]byte{0xC0, 0xBF, 0x02}, 20))
	// Malformed v3 headers: truncated mid-group-ID, overflowing group ID,
	// unknown entry codec — all must fail terminally, never panic.
	f.Add([]byte{0xC0, 0xBF, 0x03})
	f.Add([]byte{0xC0, 0xBF, 0x03, 0x01, 0x00, 0x00})
	f.Add([]byte{0xC0, 0xBF, 0x03, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00})
	f.Add([]byte{0xC0, 0xBF, 0x03, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		// decodeAll decodes the frame with a fresh stamp cache, or with
		// none, which accepts full stamps only.
		decodeAll := func(cache bool) ([]*PDU, bool) {
			var d FrameDecoder
			if cache {
				d.SetStampDecoder(new(StampDecoder))
			}
			if err := d.Reset(data); err != nil {
				return nil, false
			}
			var batch []*PDU
			for {
				var p PDU
				ok, err := d.Next(&p)
				if err != nil {
					// Terminal-error contract: the decoder must keep failing.
					if _, again := d.Next(&p); again == nil {
						t.Fatal("decoder error was not terminal")
					}
					return nil, false
				}
				if !ok {
					break
				}
				checkPackJudged(t, &p)
				batch = append(batch, p.Clone())
			}
			return batch, true
		}
		batch, ok := decodeAll(true)
		if !ok {
			return
		}
		// Reset accepted the header, so the layout bytes below exist. The
		// re-encoder mirrors the accepted frame's layout: v3 frames carry
		// their group explicitly, v2 frames imply group 0.
		reencode := func(b []*PDU) ([]byte, error) { return EncodeFrameV2(b, nil) }
		if data[2] == FrameVersion3 {
			group := binary.BigEndian.Uint32(data[4:8])
			reencode = func(b []*PDU) ([]byte, error) {
				return EncodeFrameGroup(b, group, WireVersion2, nil)
			}
		}
		if _, fullOnly := decodeAll(false); fullOnly {
			// Full-stamp-only frames are canonical: re-encoding with a
			// stampless encoder reproduces the input.
			out, err := reencode(batch)
			if err != nil {
				t.Fatalf("accepted frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("frame codec not canonical:\n in  %x\n out %x", data, out)
			}
			return
		}
		// Delta entries depend on the sender's stamp state, so byte
		// identity is out of reach; the decode itself must still be
		// deterministic and each reconstructed PDU must survive a
		// stampless round trip.
		again, ok := decodeAll(true)
		if !ok || len(again) != len(batch) {
			t.Fatalf("frame decode not deterministic: %d vs %d PDUs", len(batch), len(again))
		}
		for i, p := range batch {
			if !wireEqual(p, again[i]) {
				t.Fatalf("frame decode not deterministic at entry %d", i)
			}
			b, err := p.MarshalV2(nil)
			if err != nil {
				t.Fatalf("reconstructed PDU failed to re-encode: %v", err)
			}
			q, err := UnmarshalV2(b, nil)
			if err != nil {
				t.Fatalf("re-encoded reconstruction rejected: %v", err)
			}
			if !wireEqual(p, q) {
				t.Fatalf("reconstruction round trip changed PDU %d", i)
			}
		}
	})
}

// fuzzDatagram is the shared body of the stateless decoder fuzz targets.
// Accepted datagrams must re-encode canonically, survive a double decode
// with identity fields intact, and decode identically into a dirty
// scratch PDU (slice reuse cannot leak state between datagrams).
// Rejected datagrams must fail in both decoders and leave the scratch
// usable for the next datagram (the terminal-error contract).
func fuzzDatagram(t *testing.T, data []byte) {
	scratch := &PDU{ACK: []Seq{9, 9, 9}, Data: []byte("dirty-scratch-bytes")}
	fresh, err := UnmarshalV2(data, nil)
	if err != nil {
		if err2 := scratch.UnmarshalFromV2(data, nil); err2 == nil {
			t.Fatalf("UnmarshalFromV2 accepted what UnmarshalV2 rejected (%v)", err)
		}
		good, _ := (&PDU{Kind: KindData, CID: 7, Src: 1, SEQ: 3,
			ACK: []Seq{2, 4}, LSrc: NoEntity, Data: []byte("known-good")}).MarshalV2(nil)
		if err := scratch.UnmarshalFromV2(good, nil); err != nil {
			t.Fatalf("scratch poisoned by failed decode: %v", err)
		}
		return
	}
	checkPackJudged(t, fresh)
	out, err := fresh.MarshalV2(nil)
	if err != nil {
		t.Fatalf("accepted PDU failed to re-encode: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("codec not canonical:\n in  %x\n out %x", data, out)
	}
	q, err := UnmarshalV2(out, nil)
	if err != nil {
		t.Fatalf("re-encoded datagram rejected: %v", err)
	}
	if q.Kind != fresh.Kind || q.Src != fresh.Src || q.SEQ != fresh.SEQ ||
		q.LSrc != fresh.LSrc || q.LSeq != fresh.LSeq || q.CID != fresh.CID {
		t.Fatalf("round trip changed identity fields:\n %+v\n %+v", fresh, q)
	}
	if err := scratch.UnmarshalFromV2(data, nil); err != nil {
		t.Fatalf("dirty-scratch decode disagreed with fresh decode: %v", err)
	}
	out2, err := scratch.MarshalAppendV2(nil, nil)
	if err != nil {
		t.Fatalf("scratch re-encode: %v", err)
	}
	if !bytes.Equal(out2, data) {
		t.Fatalf("dirty-scratch decode not canonical:\n in  %x\n out %x", data, out2)
	}
}

// fuzzKind seeds a per-kind target and runs fuzzDatagram over it.
func fuzzKind(f *testing.F, seeds []*PDU) {
	for _, p := range seeds {
		b, err := p.MarshalV2(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Corrupted and truncated siblings seed the reject path, as does
		// the same datagram under the retired version byte 1.
		bad := bytes.Clone(b)
		bad[len(bad)-1] ^= 0xFF
		f.Add(bad)
		f.Add(b[:len(b)-3])
		v1 := bytes.Clone(b)
		v1[2] = 1
		refreshCRC(v1)
		f.Add(v1)
	}
	f.Fuzz(fuzzDatagram)
}

// FuzzDTUnmarshal focuses the wire decoder on DT (data transmission)
// datagrams: empty and large payloads, wide ACK vectors, flow-control and
// confirmation flags.
func FuzzDTUnmarshal(f *testing.F) {
	fuzzKind(f, []*PDU{
		{Kind: KindData, CID: 1, Src: 0, SEQ: 1, ACK: []Seq{1, 1}, LSrc: NoEntity, Data: []byte("dt")},
		{Kind: KindData, CID: 2, Src: 3, SEQ: 900, ACK: []Seq{5, 0, 17, 2}, BUF: 4096,
			NeedAck: true, LSrc: NoEntity},
		{Kind: KindData, CID: 3, Src: 7, SEQ: 2, ACK: []Seq{1, 1, 1, 1, 1, 1, 1, 2},
			LSrc: NoEntity, Data: bytes.Repeat([]byte{0xAB}, 512)},
	})
}

// FuzzRETUnmarshal focuses the wire decoder on RET (retransmission
// request) datagrams, whose LSrc/LSeq fields address the lost PDUs and
// whose held list names the PDUs of the range the requester holds; the
// shared body asserts those survive the round trip.
func FuzzRETUnmarshal(f *testing.F) {
	fuzzKind(f, []*PDU{
		{Kind: KindRet, CID: 1, Src: 3, ACK: []Seq{1, 2, 3, 4}, LSrc: 1, LSeq: 9},
		{Kind: KindRet, CID: 5, Src: 0, SEQ: 12, ACK: []Seq{8, 11}, LSrc: 0, LSeq: 1, NeedAck: true},
		{Kind: KindRet, CID: 9, Src: 2, ACK: []Seq{0, 0, 0}, LSrc: 2, LSeq: 1 << 40},
		// Held lists: one byte, two bytes, one longer than its range
		// needs, and one on a range of one hole (Validate rejects both).
		{Kind: KindRet, CID: 1, Src: 3, ACK: []Seq{1, 2, 3, 4}, LSrc: 1, LSeq: 9, Data: []byte{0x15}},
		{Kind: KindRet, CID: 2, Src: 0, ACK: []Seq{7, 40}, LSrc: 1, LSeq: 57, Data: []byte{0xff, 0x01}},
		{Kind: KindRet, CID: 2, Src: 0, ACK: []Seq{7, 40}, LSrc: 1, LSeq: 44, Data: []byte{0x01, 0x00, 0x80}},
		{Kind: KindRet, CID: 3, Src: 1, ACK: []Seq{5, 5}, LSrc: 0, LSeq: 6, Data: []byte{0x01}},
	})
}

// FuzzV2Unmarshal throws arbitrary bytes at the decoder with a stamp
// cache attached: it must never panic, must reject unknown flag bits,
// accepted full-stamp datagrams must re-encode to the identical bytes,
// and neither failure nor success may poison the per-source stamp cache
// for a subsequent known-good stream.
func FuzzV2Unmarshal(f *testing.F) {
	enc := NewStampEncoder(4)
	chain := []*PDU{
		{Kind: KindData, CID: 2, Src: 1, SEQ: 1, ACK: []Seq{0, 1, 4}, LSrc: NoEntity, Data: []byte("a")},
		{Kind: KindData, CID: 2, Src: 1, SEQ: 2, ACK: []Seq{2, 2, 4}, LSrc: NoEntity, Data: []byte("b")},
		{Kind: KindData, CID: 2, Src: 1, SEQ: 3, ACK: []Seq{2, 3, 7}, LSrc: NoEntity},
	}
	for _, p := range seedPDUs {
		b, err := p.MarshalV2(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, p := range chain {
		// Delta-carrying seeds (SEQ 2 and 3 ride on SEQ 1's full stamp).
		b, err := p.MarshalV2(enc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xC0, 0xBC, 0x02})

	goodEnc := NewStampEncoder(4)
	var goodStream [][]byte
	for _, p := range chain {
		b, err := p.MarshalV2(goodEnc)
		if err != nil {
			f.Fatal(err)
		}
		goodStream = append(goodStream, b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec StampDecoder
		scratch := &PDU{ACK: []Seq{9, 9, 9}, Data: []byte("dirty")}
		fresh, err := UnmarshalV2(data, &dec)
		if err == nil {
			if extra := data[4] &^ (flagNeedAck | flagFullStamp | flagPacked); extra != 0 {
				t.Fatalf("accepted unknown flag bits %02x", extra)
			}
			checkPackJudged(t, fresh)
			if data[4]&flagFullStamp != 0 {
				out, err := fresh.MarshalV2(nil)
				if err != nil {
					t.Fatalf("accepted full-stamp PDU failed to re-encode: %v", err)
				}
				if !bytes.Equal(out, data) {
					t.Fatalf("v2 codec not canonical:\n in  %x\n out %x", data, out)
				}
			}
			// Dirty-scratch decode must agree with the fresh decode
			// (fresh cache: a first decode never resolves a delta).
			var dec2 StampDecoder
			if err := scratch.UnmarshalFromV2(data, &dec2); err != nil {
				t.Fatalf("dirty-scratch decode disagreed with fresh decode: %v", err)
			}
			if !wireEqual(scratch, fresh) {
				t.Fatalf("dirty-scratch decode differs:\n %v\n %v", scratch, fresh)
			}
		}
		// Whatever happened, the cache must still track a known-good
		// stream: arbitrary input can only ever advance it with exact,
		// CRC-valid stamps.
		for i, b := range goodStream {
			got, err := scratch.UnmarshalFromV2(b, &dec), chain[i]
			if got != nil && !errors.Is(got, ErrDeltaDesync) {
				t.Fatalf("good stream PDU %d rejected after fuzz input: %v", i, got)
			}
			if got == nil && !wireEqual(scratch, err) {
				t.Fatalf("good stream PDU %d corrupted by fuzz input:\n %v\n %v", i, scratch, err)
			}
		}
	})
}

// FuzzV2StreamRoundTrip is the delta-codec property fuzz: an arbitrary
// sequenced stream (arbitrary stamp movement, retransmissions, sync
// interval) encoded with a StampEncoder and decoded through a lossy
// channel must reconstruct bit-exact stamps, and every desync must be
// exactly predicted by the reference-chain oracle. On a lossless channel
// the codec is canonical for delta stamps too: re-encoding each decoded
// PDU along a mirror chain reproduces the received bytes.
func FuzzV2StreamRoundTrip(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(4), uint8(8))
	f.Add(int64(2), uint64(0xAAAA), uint8(64), uint8(1))
	f.Add(int64(3), uint64(0x0F0F0F), uint8(2), uint8(32))
	f.Fuzz(func(t *testing.T, seed int64, lossMask uint64, nRaw, kRaw uint8) {
		n := int(nRaw)%128 + 2
		k := int(kRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		enc, mirror := NewStampEncoder(k), NewStampEncoder(k)
		var dec StampDecoder
		src := EntityID(rng.Intn(n))
		stream := seqStream(src, n, 48, rng)
		for _, p := range stream {
			// A third of the stream rides packed: the bit must survive
			// delta stamps, sync points and retransmission alike.
			if rng.Intn(3) == 0 {
				p.Data, p.Packed = pack("a", "", "bc"), true
			}
		}
		// Splice in a retransmission at a random point: an old PDU
		// re-encoded mid-stream, as the send log does on a RET.
		if len(stream) > 10 {
			i := 5 + rng.Intn(len(stream)-10)
			stream = append(stream[:i], append([]*PDU{stream[rng.Intn(i)]}, stream[i:]...)...)
		}
		cacheSeq := Seq(0) // oracle: the decoder cache's seq, 0 = empty
		for i, p := range stream {
			b, err := p.MarshalV2(enc)
			if err != nil {
				t.Fatalf("encode %d: %v", i, err)
			}
			full := b[4]&flagFullStamp != 0
			if lossMask>>(uint(i)%64)&1 == 1 {
				continue // datagram lost before the decoder
			}
			got, err := UnmarshalV2(b, &dec)
			switch {
			case err == nil:
				if !wireEqual(got, p) {
					t.Fatalf("PDU %d (seq %d) reconstructed wrong:\n got %v\nwant %v", i, p.SEQ, got, p)
				}
				if lossMask == 0 {
					if out, err := got.MarshalV2(mirror); err != nil || !bytes.Equal(out, b) {
						t.Fatalf("PDU %d (seq %d) not canonical (err %v):\n in  %x\n out %x", i, p.SEQ, err, b, out)
					}
				}
				if full {
					if p.SEQ > cacheSeq {
						cacheSeq = p.SEQ
					}
				} else {
					cacheSeq = p.SEQ
				}
			case errors.Is(err, ErrDeltaDesync):
				if full {
					t.Fatalf("PDU %d: full stamp cannot desync: %v", i, err)
				}
				if cacheSeq+1 == p.SEQ && cacheSeq != 0 {
					t.Fatalf("PDU %d (seq %d): desync despite contiguous cache at %d", i, p.SEQ, cacheSeq)
				}
			default:
				t.Fatalf("decode %d: %v", i, err)
			}
		}
	})
}

// FuzzCompare checks that the Theorem 4.1 relation is antisymmetric for
// arbitrary well-formed PDU pairs.
func FuzzCompare(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(2), uint64(3), uint8(1), uint64(2), uint64(1), uint64(9))
	f.Fuzz(func(t *testing.T, srcP uint8, seqP, ackP0, ackP1 uint64,
		srcQ uint8, seqQ, ackQ0, ackQ1 uint64) {
		p := &PDU{Kind: KindData, Src: EntityID(srcP % 2), SEQ: Seq(seqP%1000) + 1,
			ACK: []Seq{Seq(ackP0 % 1000), Seq(ackP1 % 1000)}}
		q := &PDU{Kind: KindData, Src: EntityID(srcQ % 2), SEQ: Seq(seqQ%1000) + 1,
			ACK: []Seq{Seq(ackQ0 % 1000), Seq(ackQ1 % 1000)}}
		pq, qp := Compare(p, q), Compare(q, p)
		switch pq {
		case Precedes:
			if qp != Follows {
				t.Fatalf("%v ≺ %v but reverse %v", p, q, qp)
			}
		case Follows:
			if qp != Precedes {
				t.Fatalf("%v ≻ %v but reverse %v", p, q, qp)
			}
		case Concurrent:
			if p.Src != q.Src || p.SEQ != q.SEQ {
				if qp != Concurrent {
					t.Fatalf("%v ∥ %v but reverse %v", p, q, qp)
				}
			}
		}
	})
}
