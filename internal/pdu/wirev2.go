// Wire codec v2 — the one byte codec: varint header fields and a
// delta-encoded ACK stamp. Consecutive sequenced PDUs from one source
// differ in only a few ACK entries, so it encodes just the changed
// (index, increment) pairs
// against the source's previous sequenced PDU instead of the full O(n)
// vector, with a full-stamp escape at sync points so a receiver can
// resynchronize after loss without waiting for a RET round trip:
//
//	magic   uint16  0xC0BC (big-endian)
//	version uint8   2
//	kind    uint8
//	flags   uint8   bit0 = NeedAck, bit1 = full stamp, bit2 = packed
//	                (data is a message pack, see pack.go)
//	cid     uvarint
//	src     uvarint src+1 (so NoEntity encodes as 0)
//	seq     uvarint
//	buf     uvarint
//	lsrc    uvarint lsrc+1
//	lseq    uvarint
//	n       uvarint len(ACK)
//	stamp   full:  n × uvarint ACK value
//	        delta: uvarint c, then c × { uvarint index, uvarint increment }
//	dlen    uvarint
//	data    dlen bytes
//	crc     uint32  (IEEE, big-endian, over everything before it)
//
// Varints are encoding/binary unsigned varints and must be minimally
// encoded; the decoder rejects padded forms so that decode∘encode is the
// identity on every accepted datagram.
//
// Sync-point invariant: the encoder emits a full stamp for the first
// sequenced PDU of a stream, whenever SEQ is not exactly one past the
// previously encoded sequenced PDU (which covers retransmissions out of
// the send log), every StampEncoder interval-th PDU, and for every
// unsequenced PDU. The decoder's per-source cache therefore only
// advances along a contiguous chain of CRC-valid PDUs rooted at a full
// stamp, so the reconstructed vector is always bit-exact with what the
// sender stamped; loss merely forces the decoder to reject deltas (a
// typed ErrDeltaDesync, treated as loss by the link) until the next
// full-stamp sync point re-anchors it.
package pdu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// WireVersion2 is the delta-stamp encoding version emitted by
	// MarshalV2.
	WireVersion2 uint8 = 2

	flagFullStamp = 1 << 1
	flagPacked    = 1 << 2

	// DefaultStampInterval is the default sync-point spacing K: every
	// PDU whose SEQ is a multiple of K carries a full stamp even when a
	// delta would be smaller, bounding how long a receiver that lost a
	// delta's reference stays desynchronized.
	DefaultStampInterval Seq = 32

	// v2MinSize is the smallest well-formed v2 datagram: fixed prefix,
	// seven one-byte varints (cid src seq buf lsrc lseq n=0), a one-byte
	// dlen, and the CRC trailer.
	v2MinSize = 5 + 7 + 1 + 4
)

// Decoding errors specific to varints and delta stamps (the rest are in
// wire.go).
var (
	// ErrBadVarint marks a varint field that is overlong, non-minimal or
	// out of range for its destination.
	ErrBadVarint = errors.New("pdu: malformed varint field")
	// ErrBadDelta marks a structurally invalid delta stamp (delta on an
	// unsequenced PDU, source outside its own stamp, index out of range).
	ErrBadDelta = errors.New("pdu: malformed delta stamp")
	// ErrDeltaDesync marks a delta stamp whose reference PDU the decoder
	// has not seen: the per-source cache is empty, behind, or ahead of
	// SEQ-1. Links treat it as loss — the PDU is dropped and recovered
	// by retransmission or the next full-stamp sync point.
	ErrDeltaDesync = errors.New("pdu: delta stamp without reference (decoder cache desynchronized)")
)

// StampEncoder carries one sender's reference stamp between MarshalV2
// calls: the SEQ and ACK vector of the last sequenced PDU it encoded.
// Every PDU a node sends carries its own Src (retransmissions come from
// the sender's own send log), so one encoder per node covers the whole
// outgoing stream. The zero value is ready to use and starts with a
// full-stamp sync point.
type StampEncoder struct {
	interval Seq
	lastSeq  Seq
	last     []Seq
	valid    bool
}

// NewStampEncoder returns an encoder with sync interval k (every PDU
// with SEQ%k == 0 is full-stamped). k <= 0 selects
// DefaultStampInterval; k == 1 forces a full stamp on every PDU.
func NewStampEncoder(k int) *StampEncoder {
	e := &StampEncoder{}
	if k > 0 {
		e.interval = Seq(k)
	}
	return e
}

// Reset forgets the reference stamp; the next sequenced PDU is
// full-stamped.
func (e *StampEncoder) Reset() {
	e.lastSeq, e.valid = 0, false
	e.last = e.last[:0]
}

func (e *StampEncoder) syncInterval() Seq {
	if e == nil || e.interval == 0 {
		return DefaultStampInterval
	}
	return e.interval
}

// deltaCount reports whether p may carry a delta stamp against e's
// reference and, if so, how many entries changed. A full stamp is forced
// at every sync point: no reference yet, a non-contiguous SEQ (first PDU
// or a retransmission), every interval-th SEQ, a shrunken or regressed
// entry, or a delta that would not be smaller than the full vector.
func (e *StampEncoder) deltaCount(p *PDU) (int, bool) {
	if e == nil || !e.valid || !p.Kind.Sequenced() {
		return 0, false
	}
	if p.SEQ != e.lastSeq+1 || p.SEQ%e.syncInterval() == 0 {
		return 0, false
	}
	if len(e.last) != len(p.ACK) {
		return 0, false
	}
	c := 0
	for i, a := range p.ACK {
		if a < e.last[i] {
			return 0, false
		}
		if a != e.last[i] {
			c++
		}
	}
	if 2*c >= len(p.ACK) {
		return 0, false
	}
	return c, true
}

// note records p as the reference for the next MarshalV2 call. The
// reference only moves forward: a retransmission out of the send log
// (SEQ at or behind the live head) is full-stamped by deltaCount and
// must not become the reference, both so the live stream's delta chain
// survives retransmission rounds and because a receiver that needs the
// retransmission has, by definition, no contiguous cache to resolve a
// delta against.
func (e *StampEncoder) note(p *PDU) {
	if e == nil || !p.Kind.Sequenced() {
		return
	}
	if e.valid && p.SEQ <= e.lastSeq {
		return
	}
	e.lastSeq = p.SEQ
	e.last = append(e.last[:0], p.ACK...)
	e.valid = true
}

// EncodedSizeV2Bound returns an upper bound on the bytes MarshalAppendV2
// can produce for p (varint fields make the exact size state-dependent).
// Links use it for early-flush datagram budgeting.
func (p *PDU) EncodedSizeV2Bound() int {
	return 5 + // magic, version, kind, flags
		binary.MaxVarintLen32 + // cid
		binary.MaxVarintLen64 + // src+1
		binary.MaxVarintLen64 + // seq
		binary.MaxVarintLen32 + // buf
		binary.MaxVarintLen64 + // lsrc+1
		binary.MaxVarintLen64 + // lseq
		3 + // n (<= MaxUint16)
		len(p.ACK)*binary.MaxVarintLen64 + // full stamp dominates any accepted delta
		binary.MaxVarintLen32 + len(p.Data) +
		trailerSize
}

// MarshalV2 encodes the PDU as a self-contained v2 datagram, advancing
// enc's reference stamp. A nil enc always emits full stamps.
func (p *PDU) MarshalV2(enc *StampEncoder) ([]byte, error) {
	return p.MarshalAppendV2(make([]byte, 0, p.EncodedSizeV2Bound()), enc)
}

// MarshalAppendV2 encodes the PDU as MarshalV2 does, appending the
// datagram to buf and returning the extended slice. On success enc (when
// non-nil and p is sequenced) adopts p as the reference for the next
// call, so PDUs must be encoded in the order they are sent. With a buf
// of sufficient capacity the steady-state send path allocates nothing.
func (p *PDU) MarshalAppendV2(buf []byte, enc *StampEncoder) ([]byte, error) {
	if len(p.ACK) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: ACK vector %d entries", ErrTooLong, len(p.ACK))
	}
	if len(p.Data) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: data %d bytes", ErrTooLong, len(p.Data))
	}
	if p.Src < NoEntity || p.LSrc < NoEntity {
		return nil, fmt.Errorf("%w: negative source", ErrTooLong)
	}
	c, delta := enc.deltaCount(p)
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	var flags byte
	if p.NeedAck {
		flags |= flagNeedAck
	}
	if !delta {
		flags |= flagFullStamp
	}
	if p.Packed {
		flags |= flagPacked
	}
	buf = append(buf, WireVersion2, byte(p.Kind), flags)
	buf = binary.AppendUvarint(buf, uint64(p.CID))
	buf = binary.AppendUvarint(buf, uint64(p.Src+1))
	buf = binary.AppendUvarint(buf, uint64(p.SEQ))
	buf = binary.AppendUvarint(buf, uint64(p.BUF))
	buf = binary.AppendUvarint(buf, uint64(p.LSrc+1))
	buf = binary.AppendUvarint(buf, uint64(p.LSeq))
	buf = binary.AppendUvarint(buf, uint64(len(p.ACK)))
	if delta {
		buf = binary.AppendUvarint(buf, uint64(c))
		for i, a := range p.ACK {
			if a != enc.last[i] {
				buf = binary.AppendUvarint(buf, uint64(i))
				buf = binary.AppendUvarint(buf, uint64(a-enc.last[i]))
			}
		}
	} else {
		for _, a := range p.ACK {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Data)))
	buf = append(buf, p.Data...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	enc.note(p)
	return buf, nil
}

// stampRef is one source's cached reference stamp on the decode side.
type stampRef struct {
	seq   Seq
	ack   []Seq
	valid bool
}

// StampDecoder reconstructs full ACK vectors from delta stamps: a
// per-source cache of the last sequenced stamp decoded. One decoder per
// receiving link mirrors the per-sender FIFO order of the MC service, so
// a delta's reference is always the cache entry — or the delta is
// rejected with ErrDeltaDesync. The zero value is ready to use.
type StampDecoder struct {
	bySrc []stampRef
	// scratchIdx/scratchInc hold one datagram's parsed delta entries so
	// the whole delta can be validated before any state is touched.
	scratchIdx []Seq
	scratchInc []Seq
}

// Reset forgets every cached stamp, as after a reconnect.
func (d *StampDecoder) Reset() {
	for i := range d.bySrc {
		d.bySrc[i].valid = false
	}
}

// ref returns the cache slot for src, growing the table on demand. The
// caller has already bounded src by the PDU's own stamp width.
func (d *StampDecoder) ref(src EntityID) *stampRef {
	for int(src) >= len(d.bySrc) {
		d.bySrc = append(d.bySrc, stampRef{})
	}
	return &d.bySrc[src]
}

// UnmarshalV2 decodes a datagram produced by MarshalV2. The returned PDU
// owns freshly allocated slices.
func UnmarshalV2(b []byte, dec *StampDecoder) (*PDU, error) {
	p := new(PDU)
	if err := p.UnmarshalFromV2(b, dec); err != nil {
		return nil, err
	}
	return p, nil
}

// readUvarint decodes one minimally encoded unsigned varint, returning
// the value and the remaining bytes. Non-minimal (zero-padded) and
// overlong encodings are rejected so that accepted datagrams re-encode
// bit-identically.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrBadVarint
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("%w: non-minimal encoding", ErrBadVarint)
	}
	return v, b[n:], nil
}

// readUvarintMax is readUvarint with an inclusive range bound.
func readUvarintMax(b []byte, max uint64) (uint64, []byte, error) {
	v, rest, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if v > max {
		return 0, nil, fmt.Errorf("%w: %d out of range", ErrBadVarint, v)
	}
	return v, rest, nil
}

// UnmarshalFromV2 decodes a datagram produced by MarshalV2 into p,
// reusing the capacity of p.ACK and p.Data — a scratch PDU decoded in a
// loop allocates nothing once its slices have grown. Every wire field of
// p is overwritten; on error p's contents are unspecified. The decoded
// slices copy out of b, so b may be recycled as soon as the call
// returns. Delta stamps are resolved against dec's per-source cache: the
// reconstructed p.ACK is bit-exact with the sender's stamp. dec is only
// advanced by a fully valid datagram, and only forward, so corrupt or
// replayed input can never poison the cache. A nil dec accepts full
// stamps only.
func (p *PDU) UnmarshalFromV2(b []byte, dec *StampDecoder) error {
	// Magic and version are checked before anything else so that a
	// datagram from a peer speaking another codec version fails with
	// the typed ErrBadVersion whatever its length.
	if len(b) >= 3 {
		if m := binary.BigEndian.Uint16(b[0:2]); m != Magic {
			return fmt.Errorf("%w: %04x", ErrBadMagic, m)
		}
		if v := b[2]; v != WireVersion2 {
			return fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
	}
	if len(b) < v2MinSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	body, crcBytes := b[:len(b)-trailerSize], b[len(b)-trailerSize:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(crcBytes); got != want {
		return fmt.Errorf("%w: got %08x want %08x", ErrBadChecksum, got, want)
	}
	p.Kind = Kind(body[3])
	flags := body[4]
	if extra := flags &^ (flagNeedAck | flagFullStamp | flagPacked); extra != 0 {
		return fmt.Errorf("%w: %02x", ErrBadFlags, extra)
	}
	p.NeedAck = flags&flagNeedAck != 0
	// Carried, not judged: Validate walks the pack before acceptance.
	p.Packed = flags&flagPacked != 0
	full := flags&flagFullStamp != 0
	rest := body[5:]
	var v uint64
	var err error
	if v, rest, err = readUvarintMax(rest, math.MaxUint32); err != nil {
		return fmt.Errorf("cid: %w", err)
	}
	p.CID = uint32(v)
	if v, rest, err = readUvarintMax(rest, math.MaxInt32+1); err != nil {
		return fmt.Errorf("src: %w", err)
	}
	p.Src = EntityID(int64(v) - 1)
	if v, rest, err = readUvarint(rest); err != nil {
		return fmt.Errorf("seq: %w", err)
	}
	p.SEQ = Seq(v)
	if v, rest, err = readUvarintMax(rest, math.MaxUint32); err != nil {
		return fmt.Errorf("buf: %w", err)
	}
	p.BUF = uint32(v)
	if v, rest, err = readUvarintMax(rest, math.MaxInt32+1); err != nil {
		return fmt.Errorf("lsrc: %w", err)
	}
	p.LSrc = EntityID(int64(v) - 1)
	if v, rest, err = readUvarint(rest); err != nil {
		return fmt.Errorf("lseq: %w", err)
	}
	p.LSeq = Seq(v)
	var nv uint64
	if nv, rest, err = readUvarintMax(rest, math.MaxUint16); err != nil {
		return fmt.Errorf("stamp width: %w", err)
	}
	n := int(nv)
	if p.ACK == nil || cap(p.ACK) < n {
		p.ACK = make([]Seq, n)
	} else {
		p.ACK = p.ACK[:n]
	}
	var ref *stampRef
	if full {
		for i := 0; i < n; i++ {
			if v, rest, err = readUvarint(rest); err != nil {
				return fmt.Errorf("stamp[%d]: %w", i, err)
			}
			p.ACK[i] = Seq(v)
		}
	} else {
		if !p.Kind.Sequenced() {
			return fmt.Errorf("%w: delta on unsequenced %s", ErrBadDelta, p.Kind)
		}
		if p.Src < 0 || int(p.Src) >= n {
			return fmt.Errorf("%w: src %d outside stamp of %d", ErrBadDelta, p.Src, n)
		}
		if dec == nil {
			return fmt.Errorf("%w: no decoder cache", ErrDeltaDesync)
		}
		ref = dec.ref(p.Src)
		if !ref.valid || len(ref.ack) != n || ref.seq+1 != p.SEQ {
			return fmt.Errorf("%w: src %d seq %d (cache seq %d)", ErrDeltaDesync, p.Src, p.SEQ, ref.seq)
		}
		var cv uint64
		if cv, rest, err = readUvarintMax(rest, uint64(n)); err != nil {
			return fmt.Errorf("delta count: %w", err)
		}
		c := int(cv)
		dec.scratchIdx = dec.scratchIdx[:0]
		dec.scratchInc = dec.scratchInc[:0]
		for i := 0; i < c; i++ {
			var idx uint64
			if idx, rest, err = readUvarintMax(rest, uint64(n)-1); err != nil {
				return fmt.Errorf("delta[%d] index: %w", i, err)
			}
			if v, rest, err = readUvarint(rest); err != nil {
				return fmt.Errorf("delta[%d] increment: %w", i, err)
			}
			dec.scratchIdx = append(dec.scratchIdx, Seq(idx))
			dec.scratchInc = append(dec.scratchInc, Seq(v))
		}
	}
	var dlen uint64
	if dlen, rest, err = readUvarintMax(rest, math.MaxUint32); err != nil {
		return fmt.Errorf("dlen: %w", err)
	}
	if uint64(len(rest)) != dlen {
		return fmt.Errorf("%w: data (have %d want %d)", ErrTruncated, len(rest), dlen)
	}
	p.Data = append(p.Data[:0], rest...)
	// The datagram is fully valid: advance the per-source cache. Full
	// stamps re-anchor it (forward only, so a replayed or retransmitted
	// old PDU cannot regress it); deltas extend the contiguous chain by
	// applying the parsed increments to the reference in place — O(c)
	// writes plus the one unavoidable O(n) copy into p.ACK, where the
	// old shape paid copy-out plus a full re-snapshot.
	if ref != nil {
		for i, idx := range dec.scratchIdx {
			ref.ack[idx] += dec.scratchInc[i]
		}
		ref.seq = p.SEQ
		copy(p.ACK, ref.ack)
	} else if dec != nil && p.Kind.Sequenced() && p.Src >= 0 && int(p.Src) < n {
		r := dec.ref(p.Src)
		if !r.valid || p.SEQ > r.seq {
			r.seq = p.SEQ
			r.ack = append(r.ack[:0], p.ACK...)
			r.valid = true
		}
	}
	return nil
}
