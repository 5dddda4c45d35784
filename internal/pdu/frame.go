// Batch frame encoding: the wire unit exchanged by cobcast transports.
// A frame is a versioned header followed by a length-prefixed sequence of
// PDU datagrams, so every PDU an entity produces while draining its input
// queue can ride in one datagram (one syscall, one header, one channel
// hop) instead of one datagram each:
//
//	magic   uint16  0xC0BF
//	version uint8   2
//	count   uint16  number of PDUs
//	count × {
//	  plen  uint32  length of the PDU encoding
//	  pdu   plen bytes (MarshalV2 output, self-checksummed)
//	}
//
// That is the default group's header; version 3 widens it with an
// entry-codec byte and a uint32 group ID (see FrameVersion3) so one
// transport can carry many independent ordered groups.
//
// All integers are big-endian. Frames carry no checksum of their own:
// each entry is integrity-protected by the PDU codec's CRC-32 trailer,
// and the frame structure is validated field by field so a truncated or
// corrupt frame errors out without panicking or over-reading.
//
// Ordering contract: a frame preserves the append order of its PDUs, and
// decoders hand PDUs back in exactly that order, so a transport that
// keeps per-sender frame order automatically keeps per-sender PDU order
// within and across frames — the MC service contract.
package pdu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

const (
	// FrameMagic identifies cobcast batch frames on the wire.
	FrameMagic uint16 = 0xC0BF
	// FrameVersion2 marks the default group's frames (emitted by
	// FrameEncoder.BeginV2): the five-byte header above, entries in wire
	// codec v2, group 0 implied.
	FrameVersion2 uint8 = 2
	// FrameVersion3 marks group-addressed frames. A v3 header widens to
	//
	//	magic   uint16  0xC0BF
	//	version uint8   3
	//	ecodec  uint8   entry codec: WireVersion2, the only one there is
	//	group   uint32  group ID, 1..MaxGroupID (0 = default group)
	//	count   uint16  number of PDUs
	//
	// Every decoder accepts both headers, so the default group's v2
	// frames and other groups' v3 frames share one socket stream.
	FrameVersion3 uint8 = 3

	// FrameHeaderSize is the fixed v2 frame header length in bytes.
	FrameHeaderSize = 2 + 1 + 2
	// FrameHeaderSizeV3 is the group-addressed frame header length.
	FrameHeaderSizeV3 = 2 + 1 + 1 + 4 + 2
	// FrameEntrySize is the per-PDU framing overhead (the length prefix).
	FrameEntrySize = 4

	// MaxFramePDUs is the most PDUs one frame can carry.
	MaxFramePDUs = math.MaxUint16

	// MaxGroupID bounds valid group IDs on the wire. The group field is
	// a uint32 but IDs are confined to 28 bits so a corrupted header is
	// overwhelmingly likely to land out of range and be counted as an
	// unknown-group drop instead of feeding a bogus group to the runtime.
	MaxGroupID uint32 = 1<<28 - 1
)

// Frame decoding errors.
var (
	ErrFrameTruncated  = errors.New("pdu: truncated batch frame")
	ErrBadFrameMagic   = errors.New("pdu: bad frame magic")
	ErrBadFrameVersion = errors.New("pdu: unsupported frame version")
	ErrFrameTrailing   = errors.New("pdu: trailing bytes after batch frame")
	ErrFrameFull       = errors.New("pdu: batch frame full")
	// ErrBadFrameGroup marks a v3 frame whose group ID exceeds
	// MaxGroupID; receivers count it as an unknown-group drop.
	ErrBadFrameGroup = errors.New("pdu: frame group ID out of range")
	// ErrBadEntryCodec marks a v3 frame whose entry-codec byte is not
	// WireVersion2: from Reset for such a header, from Append after a
	// BeginGroup that asked for one.
	ErrBadEntryCodec = errors.New("pdu: unsupported frame entry codec")
)

// FrameEncoder builds a batch frame by appending PDUs into a caller-owned
// buffer. With a buffer of sufficient capacity the steady-state encode
// path allocates nothing. The zero value is ready for BeginV2 or
// BeginGroup.
type FrameEncoder struct {
	buf      []byte
	start    int
	countOff int // where Bytes patches the entry count into the header
	count    int
	ecodec   uint8 // the entry codec begun with, checked by Append
	stamps   *StampEncoder
}

// BeginV2 starts a new default-group (v2) frame, appending its header to
// buf; entries are encoded against st's reference stamp. st persists
// across frames (it tracks the sender's whole outgoing stream); nil st
// forces a full stamp on every entry. Any frame in progress is discarded.
func (e *FrameEncoder) BeginV2(buf []byte, st *StampEncoder) {
	e.start = len(buf)
	buf = binary.BigEndian.AppendUint16(buf, FrameMagic)
	e.begin(append(buf, FrameVersion2), WireVersion2, st)
}

// BeginGroup starts a new v3 group-addressed frame. ecodec must be
// WireVersion2: any other value is written to the header as given and
// every Append then fails with ErrBadEntryCodec. group must be <=
// MaxGroupID — each group is its own sequence space, so the stamp encoder
// st must be dedicated to this group's stream (nil st: all entries
// full-stamped).
func (e *FrameEncoder) BeginGroup(buf []byte, group uint32, ecodec uint8, st *StampEncoder) {
	e.start = len(buf)
	buf = binary.BigEndian.AppendUint16(buf, FrameMagic)
	buf = append(buf, FrameVersion3, ecodec)
	e.begin(binary.BigEndian.AppendUint32(buf, group), ecodec, st)
}

// begin completes a header with its count field and resets entry state.
func (e *FrameEncoder) begin(hdr []byte, ecodec uint8, st *StampEncoder) {
	e.countOff = len(hdr)
	e.buf = append(hdr, 0, 0)
	e.count, e.ecodec, e.stamps = 0, ecodec, st
}

// Append encodes p as the frame's next entry. On error the frame and the
// stamp encoder are left exactly as before the call.
func (e *FrameEncoder) Append(p *PDU) error {
	if e.ecodec != WireVersion2 {
		return fmt.Errorf("%w: %d", ErrBadEntryCodec, e.ecodec)
	}
	if e.count >= MaxFramePDUs {
		return ErrFrameFull
	}
	lenOff := len(e.buf)
	buf, err := p.MarshalAppendV2(append(e.buf, 0, 0, 0, 0), e.stamps)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(buf[lenOff:], uint32(len(buf)-lenOff-FrameEntrySize))
	e.buf = buf
	e.count++
	return nil
}

// Count returns the number of PDUs appended since the frame was begun.
func (e *FrameEncoder) Count() int { return e.count }

// Size returns the frame's current encoded size in bytes.
func (e *FrameEncoder) Size() int { return len(e.buf) - e.start }

// Bytes seals the frame (patching the entry count into the header) and
// returns the buffer the frame was begun in, extended with the complete
// frame.
// The encoder may be reused with BeginV2 or BeginGroup afterwards.
func (e *FrameEncoder) Bytes() []byte {
	binary.BigEndian.PutUint16(e.buf[e.countOff:], uint16(e.count))
	return e.buf
}

// EncodeFrameV2 is a convenience wrapper marshaling a batch into one
// default-group frame against st's reference stamp (nil st: all entries
// full-stamped).
func EncodeFrameV2(batch []*PDU, st *StampEncoder) ([]byte, error) {
	var e FrameEncoder
	e.BeginV2(nil, st)
	return e.appendAll(batch)
}

// EncodeFrameGroup marshals a batch into one v3 group-addressed frame
// (ecodec as in BeginGroup, st as in EncodeFrameV2).
func EncodeFrameGroup(batch []*PDU, group uint32, ecodec uint8, st *StampEncoder) ([]byte, error) {
	var e FrameEncoder
	e.BeginGroup(nil, group, ecodec, st)
	return e.appendAll(batch)
}

func (e *FrameEncoder) appendAll(batch []*PDU) ([]byte, error) {
	for _, p := range batch {
		if err := e.Append(p); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// FrameGroup peeks the group ID out of an encoded frame without decoding
// it: v2 frames are the default group (0, true), v3 frames return
// their header's group field unvalidated — callers treat IDs above
// MaxGroupID as unknown-group drops. ok is false when b is too short or
// not a frame at all; such datagrams belong on the default decode path,
// whose terminal error accounts for them as loss.
func FrameGroup(b []byte) (group uint32, ok bool) {
	if len(b) < FrameHeaderSize || binary.BigEndian.Uint16(b) != FrameMagic {
		return 0, false
	}
	switch {
	case b[2] == FrameVersion2:
		return 0, true
	case b[2] == FrameVersion3 && len(b) >= FrameHeaderSizeV3:
		return binary.BigEndian.Uint32(b[4:8]), true
	}
	return 0, false
}

// FrameDecoder iterates the PDUs of a batch frame in place. It performs
// no allocation of its own; decoding into a reused scratch PDU keeps the
// steady-state receive path allocation-free. Every error is terminal:
// once Reset or Next fails, subsequent Next calls return the same error,
// so a malformed frame can never cause an over-read or a stuck loop.
type FrameDecoder struct {
	rest      []byte
	remaining int
	err       error
	group     uint32
	stamps    *StampDecoder
}

// SetStampDecoder attaches the per-source stamp cache used to resolve
// delta-encoded entries. The cache persists across Reset
// calls — it mirrors the senders' streams, not one frame. Without it,
// delta entries fail with ErrDeltaDesync (full-stamp entries still
// decode).
func (d *FrameDecoder) SetStampDecoder(sd *StampDecoder) { d.stamps = sd }

// Reset points the decoder at frame b, validating the header. Frame
// versions 2 and 3 are accepted — a v3 header only with entry codec
// WireVersion2 — and anything else, the retired version 1 included,
// fails ErrBadFrameVersion. The decoder reads from b in place, so b must
// stay alive and unmodified until the last Next.
func (d *FrameDecoder) Reset(b []byte) error {
	d.rest, d.remaining, d.group = nil, 0, 0
	if len(b) < FrameHeaderSize {
		d.err = fmt.Errorf("%w: %d header bytes", ErrFrameTruncated, len(b))
		return d.err
	}
	if m := binary.BigEndian.Uint16(b); m != FrameMagic {
		d.err = fmt.Errorf("%w: %04x", ErrBadFrameMagic, m)
		return d.err
	}
	switch v := b[2]; v {
	case FrameVersion2:
		d.remaining = int(binary.BigEndian.Uint16(b[3:5]))
		d.rest = b[FrameHeaderSize:]
	case FrameVersion3:
		if len(b) < FrameHeaderSizeV3 {
			d.err = fmt.Errorf("%w: %d header bytes for v3", ErrFrameTruncated, len(b))
			return d.err
		}
		if ec := b[3]; ec != WireVersion2 {
			d.err = fmt.Errorf("%w: %d", ErrBadEntryCodec, ec)
			return d.err
		}
		if g := binary.BigEndian.Uint32(b[4:8]); g > MaxGroupID {
			d.err = fmt.Errorf("%w: %d", ErrBadFrameGroup, g)
			return d.err
		}
		d.group = binary.BigEndian.Uint32(b[4:8])
		d.remaining = int(binary.BigEndian.Uint16(b[8:10]))
		d.rest = b[FrameHeaderSizeV3:]
	default:
		d.err = fmt.Errorf("%w: %d", ErrBadFrameVersion, v)
		return d.err
	}
	d.err = nil
	return nil
}

// Group reports the group ID of the frame last Reset: the v3 header
// field, or 0 (the default group) for v2 frames.
func (d *FrameDecoder) Group() uint32 { return d.group }

// Next decodes the frame's next PDU into p (overwriting every field and
// reusing p's ACK/Data capacity). It returns false with a nil error when
// the frame is exhausted; false with an error when the frame is
// malformed, after which the decoder stays in the error state.
func (d *FrameDecoder) Next(p *PDU) (bool, error) {
	if d.err != nil {
		return false, d.err
	}
	if d.remaining == 0 {
		if len(d.rest) != 0 {
			d.err = fmt.Errorf("%w: %d bytes", ErrFrameTrailing, len(d.rest))
			return false, d.err
		}
		return false, nil
	}
	if len(d.rest) < FrameEntrySize {
		d.err = fmt.Errorf("%w: entry prefix", ErrFrameTruncated)
		return false, d.err
	}
	plen := binary.BigEndian.Uint32(d.rest)
	if uint64(plen) > uint64(len(d.rest)-FrameEntrySize) {
		d.err = fmt.Errorf("%w: entry of %d bytes, %d left", ErrFrameTruncated, plen, len(d.rest)-FrameEntrySize)
		return false, d.err
	}
	entry := d.rest[FrameEntrySize : FrameEntrySize+plen]
	d.rest = d.rest[FrameEntrySize+plen:]
	d.remaining--
	if d.err = p.UnmarshalFromV2(entry, d.stamps); d.err != nil {
		return false, d.err
	}
	return true, nil
}
