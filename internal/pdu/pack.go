// Packed DATA: when a sender's flow window reopens on a backlog, the
// queued submissions ride one DATA PDU — one SEQ, one ACK vector, one
// confirmation round for all of them (DESIGN.md §2n). The PDU's Packed
// bit (bit 2 of the v2 flags byte) says Data holds k ≥ 2 messages, each
// as
//
//	len   uvarint (minimal)
//	bytes len bytes
//
// with no count and no trailer: the pack ends where Data ends, so bytes
// after the last message are by construction either one more message or
// a length overrun. Validate walks the pack before the engine accepts
// the PDU — a sequenced PDU can never be dropped afterwards — and the
// delivery path then splits it with the same NextMessage.
package pdu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// MaxPackBytes bounds the Data of a packed PDU. It is the smallest value
// on the measured plateau of bench's saturation rate (two runs each of
// 1400 B / 4 KiB / 8 KiB / 32 KiB, in k msg/s: mem-steady 384,414 /
// 420,444 / 421,433 / 423,418; mem-lossy 246,246 / 371,355 / 389,375 /
// 385,390 — DESIGN.md §2n), and leaves a pack, its header and a full ACK
// stamp far below the 60 KiB datagram limit. A constant, not a knob:
// packing takes only what is already queued, so there is no latency
// trade for a setting to tune.
const MaxPackBytes = 8 << 10

// ErrBadPack marks a Packed PDU whose Data is not a well-formed pack, or
// a Packed bit on anything but DATA.
var ErrBadPack = errors.New("pdu: malformed message pack")

// PackedSize returns the bytes a message of n bytes occupies in a pack.
func PackedSize(n int) int {
	return (bits.Len64(uint64(n)|1)+6)/7 + n // 7 length bits per varint byte
}

// AppendMessage appends msg to pack in packed form.
func AppendMessage(pack, msg []byte) []byte {
	return append(binary.AppendUvarint(pack, uint64(len(msg))), msg...)
}

// NextMessage splits the first message off pack. ok is false when the
// pack is malformed at this point: a bad or padded length varint, or a
// length that overruns what is left. msg aliases pack, capped at its own
// length, so appending to it copies instead of overwriting the next
// message.
func NextMessage(pack []byte) (msg, rest []byte, ok bool) {
	n, rest, err := readUvarint(pack)
	if err != nil || n > uint64(len(rest)) {
		return nil, nil, false
	}
	return rest[:n:n], rest[n:], true
}

// validatePack checks the Packed bit against kind and Data: DATA only,
// at most MaxPackBytes, at least two messages, every length in bounds.
func (p *PDU) validatePack() error {
	if p.Kind != KindData {
		return fmt.Errorf("%w: packed %s", ErrBadPack, p.Kind)
	}
	if len(p.Data) > MaxPackBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrBadPack, len(p.Data), MaxPackBytes)
	}
	k := 0
	for rest := p.Data; len(rest) > 0; k++ {
		var ok bool
		if _, rest, ok = NextMessage(rest); !ok {
			return fmt.Errorf("%w: message %d overruns the pack", ErrBadPack, k)
		}
	}
	if k < 2 {
		return fmt.Errorf("%w: %d messages", ErrBadPack, k)
	}
	return nil
}
