// Constants and errors of the wire codec (wirev2.go), and the paper's
// size model: the paper fixes the PDU's fields (Fig. 4/5), not a byte
// layout, and EncodedSize prices them at fixed width —
//
//	magic u16 ‖ version u8 ‖ kind u8 ‖ flags u8 ‖ cid u32 ‖ src i32 ‖
//	seq u64 ‖ buf u32 ‖ lsrc i32 ‖ lseq u64 ‖ nack u16 ‖ nack × u64 ‖
//	dlen u32 ‖ data ‖ crc u32
//
// — a layout nothing encodes any more.
package pdu

import "errors"

const (
	// Magic identifies cobcast datagrams on the wire.
	Magic uint16 = 0xC0BC

	fixedHeaderSize = 2 + 1 + 1 + 1 + 4 + 4 + 8 + 4 + 4 + 8 + 2
	trailerSize     = 4

	flagNeedAck = 1 << 0
)

// Wire decoding errors.
var (
	ErrTruncated   = errors.New("pdu: truncated datagram")
	ErrBadMagic    = errors.New("pdu: bad magic")
	ErrBadVersion  = errors.New("pdu: unsupported wire version")
	ErrBadChecksum = errors.New("pdu: checksum mismatch")
	ErrBadFlags    = errors.New("pdu: unknown flag bits")
	ErrTooLong     = errors.New("pdu: field too long to encode")
)

// EncodedSize returns the PDU's length under the fixed-width size model
// above: linear in the cluster size via the ACK vector, the O(n) PDU
// length of Section 5 (experiment E5; E12 compares the codec against it).
func (p *PDU) EncodedSize() int {
	return fixedHeaderSize + 8*len(p.ACK) + 4 + len(p.Data) + trailerSize
}
