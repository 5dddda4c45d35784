// Package pdu defines the protocol data units (PDUs) exchanged by the
// causally ordering broadcast (CO) protocol, their wire encoding, and the
// sequence-number-based causality relation of Theorem 4.1 of the paper.
//
// The PDU format follows Figure 4 (data PDUs) and Figure 5 (RET PDUs) of
// Nakamura & Takizawa, "Causally Ordering Broadcast Protocol": every PDU
// carries the cluster identifier CID, the source entity SRC, the sequence
// number SEQ assigned by the source, the receipt-confirmation vector
// ACK = <ACK_1 ... ACK_n>, and the advertised free buffer size BUF.
// ACK_j is the sequence number the source expects to receive next from
// entity j, i.e. the source has accepted every PDU q from j with
// q.SEQ < ACK_j. Because ACK carries one entry per cluster member, the PDU
// length is O(n) — measured by experiment E5.
package pdu

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// EntityID identifies a system entity within a cluster. Entities are
// numbered 0..n-1. The zero value is a valid identifier (entity 0), so
// contexts that need a sentinel use NoEntity.
type EntityID int32

// NoEntity is the sentinel "no entity" value used where an EntityID field
// is meaningless (for example LSRC on non-RET PDUs).
const NoEntity EntityID = -1

// Seq is a per-source PDU sequence number. Sources number their sequenced
// PDUs from 1; 0 means "unsequenced" and is carried by control PDUs
// (AckOnly, Ret) that never enter the receipt logs.
type Seq uint64

// Kind discriminates the PDU variants used by the CO protocol.
type Kind uint8

const (
	// KindData is a sequenced PDU carrying application data (the DT PDU of
	// Figure 4). It flows through the full acceptance → pre-acknowledgment
	// → acknowledgment pipeline and is delivered to the application.
	KindData Kind = iota + 1
	// KindSync is a sequenced PDU with empty DATA, emitted by the deferred
	// confirmation rule of Section 5 when an entity has nothing to send
	// but must keep receipt confirmations flowing. It traverses the same
	// pipeline as KindData but is never handed to the application.
	KindSync
	// KindAckOnly is an unsequenced control PDU (SEQ = 0) carrying only
	// the ACK vector and BUF. It is exempt from the flow condition and is
	// used to break window-stall deadlocks; it never enters the logs.
	KindAckOnly
	// KindRet is the retransmission-request PDU of Figure 5. LSRC names
	// the source whose PDUs were lost and LSEQ bounds the missing range:
	// the receiver rebroadcasts its PDUs g with ACK[LSRC] <= g.SEQ < LSEQ
	// that the held list in DATA does not name (see Holds).
	KindRet
)

// String returns the mnemonic used in traces and error messages.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindSync:
		return "SYNC"
	case KindAckOnly:
		return "ACKONLY"
	case KindRet:
		return "RET"
	default:
		return "KIND(" + strconv.Itoa(int(k)) + ")"
	}
}

// Sequenced reports whether PDUs of this kind consume a sequence number
// and enter the receipt logs.
func (k Kind) Sequenced() bool { return k == KindData || k == KindSync }

// PDU is a single protocol data unit. Fields mirror Figures 4 and 5 of the
// paper; Kind and NeedAck are implementation additions documented in
// DESIGN.md (control PDUs for liveness, and gossip damping).
type PDU struct {
	// Kind discriminates DATA/SYNC/ACKONLY/RET.
	Kind Kind
	// CID is the cluster identifier; entities discard PDUs whose CID does
	// not match their own cluster.
	CID uint32
	// Src is the source entity that created the PDU.
	Src EntityID
	// SEQ is the per-source sequence number (0 for unsequenced kinds).
	SEQ Seq
	// ACK[j] is the sequence number the source expects next from entity j
	// at the time the PDU was created. len(ACK) == n.
	ACK []Seq
	// BUF is the number of available buffer units at the source.
	BUF uint32
	// NeedAck is set on sequenced PDUs while the source still holds
	// undelivered data; receivers with nothing of their own to confirm
	// respond to NeedAck PDUs so the two-phase acknowledgment keeps
	// making progress after data traffic stops.
	NeedAck bool
	// Packed marks a DATA PDU whose Data carries two or more application
	// messages in the pack form of pack.go; they are delivered in pack
	// order under this PDU's one SEQ.
	Packed bool
	// LSrc is, on RET PDUs, the source whose PDUs were detected lost.
	LSrc EntityID
	// LSeq is, on RET PDUs, the exclusive upper bound of the missing
	// sequence range: one past the last PDU of LSrc the sender still
	// misses below its strongest evidence (F condition (1): the SEQ of
	// the PDU that revealed the gap; F condition (2): the ACK entry that
	// revealed it).
	LSeq Seq
	// Data is the application payload on DATA: one message, or a pack of
	// them when Packed is set. On RET it is the held list: the PDUs of
	// the range the sender already holds (see Holds), empty when the
	// range is one hole.
	Data []byte
	// Delta is set by nothing in this module: the engine folds every
	// PDU's full ACK vector. It stays only because the bench module's
	// probe still reads it for its vclock.delta_indices_per_pdu and
	// vclock.dense_share rows (and their .n64 twins), which read 0 and 1.
	Delta []Seq
}

// Relation is the outcome of comparing two PDUs under the
// causality-precedence relation of Section 2.2.
type Relation int

const (
	// Precedes means p ≺ q: p was causally sent before q.
	Precedes Relation = iota + 1
	// Follows means q ≺ p.
	Follows
	// Concurrent means neither precedes the other (causality-coincident,
	// written p ∥ q in the paper).
	Concurrent
)

// String returns "≺", "≻" or "∥".
func (r Relation) String() string {
	switch r {
	case Precedes:
		return "≺"
	case Follows:
		return "≻"
	case Concurrent:
		return "∥"
	default:
		return "REL(" + strconv.Itoa(int(r)) + ")"
	}
}

// Compare determines the causality relation between two sequenced PDUs
// using only their sequence numbers and ACK vectors, per Theorem 4.1:
//
//	(1) if p.Src == q.Src:  p ≺ q  iff  p.SEQ < q.SEQ
//	(2) if p.Src != q.Src:  p ≺ q  iff  p.SEQ < q.ACK[p.Src]
//
// Both PDUs must be sequenced and their ACK vectors must cover each
// other's sources; Compare panics otherwise because calling it on control
// PDUs is a programming error, not a runtime condition.
//
// Stamps where each PDU acknowledges the other (a causal cycle) cannot
// arise in any valid protocol history, but can arrive from a corrupt or
// hostile peer whose datagram still passes the checksum. Compare reports
// such contradictory pairs as Concurrent so the relation stays
// antisymmetric on arbitrary inputs rather than answering Precedes in
// both directions.
func Compare(p, q *PDU) Relation {
	if !p.Kind.Sequenced() || !q.Kind.Sequenced() {
		panic("pdu: Compare called on unsequenced PDU")
	}
	if p.Src == q.Src {
		switch {
		case p.SEQ < q.SEQ:
			return Precedes
		case p.SEQ > q.SEQ:
			return Follows
		default:
			return Concurrent // the same PDU; callers treat as coincident
		}
	}
	pBeforeQ := p.SEQ < q.ACK[p.Src]
	qBeforeP := q.SEQ < p.ACK[q.Src]
	switch {
	case pBeforeQ && qBeforeP:
		return Concurrent // contradictory stamps; see above
	case pBeforeQ:
		return Precedes
	case qBeforeP:
		return Follows
	default:
		return Concurrent
	}
}

// CausallyPrecedes reports whether p ≺ q under Theorem 4.1.
func CausallyPrecedes(p, q *PDU) bool { return Compare(p, q) == Precedes }

// inlineStamp is the longest stamp New allocates inside the PDU's own
// object: the ACK vector of a cluster of up to 8 entities, which covers
// the n = 4 every bench workload runs at.
const inlineStamp = 8

// New allocates a zero PDU together with zeroed storage for its ACK
// vector of the given length. A stamp of up to inlineStamp entries
// shares the PDU's allocation, so a small cluster's send or clone costs
// one object where it would cost two.
func New(stamp int) (*PDU, []Seq) {
	if stamp <= inlineStamp {
		sp := new(struct {
			PDU
			stamp [inlineStamp]Seq
		})
		return &sp.PDU, sp.stamp[:stamp]
	}
	return new(PDU), make([]Seq, stamp)
}

// Clone returns a deep copy of the PDU. Networks clone PDUs at the
// boundary so that entities never share backing arrays.
func (p *PDU) Clone() *PDU {
	q, ack := New(len(p.ACK))
	*q = *p
	if p.ACK != nil {
		q.ACK = ack
		copy(q.ACK, p.ACK)
	}
	if p.Data != nil {
		q.Data = make([]byte, len(p.Data))
		copy(q.Data, p.Data)
	}
	return q
}

// Validation errors returned by Validate.
var (
	ErrBadKind   = errors.New("pdu: unknown kind")
	ErrBadSrc    = errors.New("pdu: source out of range")
	ErrBadSeq    = errors.New("pdu: sequence number inconsistent with kind")
	ErrBadACKLen = errors.New("pdu: ACK vector length does not match cluster size")
	ErrBadOwnACK = errors.New("pdu: sequenced PDU's own ACK entry is not its SEQ")
	ErrBadRet    = errors.New("pdu: RET fields inconsistent")
)

// Validate checks structural well-formedness of the PDU for a cluster of
// n entities, and clause 1 of the honest-sender contract: a sequenced
// PDU's own ACK entry is its SEQ, because its source snapshots REQ just
// before it self-accepts the PDU (§4.2, Table 1). Clause 2, that one
// source's vectors never decrease, needs the predecessor, so the
// receiving entity checks it where it accepts (core.ErrACKRegressed).
func (p *PDU) Validate(n int) error {
	switch p.Kind {
	case KindData, KindSync, KindAckOnly, KindRet:
	default:
		return fmt.Errorf("%w: %d", ErrBadKind, p.Kind)
	}
	if p.Src < 0 || int(p.Src) >= n {
		return fmt.Errorf("%w: src=%d n=%d", ErrBadSrc, p.Src, n)
	}
	if p.Kind.Sequenced() && p.SEQ == 0 {
		return fmt.Errorf("%w: sequenced %s with SEQ=0", ErrBadSeq, p.Kind)
	}
	if !p.Kind.Sequenced() && p.SEQ != 0 {
		return fmt.Errorf("%w: unsequenced %s with SEQ=%d", ErrBadSeq, p.Kind, p.SEQ)
	}
	if len(p.ACK) != n {
		return fmt.Errorf("%w: len=%d n=%d", ErrBadACKLen, len(p.ACK), n)
	}
	if p.Kind.Sequenced() && p.ACK[p.Src] != p.SEQ {
		return fmt.Errorf("%w: SEQ=%d ACK[%d]=%d", ErrBadOwnACK, p.SEQ, p.Src, p.ACK[p.Src])
	}
	if p.Packed {
		if err := p.validatePack(); err != nil {
			return err
		}
	}
	if p.Kind == KindRet {
		if p.LSrc < 0 || int(p.LSrc) >= n {
			return fmt.Errorf("%w: lsrc=%d n=%d", ErrBadRet, p.LSrc, n)
		}
		if p.LSeq == 0 {
			return fmt.Errorf("%w: lseq=0", ErrBadRet)
		}
		if len(p.Data) > 0 {
			// The held list covers (ACK[LSrc], LSeq): non-empty only when
			// that holds a SEQ, and no longer than its bitmap needs.
			// Seq is unsigned, so the span is tested before it is formed.
			base := p.ACK[p.LSrc]
			if p.LSeq <= base || p.LSeq-base < 2 {
				return fmt.Errorf("%w: held list on range [%d,%d)", ErrBadRet, base, p.LSeq)
			}
			if span := p.LSeq - base - 1; uint64(len(p.Data)) > (uint64(span)-1)/8+1 {
				return fmt.Errorf("%w: held list of %d bytes on range [%d,%d)", ErrBadRet, len(p.Data), base, p.LSeq)
			}
		}
	}
	return nil
}

// Holds reports whether the RET p names s in its held list. The list is
// a bitmap over the SEQs ACK[LSrc]+1 … LSeq-1, least significant bit
// first, with trailing zero bytes trimmed: ACK[LSrc] is the requester's
// first missing PDU and LSeq-1 its last, so neither needs a bit.
func (p *PDU) Holds(s Seq) bool {
	first := p.ACK[p.LSrc]
	if s <= first {
		return false
	}
	i := uint64(s - first - 1)
	return i < uint64(len(p.Data))*8 && p.Data[i/8]&(1<<(i%8)) != 0
}

// AddHeld returns the held list with s added, for a RET whose first
// missing PDU is first (its ACK[LSrc]); s > first. The list grows only
// as far as its highest SEQ, so it stays trimmed (see Holds).
func AddHeld(list []byte, first, s Seq) []byte {
	i := uint64(s - first - 1)
	for uint64(len(list)) <= i/8 {
		list = append(list, 0)
	}
	list[i/8] |= 1 << (i % 8)
	return list
}

// String renders a compact human-readable form used by traces and tests,
// for example "DATA s1#3 ack=[4 2 2] len=12".
func (p *PDU) String() string {
	var b strings.Builder
	b.WriteString(p.Kind.String())
	fmt.Fprintf(&b, " s%d", p.Src)
	if p.Kind.Sequenced() {
		fmt.Fprintf(&b, "#%d", p.SEQ)
	}
	b.WriteString(" ack=[")
	for i, a := range p.ACK {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(a), 10))
	}
	b.WriteByte(']')
	if p.Kind == KindRet {
		fmt.Fprintf(&b, " lost=s%d<%d", p.LSrc, p.LSeq)
	}
	if p.Kind == KindRet && len(p.Data) > 0 {
		fmt.Fprintf(&b, " held=%x", p.Data)
	} else if len(p.Data) > 0 {
		fmt.Fprintf(&b, " len=%d", len(p.Data))
	}
	if p.Packed {
		b.WriteString(" packed")
	}
	if p.NeedAck {
		b.WriteString(" need")
	}
	return b.String()
}
