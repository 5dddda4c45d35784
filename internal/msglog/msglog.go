// Package msglog implements the receipt logs of the CO protocol and the
// causality-preserved insertion (CPI) operation of Section 4.4.
//
// Each entity keeps, per the paper:
//
//   - one receipt sublog RRL_j per source j, holding PDUs accepted from j
//     in sequence order, awaiting pre-acknowledgment;
//   - one receipt sublog PRL holding pre-acknowledged PDUs, kept
//     causality-preserved by the CPI operation;
//   - one log ARL holding acknowledged PDUs ready for delivery to the
//     application entity.
//
// The package also provides the ordering predicates of Section 2.2
// (local-order-preserved, causality-preserved) that the test suite uses to
// state protocol invariants.
package msglog

import (
	"cobcast/internal/pdu"
)

// Log is an ordered sequence of PDUs with queue operations. The zero value
// is an empty, ready-to-use log. Dequeue is amortized O(1).
type Log struct {
	pdus []*pdu.PDU
	head int

	// maxAck[j] / maxSeq[j] bound, from above, the ACK[j] entries and
	// the sequence numbers of source-j PDUs ever inserted since the log
	// was last empty. They witness the absence of causal successors: a
	// PDU p with maxAck[p.Src] <= p.SEQ and maxSeq[p.Src] <= p.SEQ has
	// no successor in the log under Theorem 4.1, so InsertCPI may append
	// it at the tail without scanning. Dequeue leaves the bounds stale
	// (overestimates only ever force the slow path, never a wrong
	// placement) and resets them when the log drains empty.
	maxAck []pdu.Seq
	maxSeq []pdu.Seq

	// lastPos[j] is the index (into pdus) of the most recently inserted
	// source-j PDU, or -1 if unknown. Because per-source insertions arrive
	// in ascending SEQ and the log stays causality-preserved, no causal
	// successor of a source-j PDU can sit at or before an earlier
	// source-j PDU — so InsertCPI's successor scan may start just past
	// the hint instead of at the head. Hints are best-effort: each is
	// validated against the resident PDU before use, and an invalid hint
	// only widens the scan back to the head. Allocated by Reserve; logs
	// that skip Reserve run without hints.
	lastPos []int
}

// Reserve pre-sizes the log for a cluster of n entities and an expected
// resident population of c PDUs, so the steady-state hot path neither
// grows the successor-witness bounds nor reallocates the backing array.
// It is optional: the zero-value log grows on demand.
func (l *Log) Reserve(n, c int) {
	if n > len(l.maxAck) {
		l.maxAck = append(l.maxAck, make([]pdu.Seq, n-len(l.maxAck))...)
	}
	if n > len(l.maxSeq) {
		l.maxSeq = append(l.maxSeq, make([]pdu.Seq, n-len(l.maxSeq))...)
	}
	if c > cap(l.pdus) {
		grown := make([]*pdu.PDU, len(l.pdus), c)
		copy(grown, l.pdus)
		l.pdus = grown
	}
	if n > len(l.lastPos) {
		old := len(l.lastPos)
		l.lastPos = append(l.lastPos, make([]int, n-old)...)
		for i := old; i < len(l.lastPos); i++ {
			l.lastPos[i] = -1
		}
	}
}

// notePos records that p now resides at index at, shifting hints that the
// insertion displaced. shifted is true when entries at or past at moved
// one slot right (a middle insert), false for a tail append.
func (l *Log) notePos(p *pdu.PDU, at int, shifted bool) {
	if len(l.lastPos) == 0 {
		return
	}
	if shifted {
		for j, h := range l.lastPos {
			if h >= at {
				l.lastPos[j] = h + 1
			}
		}
	}
	if int(p.Src) < len(l.lastPos) {
		l.lastPos[p.Src] = at
	}
}

// posHint returns the index after the latest resident same-source
// predecessor of p, or l.head when no valid hint exists. The first causal
// successor of p cannot sit at or before that predecessor (pred ≺ p, so
// p ≺ q would make q a successor of pred placed before pred, breaking the
// causality-preserved invariant), so scanning may begin there.
func (l *Log) posHint(p *pdu.PDU) int {
	if int(p.Src) < len(l.lastPos) {
		if h := l.lastPos[p.Src]; h >= l.head && h < len(l.pdus) {
			if q := l.pdus[h]; q != nil && q.Src == p.Src && q.SEQ < p.SEQ {
				return h + 1
			}
		}
	}
	return l.head
}

// Len returns the number of PDUs in the log.
func (l *Log) Len() int { return len(l.pdus) - l.head }

// Empty reports whether the log holds no PDUs.
func (l *Log) Empty() bool { return l.Len() == 0 }

// Top returns the first PDU (the paper's top(L)), or nil if empty.
func (l *Log) Top() *pdu.PDU {
	if l.Empty() {
		return nil
	}
	return l.pdus[l.head]
}

// Last returns the final PDU (the paper's last(L)), or nil if empty.
func (l *Log) Last() *pdu.PDU {
	if l.Empty() {
		return nil
	}
	return l.pdus[len(l.pdus)-1]
}

// At returns the i-th PDU (0 = top). It panics if i is out of range.
func (l *Log) At(i int) *pdu.PDU { return l.pdus[l.head+i] }

// Enqueue appends p at the tail (the paper's enqueue(L, p)).
func (l *Log) Enqueue(p *pdu.PDU) {
	l.pdus = append(l.pdus, p)
	l.noteInsert(p)
	l.notePos(p, len(l.pdus)-1, false)
}

// Dequeue removes and returns the top PDU (the paper's dequeue(L)), or nil
// if the log is empty.
func (l *Log) Dequeue() *pdu.PDU {
	if l.Empty() {
		return nil
	}
	p := l.pdus[l.head]
	l.pdus[l.head] = nil // release for GC
	l.head++
	if l.Empty() {
		// Drained: rewind to the front of the backing array (every slot
		// behind head is already nil) so the head index cannot grow
		// without bound in enqueue/dequeue steady state.
		l.pdus = l.pdus[:0]
		l.head = 0
		l.resetBounds()
	} else if l.head > 64 && l.head*2 >= len(l.pdus) {
		l.compact()
	}
	return p
}

// noteInsert folds p into the successor-witness bounds.
func (l *Log) noteInsert(p *pdu.PDU) {
	if n := len(p.ACK); n > len(l.maxAck) {
		l.maxAck = append(l.maxAck, make([]pdu.Seq, n-len(l.maxAck))...)
	}
	if s := int(p.Src) + 1; s > len(l.maxSeq) {
		l.maxSeq = append(l.maxSeq, make([]pdu.Seq, s-len(l.maxSeq))...)
	}
	for j, a := range p.ACK {
		if a > l.maxAck[j] {
			l.maxAck[j] = a
		}
	}
	if p.SEQ > l.maxSeq[p.Src] {
		l.maxSeq[p.Src] = p.SEQ
	}
}

// resetBounds re-arms the append-at-tail fast path on an empty log.
func (l *Log) resetBounds() {
	for i := range l.maxAck {
		l.maxAck[i] = 0
	}
	for i := range l.maxSeq {
		l.maxSeq[i] = 0
	}
	for i := range l.lastPos {
		l.lastPos[i] = -1
	}
}

// noSuccessorIn reports whether the bounds prove no PDU in the log
// causally follows p (Theorem 4.1: a successor q has q.ACK[p.Src] > p.SEQ,
// or q.Src == p.Src with q.SEQ > p.SEQ).
func (l *Log) noSuccessorIn(p *pdu.PDU) bool {
	if int(p.Src) < len(l.maxAck) && l.maxAck[p.Src] > p.SEQ {
		return false
	}
	if int(p.Src) < len(l.maxSeq) && l.maxSeq[p.Src] > p.SEQ {
		return false
	}
	return true
}

func (l *Log) compact() {
	n := copy(l.pdus, l.pdus[l.head:])
	for i := n; i < len(l.pdus); i++ {
		l.pdus[i] = nil
	}
	for j, h := range l.lastPos {
		if h >= l.head {
			l.lastPos[j] = h - l.head
		} else if h >= 0 {
			l.lastPos[j] = -1
		}
	}
	l.pdus = l.pdus[:n]
	l.head = 0
}

// Slice returns a copy of the log contents from top to last. Mutating the
// returned slice does not affect the log.
func (l *Log) Slice() []*pdu.PDU {
	if l.Empty() {
		return nil
	}
	return l.AppendTo(nil)
}

// AppendTo appends the log contents from top to last onto dst and
// returns the extended slice, reusing dst's capacity — the scratch-friendly
// form of Slice for callers that snapshot repeatedly.
func (l *Log) AppendTo(dst []*pdu.PDU) []*pdu.PDU {
	return append(dst, l.pdus[l.head:]...)
}

// InsertCPI performs the causality-preserved insertion L < p of Section
// 4.4: p is placed immediately before the first PDU q in the log with
// p ≺ q (per Theorem 4.1), or appended at the tail if no such q exists.
// Concurrent PDUs therefore keep their arrival order, matching cases
// (2-2)/(2-3) of the paper's CPI definition. If the log was
// causality-preserved before the call it remains so after, because in a
// causality-preserved log no q' ≺ p can appear at or after the first
// successor of p (q' ≺ p ≺ q would put q' before q).
// In the common case — PDUs arriving in causal order — no entry follows
// p, the successor-witness bounds prove it, and p is appended at the tail
// in O(1) without scanning.
//
// It returns p's displacement: the number of entries p was inserted in
// front of, 0 for a tail append. The successor-witness bounds are
// conservative, so a slow-path scan that finds no successor also
// returns 0.
func (l *Log) InsertCPI(p *pdu.PDU) int {
	if l.noSuccessorIn(p) {
		l.pdus = append(l.pdus, p)
		l.noteInsert(p)
		l.notePos(p, len(l.pdus)-1, false)
		return 0
	}
	// The scan applies pdu.CausallyPrecedes(p, q) unrolled to the
	// one-directional Theorem 4.1 test: this loop runs once per resident
	// PDU and the full Compare would redundantly evaluate q ≺ p too. It
	// starts at the same-source position hint: entries at or before p's
	// latest resident predecessor cannot causally follow p.
	at := len(l.pdus)
	src, seq := p.Src, p.SEQ
	start := l.posHint(p)
	for i := start; i < len(l.pdus); i++ {
		q := l.pdus[i]
		if q.Src == src {
			if seq < q.SEQ {
				at = i
				break
			}
		} else if seq < q.ACK[src] {
			at = i
			break
		}
	}
	displaced := len(l.pdus) - at
	l.pdus = append(l.pdus, nil)
	copy(l.pdus[at+1:], l.pdus[at:])
	l.pdus[at] = p
	l.noteInsert(p)
	l.notePos(p, at, displaced != 0)
	return displaced
}

// InsertBySeq inserts p keeping the log sorted by ascending SEQ. It is
// meant for logs holding PDUs from a single source, where SEQ is a total
// order. The common case — p's SEQ above every entry — appends at the
// tail in O(1); a late straggler shifts the larger entries right.
func (l *Log) InsertBySeq(p *pdu.PDU) {
	at := len(l.pdus)
	for at > l.head && l.pdus[at-1].SEQ > p.SEQ {
		at--
	}
	l.pdus = append(l.pdus, nil)
	copy(l.pdus[at+1:], l.pdus[at:])
	l.pdus[at] = p
	l.noteInsert(p)
	l.notePos(p, at, at != len(l.pdus)-1)
}

// IsCausalityPreserved reports whether the sequence satisfies the
// causality-preserved property of Section 2.2: no PDU appears before one
// of its causal predecessors (for all i < j, not pdus[j] ≺ pdus[i]).
func IsCausalityPreserved(pdus []*pdu.PDU) bool {
	for i := range pdus {
		for j := i + 1; j < len(pdus); j++ {
			if pdu.CausallyPrecedes(pdus[j], pdus[i]) {
				return false
			}
		}
	}
	return true
}

// IsLocalOrderPreserved reports whether the sequence satisfies the
// local-order-preserved property of Section 2.2: PDUs from each source
// appear in strictly increasing sequence order.
func IsLocalOrderPreserved(pdus []*pdu.PDU) bool {
	last := make(map[pdu.EntityID]pdu.Seq)
	for _, p := range pdus {
		if prev, ok := last[p.Src]; ok && p.SEQ <= prev {
			return false
		}
		last[p.Src] = p.SEQ
	}
	return true
}

// IsInformationPreserved reports whether received contains every PDU of
// sent (matched by source and sequence number): the
// information-preserved property of Section 2.2 restricted to a known
// sent set.
func IsInformationPreserved(received, sent []*pdu.PDU) bool {
	type key struct {
		src pdu.EntityID
		seq pdu.Seq
	}
	have := make(map[key]bool, len(received))
	for _, p := range received {
		have[key{p.Src, p.SEQ}] = true
	}
	for _, p := range sent {
		if !have[key{p.Src, p.SEQ}] {
			return false
		}
	}
	return true
}
