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

// Queue is a FIFO of PDUs kept in ascending SEQ order: the paper's
// receipt sublog RRL_j, and the commit stage's per-source queue. The zero
// value is an empty, ready-to-use queue. Insert is O(1) for in-order
// input and Dequeue is amortized O(1).
type Queue struct {
	pdus []*pdu.PDU
	head int
}

// Reserve pre-sizes the queue for c resident PDUs, so the steady-state
// hot path does not reallocate the backing array. It is optional: the
// zero-value queue grows on demand.
func (q *Queue) Reserve(c int) {
	if c > cap(q.pdus) {
		grown := make([]*pdu.PDU, len(q.pdus), c)
		copy(grown, q.pdus)
		q.pdus = grown
	}
}

// Len returns the number of PDUs in the queue.
func (q *Queue) Len() int { return len(q.pdus) - q.head }

// Top returns the first PDU (the paper's top(L)), or nil if empty.
func (q *Queue) Top() *pdu.PDU {
	if q.Len() == 0 {
		return nil
	}
	return q.pdus[q.head]
}

// At returns the i-th PDU (0 = top). It panics if i is out of range.
func (q *Queue) At(i int) *pdu.PDU { return q.pdus[q.head+i] }

// Slice returns a copy of the queue contents from top to last. Mutating
// the returned slice does not affect the queue.
func (q *Queue) Slice() []*pdu.PDU {
	if q.Len() == 0 {
		return nil
	}
	return append([]*pdu.PDU(nil), q.pdus[q.head:]...)
}

// Insert places p after every entry with a lower SEQ. Meant for PDUs from
// a single source, where SEQ is a total order: an in-order p (the
// paper's enqueue(L, p)) appends at the tail in O(1); a late straggler
// shifts the larger entries right.
func (q *Queue) Insert(p *pdu.PDU) {
	at := len(q.pdus)
	for at > q.head && q.pdus[at-1].SEQ > p.SEQ {
		at--
	}
	q.insertAt(at, p)
}

// insertAt places p at index at of the backing array, shifting the
// entries at or past it one slot right.
func (q *Queue) insertAt(at int, p *pdu.PDU) {
	q.pdus = append(q.pdus, nil)
	copy(q.pdus[at+1:], q.pdus[at:])
	q.pdus[at] = p
}

// Dequeue removes and returns the top PDU (the paper's dequeue(L)), or
// nil if the queue is empty.
func (q *Queue) Dequeue() *pdu.PDU {
	p, _ := q.pop()
	return p
}

// pop is Dequeue that also reports how many slots the remaining entries
// moved toward the front of the backing array (0 unless it compacted).
func (q *Queue) pop() (p *pdu.PDU, moved int) {
	if q.Len() == 0 {
		return nil, 0
	}
	p = q.pdus[q.head]
	q.pdus[q.head] = nil // release for GC
	q.head++
	if q.Len() == 0 {
		// Drained: rewind to the front of the backing array (every slot
		// behind head is already nil) so the head index cannot grow
		// without bound in enqueue/dequeue steady state.
		q.pdus = q.pdus[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.pdus) {
		moved = q.head
		n := copy(q.pdus, q.pdus[q.head:])
		clear(q.pdus[n:])
		q.pdus = q.pdus[:n]
		q.head = 0
	}
	return p, moved
}

// Log is the causality-preserved receipt sublog PRL: a Queue whose only
// insertion is InsertCPI. The zero value is an empty, ready-to-use log.
type Log struct {
	q Queue

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

	// lastPos[j] is the index (into q.pdus) of the most recently inserted
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
	l.q.Reserve(c)
	if n > len(l.lastPos) {
		old := len(l.lastPos)
		l.lastPos = append(l.lastPos, make([]int, n-old)...)
		for i := old; i < len(l.lastPos); i++ {
			l.lastPos[i] = -1
		}
	}
}

// Len returns the number of PDUs in the log.
func (l *Log) Len() int { return l.q.Len() }

// Top returns the first PDU (the paper's top(L)), or nil if empty.
func (l *Log) Top() *pdu.PDU { return l.q.Top() }

// Slice returns a copy of the log contents from top to last.
func (l *Log) Slice() []*pdu.PDU { return l.q.Slice() }

// Dequeue removes and returns the top PDU (the paper's dequeue(L)), or nil
// if the log is empty.
func (l *Log) Dequeue() *pdu.PDU {
	p, moved := l.q.pop()
	switch {
	case p == nil:
	case l.q.Len() == 0:
		l.resetBounds()
	case moved > 0:
		for j, h := range l.lastPos {
			if h >= moved {
				l.lastPos[j] = h - moved
			} else if h >= 0 {
				l.lastPos[j] = -1
			}
		}
	}
	return p
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
// predecessor of p, or the head when no valid hint exists. The first
// causal successor of p cannot sit at or before that predecessor (pred ≺
// p, so p ≺ q would make q a successor of pred placed before pred,
// breaking the causality-preserved invariant), so scanning may begin
// there.
func (l *Log) posHint(p *pdu.PDU) int {
	if int(p.Src) < len(l.lastPos) {
		if h := l.lastPos[p.Src]; h >= l.q.head && h < len(l.q.pdus) {
			if q := l.q.pdus[h]; q != nil && q.Src == p.Src && q.SEQ < p.SEQ {
				return h + 1
			}
		}
	}
	return l.q.head
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
	clear(l.maxAck)
	clear(l.maxSeq)
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
	pdus := l.q.pdus
	at := len(pdus)
	if !l.noSuccessorIn(p) {
		// The scan applies pdu.CausallyPrecedes(p, q) unrolled to the
		// one-directional Theorem 4.1 test: this loop runs once per
		// resident PDU and the full Compare would redundantly evaluate
		// q ≺ p too. It starts at the same-source position hint: entries
		// at or before p's latest resident predecessor cannot causally
		// follow p.
		src, seq := p.Src, p.SEQ
		for i := l.posHint(p); i < len(pdus); i++ {
			q := pdus[i]
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
	}
	displaced := len(pdus) - at
	l.q.insertAt(at, p)
	l.noteInsert(p)
	l.notePos(p, at, displaced != 0)
	return displaced
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
