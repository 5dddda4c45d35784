package core

// Total-order extension (TO service, §2.3 of the paper). The paper's
// taxonomy has three service levels — LO ⊂ CO ⊂ TO — and its authors'
// other protocols provide TO directly on a one-channel network. This
// extension derives the TO service from the CO machinery instead:
//
//   - Every committed sequenced PDU gets a logical time
//     ltime(p) = 1 + max over k of ltime((k, p.ACK[k]-1)),
//     a Lamport-style clock over the PDU's causal dependencies. The
//     commit stage guarantees dependencies commit first, and ltime is a
//     deterministic function of the (identical) per-source committed
//     sequences, so every entity computes identical values.
//   - DATA PDUs are released to the application in (ltime, src, seq)
//     order once *stable*: a PDU m is released when every other source
//     has committed something with a larger key, so nothing that could
//     sort before m can still commit. Keys grow strictly per source.
//     The two confirmation rounds commit the DATA but not the rounds'
//     own SYNCs, so an entity holding a release keeps confirming on
//     every all-heard (confirmDue): each such round commits the SYNCs
//     of the one before, and release is live.
//
// The result: all entities deliver the identical sequence, which is also
// causality-preserving (p ≺ q ⇒ ltime(p) < ltime(q)).

import (
	"container/heap"
	"fmt"
	"time"

	"cobcast/internal/pdu"
)

// toKey is the total-order sort key. Keys are unique ((src,seq) is) and
// strictly increasing per source.
type toKey struct {
	lt  uint64
	src pdu.EntityID
	seq pdu.Seq
}

func (a toKey) less(b toKey) bool {
	if a.lt != b.lt {
		return a.lt < b.lt
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// toState is the per-entity total-order machinery, allocated only when
// Config.TotalOrder is set.
type toState struct {
	// ltimes[k] holds the logical times of committed PDUs from source k,
	// starting at sequence base[k].
	ltimes [][]uint64
	base   []pdu.Seq
	// lastKey[j] is the key of the newest committed PDU from source j:
	// zero until j commits something here, which sorts below every real
	// key (logical times start at 1), so j blocks every release until then.
	lastKey []toKey
	// pending holds committed DATA PDUs awaiting stable release.
	pending toHeap
}

// ltimePruneThreshold bounds the per-source logical-time history before a
// pruning pass runs; a variable so white-box tests can exercise pruning
// without committing thousands of PDUs.
var ltimePruneThreshold = 8192

func newTOState(n int) *toState {
	s := &toState{
		ltimes:  make([][]uint64, n),
		base:    make([]pdu.Seq, n),
		lastKey: make([]toKey, n),
	}
	for k := range s.base {
		s.base[k] = 1
	}
	return s
}

// ltimeOf returns the logical time of committed PDU (k, seq).
func (s *toState) ltimeOf(k pdu.EntityID, seq pdu.Seq) uint64 {
	if seq < s.base[k] {
		// The pruning floor guarantees referenced entries are retained;
		// reaching here is an implementation bug, not a runtime input.
		panic(fmt.Sprintf("core: ltime of s%d#%d pruned (base %d)", k, seq, s.base[k]))
	}
	idx := int(seq - s.base[k])
	return s.ltimes[k][idx]
}

// onCommitTotal computes and records the logical time of a freshly
// committed sequenced PDU, and queues DATA for stable release. Its own
// source's dependency is its predecessor, SEQ-1, which is what the
// ACK entry of an honest sender names and all the commit stage checks:
// an entry claiming more would name a PDU that has not committed.
func (e *Entity) onCommitTotal(p *pdu.PDU) {
	s := e.to
	var lt uint64
	for k := 0; k < e.n; k++ {
		dep := p.ACK[k]
		if pdu.EntityID(k) == p.Src {
			dep = p.SEQ
		}
		if dep >= 2 {
			if v := s.ltimeOf(pdu.EntityID(k), dep-1); v > lt {
				lt = v
			}
		}
	}
	lt++
	if p.SEQ != s.base[p.Src]+pdu.Seq(len(s.ltimes[p.Src])) {
		panic(fmt.Sprintf("core: out-of-order commit s%d#%d (next %d)",
			p.Src, p.SEQ, s.base[p.Src]+pdu.Seq(len(s.ltimes[p.Src]))))
	}
	s.ltimes[p.Src] = append(s.ltimes[p.Src], lt)
	key := toKey{lt: lt, src: p.Src, seq: p.SEQ}
	s.lastKey[p.Src] = key
	if p.Kind == pdu.KindData {
		heap.Push(&s.pending, toItem{key: key, p: p})
		e.chargePDU(p)
	}
	if len(s.ltimes[p.Src]) > ltimePruneThreshold {
		e.pruneLTimes()
	}
}

// releaseTotal delivers every stable pending PDU in key order. A key is
// stable once every other live source has committed beyond it.
func (e *Entity) releaseTotal(now time.Duration, out *Output) {
	s := e.to
	for s.pending.Len() > 0 {
		head := s.pending[0]
		if e.nextBlocker(head.key, 0) < e.n {
			return
		}
		heap.Pop(&s.pending)
		e.releasePDU(head.p)
		e.deliver(head.p, head.key.lt, now, out)
	}
}

// nextBlocker returns the first live source from j on that blocks the
// release of key: one other than key's own that has not committed
// beyond it. It returns n when none does, so key is stable once
// nextBlocker(key, 0) == n, and the blockers are listed by restarting
// from each one plus one.
func (e *Entity) nextBlocker(key toKey, j int) int {
	for ; j < e.n; j++ {
		if pdu.EntityID(j) != key.src && e.alive.Test(j) && !key.less(e.to.lastKey[j]) {
			return j
		}
	}
	return e.n
}

// pruneLTimes drops logical-time entries no future commit can reference.
// A future commit is either a resident PDU (its ACK vector is known) or a
// not-yet-accepted PDU from source j, whose ACK[k] is at least the ACK[k]
// of the newest accepted PDU from j (ACK vectors are monotone per
// source); the next commit from k references k's committed frontier,
// and our own future submissions at least REQ, which is not below it.
// The floor is the minimum over all of these, minus one (references are
// ACK[k]-1).
func (e *Entity) pruneLTimes() {
	s := e.to
	floor := make([]pdu.Seq, e.n)
	for k := 0; k < e.n; k++ {
		floor[k] = e.committed[k] + 1
	}
	consider := func(ack []pdu.Seq) {
		for k := 0; k < e.n; k++ {
			if ack[k] < floor[k] {
				floor[k] = ack[k]
			}
		}
	}
	for j := 0; j < e.n; j++ {
		// Nothing accepted from j yet leaves the all-ones vector: its
		// future PDUs may reference anything, so everything is kept.
		consider(e.lastACK[j])
	}
	for k := 0; k < e.n; k++ {
		for i := 0; i < e.rrl[k].Len(); i++ {
			consider(e.rrl[k].At(i).ACK)
		}
		for _, p := range e.parked[k] {
			consider(p.ACK)
		}
	}
	for _, p := range e.prl.Slice() {
		consider(p.ACK)
	}
	for k := 0; k < e.n; k++ {
		for i := 0; i < e.ackedQ[k].Len(); i++ {
			consider(e.ackedQ[k].At(i).ACK)
		}
	}
	for k := 0; k < e.n; k++ {
		// Keep entries with seq >= floor[k]-1 (references are ACK-1),
		// and never prune beyond what has been recorded.
		keepFrom := floor[k]
		if keepFrom >= 1 {
			keepFrom--
		}
		if keepFrom <= s.base[k] {
			continue
		}
		drop := int(keepFrom - s.base[k])
		if drop > len(s.ltimes[k]) {
			drop = len(s.ltimes[k])
		}
		s.ltimes[k] = append([]uint64(nil), s.ltimes[k][drop:]...)
		s.base[k] += pdu.Seq(drop)
	}
}

// toItem is one pending total-order release.
type toItem struct {
	key toKey
	p   *pdu.PDU
}

type toHeap []toItem

func (h toHeap) Len() int           { return len(h) }
func (h toHeap) Less(i, j int) bool { return h[i].key.less(h[j].key) }
func (h toHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *toHeap) Push(x any)        { *h = append(*h, x.(toItem)) }
func (h *toHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = toItem{}
	*h = old[:n-1]
	return it
}
