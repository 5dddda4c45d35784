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
// Config.TotalOrder is set. It rests on the honest-sender contract
// (DESIGN.md §2): a commit's own ACK entry names its predecessor, and one
// source's vectors never decrease.
type toState struct {
	// ltimes[k] holds the logical times of committed PDUs from source k,
	// starting at sequence base[k].
	ltimes []fifo[uint64]
	base   []pdu.Seq
	// lastKey[j] and lastVec[j] are the key and the ACK vector of the
	// newest committed PDU from j: a zero key and the all-ones vector
	// until j commits something here. A zero key sorts below every real
	// key (logical times start at 1), so j blocks every release until
	// then, and the all-ones vector keeps every logical time.
	lastKey []toKey
	lastVec [][]pdu.Seq
	// pending holds the committed DATA awaiting stable release, a binary
	// min-heap by key.
	pending []toItem
}

// toItem is one pending total-order release.
type toItem struct {
	key toKey
	p   *pdu.PDU
}

// ltimePruneThreshold bounds the per-source logical-time history before a
// pruning pass runs; a variable so white-box tests can exercise pruning
// without committing thousands of PDUs.
var ltimePruneThreshold = 8192

func newTOState(n int) *toState {
	s := &toState{
		ltimes:  make([]fifo[uint64], n),
		base:    make([]pdu.Seq, n),
		lastKey: make([]toKey, n),
		lastVec: make([][]pdu.Seq, n),
	}
	ones := make([]pdu.Seq, n)
	for k := range s.base {
		ones[k] = 1
		s.base[k] = 1
		s.lastVec[k] = ones
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
	return *s.ltimes[k].at(int(seq - s.base[k]))
}

// onCommitTotal computes and records the logical time of a freshly
// committed sequenced PDU, and queues DATA for stable release. Every
// dependency ACK[k]-1 has committed (missingDep); the own entry is
// the predecessor, SEQ-1, by clause 1 of the contract.
func (e *Entity) onCommitTotal(p *pdu.PDU) {
	s := e.to
	var lt uint64
	for k, dep := range p.ACK {
		if dep >= 2 {
			lt = max(lt, s.ltimeOf(pdu.EntityID(k), dep-1))
		}
	}
	lt++
	if next := s.base[p.Src] + pdu.Seq(s.ltimes[p.Src].len()); p.SEQ != next {
		panic(fmt.Sprintf("core: out-of-order commit s%d#%d (next %d)", p.Src, p.SEQ, next))
	}
	s.ltimes[p.Src].push(lt)
	key := toKey{lt: lt, src: p.Src, seq: p.SEQ}
	s.lastKey[p.Src], s.lastVec[p.Src] = key, p.ACK
	if p.Kind == pdu.KindData {
		s.push(toItem{key: key, p: p})
		e.chargePDU(p)
	}
	if s.ltimes[p.Src].len() > ltimePruneThreshold {
		e.pruneLTimes()
	}
}

// releaseTotal delivers every stable pending PDU in key order. A key is
// stable once every other live source has committed beyond it.
func (e *Entity) releaseTotal(now time.Duration, out *Output) {
	s := e.to
	for len(s.pending) > 0 && e.nextBlocker(s.pending[0].key, 0) == e.n {
		it := s.pop()
		e.releasePDU(it.p)
		e.deliver(it.p, it.key.lt, now, out)
	}
}

// push adds it to the pending heap.
func (s *toState) push(it toItem) {
	h := append(s.pending, it)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].key.less(h[up].key) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	s.pending = h
}

// pop removes and returns the least pending item.
func (s *toState) pop() toItem {
	h := s.pending
	top, last := h[0], len(h)-1
	h[0], h[last] = h[last], toItem{}
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].key.less(h[c].key) {
			c++
		}
		if !h[c].key.less(h[i].key) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.pending = h
	return top
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
// A commit references (k, ACK[k]-1) for every k. Commits from one source
// come in SEQ order and its vectors never decrease (clause 2), so every
// future commit from j names a vector no lower than lastVec[j]; the
// lowest referable entry of k is the minimum over j of lastVec[j][k],
// minus one. For j = k that entry is committed[k] (clause 1), so the
// floor never passes what has been recorded.
func (e *Entity) pruneLTimes() {
	s := e.to
	for k := 0; k < e.n; k++ {
		floor := s.lastVec[0][k]
		for _, v := range s.lastVec[1:] {
			floor = min(floor, v[k])
		}
		for ; s.base[k]+1 < floor; s.base[k]++ {
			s.ltimes[k].pop()
		}
	}
}
