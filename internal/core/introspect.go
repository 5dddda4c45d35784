package core

import (
	"strconv"
	"time"

	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// micros converts a duration to whole microseconds for the histograms,
// clamping negatives (defensive: callers pass non-decreasing nows).
func micros(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

// observeDeliverLatency feeds the broadcast→deliver histogram for this
// entity's own DATA PDUs. No-op unless metrics are attached and the
// PDU is a locally submitted DATA.
func (e *Entity) observeDeliverLatency(p *pdu.PDU, now time.Duration) {
	if e.m == nil || p.Src != e.me || p.Kind != pdu.KindData {
		return
	}
	if t, ok := e.sentAt.pop(); ok {
		e.m.DeliverLatencyUS.Observe(micros(now - t))
	}
}

// Snapshot copies the entity's live protocol state for /statez and the
// depth gauges. Like every other method it must run on the entity's
// owner goroutine (its shard runs snapshot requests between
// inputs; the sim takes them between virtual-time steps); the returned
// value is plain data, safe to hand to any goroutine.
func (e *Entity) Snapshot() obsv.StateSnapshot {
	var s obsv.StateSnapshot
	e.SnapshotInto(&s)
	return s
}

// growU64 resizes sl to n entries, reusing its capacity.
func growU64(sl []uint64, n int) []uint64 {
	if cap(sl) < n {
		return make([]uint64, n)
	}
	return sl[:n]
}

// SnapshotInto is Snapshot writing into a caller-owned value, reusing
// the capacity of its five O(n) slices: a scraper that keeps one
// scratch snapshot per node pays zero allocations per scrape instead
// of five. dst is completely overwritten; the caller must not hand the
// filled value to another goroutine and keep scraping into it.
func (e *Entity) SnapshotInto(s *obsv.StateSnapshot) {
	if e.label == "" {
		e.label = strconv.Itoa(int(e.me))
	}
	rrl := s.RRL
	if cap(rrl) < e.n {
		rrl = make([]int, e.n)
	} else {
		rrl = rrl[:e.n]
	}
	*s = obsv.StateSnapshot{
		Node:           e.label,
		Seq:            uint64(e.seq),
		REQ:            growU64(s.REQ, e.n),
		MinAL:          growU64(s.MinAL, e.n),
		MinPAL:         growU64(s.MinPAL, e.n),
		Committed:      growU64(s.Committed, e.n),
		RRL:            rrl,
		PRL:            e.prl.Len(),
		ARL:            e.ackedTotal,
		Parked:         e.parkedTotal,
		SendLog:        e.sendlog.len(),
		PendingSubmits: len(e.pendingSubmits),
		BufFree:        e.availBuf(),
		BufUnits:       BufferUnits,
		RoundUS:        e.srtt.Microseconds(),
		RetryAfterUS:   e.retryAfter().Microseconds(),
		LateAfterUS:    e.lateAfter().Microseconds(),
		ParkedData:     e.parkedData,
		DataResident:   e.dataResident,
		Quiescent:      e.Quiescent(),
		Counters:       e.stats,
	}
	for i := 0; i < e.sendlog.len(); i++ {
		if e.sendlog.at(i).p.Kind == pdu.KindData {
			s.SendLogData++
		}
	}
	if e.to != nil {
		s.ReleasePending = len(e.to.pending)
	}
	if l := e.cfg.Ledger; l != nil {
		s.LedgerBytes = l.Bytes()
		s.LedgerPDUs = l.PDUs()
		s.LedgerBudget = l.Budget()
		s.BackpressureBlocked = l.Blocked()
		s.BackpressureShed = l.Shed()
	}
	for k := 0; k < e.n; k++ {
		s.REQ[k] = uint64(e.req[k])
		s.MinAL[k] = uint64(e.minAL[k])
		s.MinPAL[k] = uint64(e.minPAL[k])
		s.Committed[k] = uint64(e.committed[k])
		s.RRL[k] = e.rrl[k].Len()
	}
}
