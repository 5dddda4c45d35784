package core

// Bounded-memory extension. The paper's flow condition bounds in-flight
// *unacknowledged* PDUs (window W), but the receipt logs that make causal
// ordering work — parked repairs, RRL/PRL, the commit stage, the
// total-order release heap, the retransmission send log, and queued
// submissions — all grow with whatever the slowest peer has not yet
// confirmed. A Ledger puts a hard byte budget on that retained state:
// the entity (single-writer) charges and releases PDUs as they enter and
// leave its logs, and producers on other goroutines consult the ledger
// before submitting — blocking on the gate or shedding with a typed
// error once the budget is exhausted.
//
// The budget is deliberately enforced *pre-sequencing only*: a PDU that
// has been assigned a sequence number is never dropped, because every
// peer's REQ/AL bookkeeping already counts on it (Theorem 4.1 liveness).
// Backpressure instead stops new work from being sequenced, and the
// pressure signal (UnderPressure) shortens the suspicion timer so a
// stalled peer — the one thing that can pin the logs indefinitely — is
// evicted before the budget pins producers forever. See DESIGN.md §2j.

import (
	"sync"
	"sync/atomic"

	"cobcast/internal/pdu"
)

// ledgerPDUOverhead approximates the fixed per-PDU cost of a retained
// *pdu.PDU beyond its payload and ACK vector: the struct itself plus the
// log slot(s) holding the pointer. Exactness does not matter — the same
// constant is charged and released — only that the budget tracks real
// retention roughly linearly.
const ledgerPDUOverhead = 64

// Ledger tracks the bytes and PDUs retained by one entity's logs against
// a hard budget. The owner goroutine (the entity's) is the only writer;
// any goroutine may read the gauges or wait on the gate. One ledger per
// engine: every group entity under WithGroupShards gets its own, so
// budgets are per-group and writers never cross shard goroutines.
type Ledger struct {
	maxBytes int64
	bytes    atomic.Int64
	pdus     atomic.Int64
	blocked  atomic.Uint64
	shed     atomic.Uint64

	mu   sync.Mutex
	gate chan struct{} // closed while under budget; swapped fresh when over
}

// NewLedger creates a ledger with the given byte budget (must be > 0).
func NewLedger(maxBytes int64) *Ledger {
	l := &Ledger{maxBytes: maxBytes}
	l.gate = make(chan struct{})
	close(l.gate)
	return l
}

// pduCost is the ledger charge for one retained sequenced PDU.
func pduCost(dataLen, ackLen int) int64 {
	return ledgerPDUOverhead + int64(dataLen) + 8*int64(ackLen)
}

// add applies a delta from the owner goroutine. Crossing detection is
// exact because there is a single writer: transitions strictly alternate
// over↔under, so the gate swap/close below cannot double-close.
func (l *Ledger) add(dBytes, dPDUs int64) {
	if dPDUs != 0 {
		l.pdus.Add(dPDUs)
	}
	nb := l.bytes.Add(dBytes)
	over, wasOver := nb >= l.maxBytes, nb-dBytes >= l.maxBytes
	if over == wasOver {
		return
	}
	l.mu.Lock()
	if over {
		l.gate = make(chan struct{})
	} else {
		close(l.gate)
	}
	l.mu.Unlock()
}

// OverBudget reports whether retained bytes have reached the budget.
// Safe from any goroutine.
func (l *Ledger) OverBudget() bool { return l.bytes.Load() >= l.maxBytes }

// UnderPressure reports whether retained bytes have reached half the
// budget — the threshold at which the entity starts suspecting stalled
// peers on a quarter of the suspicion timeout.
func (l *Ledger) UnderPressure() bool { return l.bytes.Load()*2 >= l.maxBytes }

// Gate returns a channel that is closed while the ledger is under
// budget. Blocked producers select on it; after it fires they must
// re-check OverBudget and grab a fresh gate (the budget may have been
// re-exhausted in between).
func (l *Ledger) Gate() <-chan struct{} {
	l.mu.Lock()
	g := l.gate
	l.mu.Unlock()
	return g
}

// NoteBlock and NoteShed count producer-side backpressure outcomes; the
// producers (Broadcast callers) invoke them, not the entity.
func (l *Ledger) NoteBlock() { l.blocked.Add(1) }
func (l *Ledger) NoteShed()  { l.shed.Add(1) }

// Gauge accessors, safe from any goroutine.
func (l *Ledger) Bytes() int64    { return l.bytes.Load() }
func (l *Ledger) PDUs() int64     { return l.pdus.Load() }
func (l *Ledger) Budget() int64   { return l.maxBytes }
func (l *Ledger) Blocked() uint64 { return l.blocked.Load() }
func (l *Ledger) Shed() uint64    { return l.shed.Load() }

// --- Entity-side accounting (owner goroutine only) ---
//
// Every retention site charges on entry and releases on exit, so the
// ledger is the sum over sites and returns to zero when the logs drain:
//
//	pendingSubmits  [][]byte          chargeSubmit (Submit) / releaseSubmit (drainSubmits)
//	parked          map per source    chargePDU (park) / releasePDU (unpark)
//	rrl→prl→ackedQ  Queue→Log→Queue   chargePDU (accept) / releasePDU (commit dequeue)
//	to.pending      heap              chargePDU (onCommitTotal) / releasePDU (releaseTotal)
//	sendlog         slice by SEQ      chargePDU (broadcastSequenced) / releasePDU (trimSendLog)
//
// Own PDUs sit in both the send log and the receive pipeline; they are
// charged twice and released twice — symmetric, so still exact. All
// helpers are no-ops (one untaken branch) without a configured ledger.

func (e *Entity) chargePDU(p *pdu.PDU) {
	if l := e.cfg.Ledger; l != nil {
		l.add(pduCost(len(p.Data), len(p.ACK)), 1)
	}
}

func (e *Entity) releasePDU(p *pdu.PDU) {
	if l := e.cfg.Ledger; l != nil {
		l.add(-pduCost(len(p.Data), len(p.ACK)), -1)
	}
}

// chargeSubmit / releaseSubmit account one queued application payload.
func (e *Entity) chargeSubmit(n int) {
	if l := e.cfg.Ledger; l != nil {
		l.add(ledgerPDUOverhead+int64(n), 1)
	}
}

func (e *Entity) releaseSubmit(n int) {
	if l := e.cfg.Ledger; l != nil {
		l.add(-(ledgerPDUOverhead + int64(n)), -1)
	}
}
