package core

import (
	"fmt"
	"time"

	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// Stall analyzer: for anything the entity is holding undelivered,
// report which protocol condition is unmet and which peer it is
// waiting on. Every stage of the pipeline has exactly one condition
// that can hold a PDU, so the analysis is a read-only walk of the
// stage heads:
//
//	parked        acceptance needs seq REQ[src] first (§4.2); the gap
//	              is being chased with RETs addressed to the source.
//	pack-wait     RRL head needs minAL[src] > SEQ (§4.4): some peer's
//	              AL column — its reported next-expected-from-src —
//	              has not passed the PDU yet.
//	ack-wait      PRL head needs minPAL[src] > SEQ (§4.5): some peer's
//	              confirmation of the pre-acknowledged prefix is
//	              missing.
//	commit-wait   acked head has an uncommitted causal dependency
//	              (a local ordering obligation, not a missing peer).
//	total-order-  TO release head is not yet stable: some source has
//	hold          not confirmed past its logical time (§2.3 extension).
//	flow-blocked  pending submits wait for the §4.2 flow condition.
//
// Like Snapshot, Stalls must run on the entity's owner goroutine; the
// returned slice is plain data.

// stallLimit bounds one report so a deeply wedged entity cannot turn a
// /statez scrape into a megabyte dump; each stage reports at most its
// head per source anyway, so n entities × n sources is the true cap.
const stallLimit = 32

func msgID(src pdu.EntityID, seq pdu.Seq) string {
	return fmt.Sprintf("s%d#%d", src, seq)
}

// Stalls reports every blocked pipeline head, at most max entries
// (max <= 0 selects the default cap). An empty result means nothing is
// waiting: every accepted PDU has been delivered and no submit is
// queued.
func (e *Entity) Stalls(now time.Duration, max int) []obsv.Stall {
	if max <= 0 {
		max = stallLimit
	}
	// A quiesced cluster legitimately retains its trailing SYNCs
	// unconfirmed forever (the deferred-confirmation rule stops the
	// chatter once nothing needs acknowledging), so stage occupancy
	// alone is not a stall. Only report when data is actually stuck:
	// an undelivered DATA PDU, a parked DATA, or a queued submit. The
	// SYNC heads reported below are then exactly the causal blockers
	// in front of that data.
	if e.dataResident == 0 && e.parkedData == 0 && len(e.pendingSubmits) == 0 {
		return nil
	}
	var out []obsv.Stall
	full := func() bool { return len(out) >= max }

	// Stage 1: parked — a per-source sequence gap awaiting repair.
	for j := 0; j < e.n && !full(); j++ {
		if len(e.parked[j]) == 0 {
			continue
		}
		src := pdu.EntityID(j)
		lo := pdu.Seq(0)
		first := true
		for s := range e.parked[j] {
			if first || s < lo {
				lo, first = s, false
			}
		}
		missing := e.req[j]
		st := obsv.Stall{
			Msg:       msgID(src, lo),
			Kind:      e.parked[j][lo].Kind.String(),
			Stage:     "parked",
			WaitingOn: []int{j},
		}
		verb := "no RET issued yet"
		if r := e.lastRetReq[j]; r.at != never {
			next := e.retDue(j) - now
			if next < 0 {
				next = 0
			}
			verb = fmt.Sprintf("RET outstanding for %v, %d retries, next due in %v",
				now-r.at, r.tries, next)
		}
		st.Reason = fmt.Sprintf(
			"acceptance needs %s first (gap of %d, %d parked behind it); %s",
			msgID(src, missing), lo-missing, len(e.parked[j]), verb)
		out = append(out, st)
	}

	// Stage 2: pack-wait — RRL heads below nobody's confirmation.
	for j := 0; j < e.n && !full(); j++ {
		p := e.rrl[j].Top()
		if p == nil {
			continue
		}
		// runPack drains heads with SEQ < minAL, so a resident head has
		// minAL[src] ≤ SEQ: find who is holding the minimum down.
		var waiting []int
		for k := 0; k < e.n; k++ {
			if k != j && e.alive.Test(k) && e.al[j][k] <= p.SEQ {
				waiting = append(waiting, k)
			}
		}
		out = append(out, obsv.Stall{
			Msg:   msgID(p.Src, p.SEQ),
			Kind:  p.Kind.String(),
			Stage: "pack-wait",
			Reason: fmt.Sprintf(
				"PACK needs minAL[%d] > %d, have %d: receipt confirmation (AL) missing from %d peer(s)",
				j, p.SEQ, e.minAL[j], len(waiting)),
			WaitingOn: waiting,
		})
	}

	// Stage 3: ack-wait — the PRL head's source prefix lacks PAL quorum.
	if p := e.prl.Top(); p != nil && !full() {
		j := int(p.Src)
		var waiting []int
		for k := 0; k < e.n; k++ {
			if k != j && e.alive.Test(k) && e.pal[j][k] <= p.SEQ {
				waiting = append(waiting, k)
			}
		}
		out = append(out, obsv.Stall{
			Msg:   msgID(p.Src, p.SEQ),
			Kind:  p.Kind.String(),
			Stage: "ack-wait",
			Reason: fmt.Sprintf(
				"ACK needs minPAL[%d] > %d, have %d: pre-acknowledgment (PAL) missing from %d peer(s)",
				j, p.SEQ, e.minPAL[j], len(waiting)),
			WaitingOn: waiting,
		})
	}

	// Stage 4: commit-wait — acked heads with an uncommitted dependency.
	for j := 0; j < e.n && !full(); j++ {
		p := e.ackedQ[j].Top()
		if p == nil {
			continue
		}
		k := e.missingDep(p)
		if k == e.n {
			continue
		}
		out = append(out, obsv.Stall{
			Msg:   msgID(p.Src, p.SEQ),
			Kind:  p.Kind.String(),
			Stage: "commit-wait",
			Reason: fmt.Sprintf(
				"causal dependency %s is not committed locally yet", msgID(pdu.EntityID(k), e.committed[k]+1)),
		})
	}

	// Stage 5: total-order hold — the TO release head is unstable.
	if e.to != nil && len(e.to.pending) > 0 && !full() {
		head := e.to.pending[0]
		var waiting []int
		for k := e.nextBlocker(head.key, 0); k < e.n; k = e.nextBlocker(head.key, k+1) {
			waiting = append(waiting, k)
		}
		out = append(out, obsv.Stall{
			Msg:   msgID(head.p.Src, head.p.SEQ),
			Kind:  head.p.Kind.String(),
			Stage: "total-order-hold",
			Reason: fmt.Sprintf(
				"logical time %d not yet stable: %d source(s) have not committed past it",
				head.key.lt, len(waiting)),
			WaitingOn: waiting,
		})
	}

	// Stage 6: flow-blocked submits — the §4.2 window is shut.
	if len(e.pendingSubmits) > 0 && !e.windowOpen() && !full() {
		st := obsv.Stall{
			Msg:   msgID(e.me, e.seq),
			Stage: "flow-blocked",
		}
		if credit := e.flowCredit(); e.seq >= e.minAL[e.me]+credit {
			var waiting []int
			for k := 0; k < e.n; k++ {
				if pdu.EntityID(k) != e.me && e.alive.Test(k) &&
					e.al[e.me][k] == e.minAL[e.me] {
					waiting = append(waiting, k)
				}
			}
			st.WaitingOn = waiting
			st.Reason = fmt.Sprintf(
				"flow condition shut: SEQ %d ≥ minAL %d + credit %d; %d submit(s) queued; slowest acknowledger(s) hold minAL",
				e.seq, e.minAL[e.me], credit, len(e.pendingSubmits))
		} else {
			st.Reason = fmt.Sprintf(
				"flow condition shut by buffer credit %d (min advertised BUF / H·2n); %d submit(s) queued",
				e.flowCredit(), len(e.pendingSubmits))
		}
		out = append(out, st)
	}

	return out
}
