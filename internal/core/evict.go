package core

// Entity-failure extension. The paper assumes all n entities stay up: a
// crashed or partitioned entity stops confirming, minAL/minPAL freeze,
// and no PDU in the whole cluster can ever be acknowledged again. This
// extension lets an entity be evicted from the confirmation quorum:
//
//   - evicted entities no longer participate in the minAL/minPAL
//     minimums, the flow-control buffer minimum, the deferred-
//     confirmation "heard from everyone" rule, or total-order stability;
//   - no retransmission requests are addressed to them;
//   - PDUs already accepted from them continue through the pipeline.
//
// Limitations (documented, inherent to the paper's source-only
// retransmission): eviction is NOT virtual synchrony. PDUs the evicted
// entity broadcast that some survivors lost can only be repaired by the
// evicted source itself, so a dependent delivery can stall at those
// survivors; and there is no rejoin — recovery of a crashed entity is a
// membership problem outside the paper's scope.
//
// Suspicion can be driven manually (Evict) or automatically: with
// Config.SuspectAfter > 0, an entity that has owed the cluster
// confirmations for that long without hearing anything from a peer
// evicts it. Quiescent peers are never suspected — silence is only
// suspicious while help is being asked for. Both take one path, evict,
// so an eviction has the same effects however it was decided.

import (
	"errors"
	"fmt"
	"time"

	"cobcast/internal/flight"
	"cobcast/internal/pdu"
)

// ErrSelfEvict is returned when an entity is asked to evict itself.
var ErrSelfEvict = errors.New("core: cannot evict self")

// Evict removes entity k from the confirmation quorum. It is idempotent.
// The returned output may contain deliveries unblocked by the shrunken
// quorum and fresh confirmation PDUs.
func (e *Entity) Evict(k pdu.EntityID, now time.Duration) (Output, error) {
	var out Output
	if k == e.me {
		return out, ErrSelfEvict
	}
	if k < 0 || int(k) >= e.n {
		return out, fmt.Errorf("%w: evict %d", ErrBadID, k)
	}
	if e.alive.Test(int(k)) {
		e.evict(int(k), now)
		// Re-evaluate everything that was waiting on k's confirmations.
		e.finish(now, &out)
	}
	return out, nil
}

// Evicted reports whether entity k, 0 ≤ k < N, has been evicted here.
func (e *Entity) Evicted(k pdu.EntityID) bool { return !e.alive.Test(int(k)) }

// evict is the one eviction path, manual (Evict) or suspected
// (maybeSuspect). It counts and records the eviction and voids the round
// probe (Karn's rule: the quorum the probe waits on just changed, so its
// sample would time the wait for k, not a round). It drops k from every
// quorum: k leaves the alive set, stops counting toward the
// deferred-confirmation rule and is no longer a RET candidate. Round-2
// coverage drops k's column too, so its unrepairable DATA cannot hold
// anyone uncovered. The quorum shrank, the one write that can move every
// cached minimum at once, so the minima are recomputed: the only
// full-recompute site.
func (e *Entity) evict(k int, now time.Duration) {
	e.stats.Evicted++
	e.fl(flight.EvEvict, e.me, 0, 0, pdu.EntityID(k), now)
	e.probeVoid = true
	e.alive.Clear(k)
	e.unheard.Clear(k)
	e.gapBits.Clear(k)
	e.uncovered.Clear(k)
	for j := 0; j < e.n; j++ {
		if e.uncovered.Test(j) {
			e.noteCoverage(j)
		}
	}
	e.refreshMinima()
}

// suspectTimeout returns the effective silence threshold: SuspectAfter
// normally, a quarter of it while the memory ledger is under pressure
// (≥ half budget). A stalled peer is the one failure that grows the logs
// without bound, so pressure justifies suspecting sooner, before the
// budget pins producers forever; pressure alone (SuspectAfter zero)
// never evicts anyone.
func (e *Entity) suspectTimeout() time.Duration {
	d := e.cfg.SuspectAfter
	if p := d / 4; p > 0 && e.cfg.Ledger != nil && e.cfg.Ledger.UnderPressure() {
		return p
	}
	return d
}

// maybeSuspect auto-evicts peers that stayed silent while we owed the
// cluster confirmations. Runs from Tick, whose finish re-evaluates what
// the evictions unblocked.
func (e *Entity) maybeSuspect(now time.Duration) {
	if e.cfg.SuspectAfter <= 0 || !e.owed {
		return
	}
	timeout := e.suspectTimeout()
	for j := 0; j < e.n; j++ {
		if j == int(e.me) || !e.alive.Test(j) {
			continue
		}
		// Silence only counts while help is being asked for: measure from
		// when the obligation arose if the peer was last heard before it
		// (or never).
		last := max(e.lastHeard[j], e.owedSince)
		if now-last < timeout {
			continue
		}
		e.stats.AutoSuspected++
		if now-last < e.cfg.SuspectAfter {
			// Only the shortened timer could have fired: a pressure-driven
			// eviction, not an ordinary suspicion.
			e.stats.PressureEvicted++
		}
		e.evict(j, now)
	}
}
