package core

// White-box invariant checks. A cluster of entities is driven through a
// random but causally consistent schedule (submissions, per-sender-order
// deliveries with loss and duplication, ticks), and after every single
// step each entity's internal state is checked against the protocol's
// structural invariants.

import (
	"math/rand"
	"testing"
	"time"

	"cobcast/internal/msglog"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// checkInvariants asserts the structural invariants of one entity.
func checkInvariants(t *testing.T, e *Entity, step int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d entity %d: "+format, append([]any{step, e.me}, args...)...)
	}

	// SEQ is always one past the last self-accepted PDU.
	if e.req[e.me] != e.seq {
		fail("req[self]=%d != seq=%d", e.req[e.me], e.seq)
	}
	for k := 0; k < e.n; k++ {
		// Own AL column is exactly REQ (direct knowledge).
		if e.al[k][e.me] != e.req[k] {
			fail("al[%d][self]=%d != req=%d", k, e.al[k][e.me], e.req[k])
		}
		// known is at least REQ (we know what we accepted).
		if e.known[k] < e.req[k] {
			fail("known[%d]=%d < req=%d", k, e.known[k], e.req[k])
		}
		for j := 0; j < e.n; j++ {
			// PAL folds a subset of AL's folds: PAL ≤ AL pointwise.
			if e.pal[k][j] > e.al[k][j] {
				fail("pal[%d][%d]=%d > al=%d", k, j, e.pal[k][j], e.al[k][j])
			}
			// Nobody can expect more from k than k has sent — and we can
			// only know as much as we have seen.
			if e.al[k][j] < 1 {
				fail("al[%d][%d]=%d < 1", k, j, e.al[k][j])
			}
		}
		// Committed never outruns the pre-acknowledgment pipeline:
		// commit requires ack requires preack requires acceptance.
		if e.committed[k] >= e.req[k] {
			fail("committed[%d]=%d >= req=%d", k, e.committed[k], e.req[k])
		}
		// RRL holds a contiguous run ending at req-1.
		if l := e.rrl[k].Len(); l > 0 {
			last := e.rrl[k].At(l - 1)
			if last.SEQ != e.req[k]-1 {
				fail("rrl[%d] tail seq %d, want %d", k, last.SEQ, e.req[k]-1)
			}
			for i := 1; i < l; i++ {
				if e.rrl[k].At(i).SEQ != e.rrl[k].At(i-1).SEQ+1 {
					fail("rrl[%d] not contiguous at %d", k, i)
				}
			}
			// Everything still in RRL is at or above the PACK threshold.
			if top := e.rrl[k].Top(); top.SEQ < e.minAL[k] {
				fail("rrl[%d] top %d below minAL %d (pack not drained)",
					k, top.SEQ, e.minAL[k])
			}
		}
		// Parked PDUs are strictly beyond REQ.
		for s := range e.parked[k] {
			if s < e.req[k] {
				fail("parked[%d] holds stale seq %d < req %d", k, s, e.req[k])
			}
		}
	}
	// Cached quorum minima always equal a from-scratch recomputation
	// (the equivalence invariant pinning the incremental-minima scheme),
	// and the cached holder counts match the matrices.
	for k := 0; k < e.n; k++ {
		if want := e.quorumMin(e.al[k]); e.minAL[k] != want {
			fail("cached minAL[%d]=%d != quorumMin=%d", k, e.minAL[k], want)
		}
		if want := e.quorumMin(e.pal[k]); e.minPAL[k] != want {
			fail("cached minPAL[%d]=%d != quorumMin=%d", k, e.minPAL[k], want)
		}
		alCnt, palCnt := 0, 0
		for j := 0; j < e.n; j++ {
			if !e.alive.Test(j) {
				continue
			}
			if e.al[k][j] == e.minAL[k] {
				alCnt++
			}
			if e.pal[k][j] == e.minPAL[k] {
				palCnt++
			}
		}
		if alCnt != e.minALCnt[k] {
			fail("minALCnt[%d]=%d, %d cells at minimum", k, e.minALCnt[k], alCnt)
		}
		if palCnt != e.minPALCnt[k] {
			fail("minPALCnt[%d]=%d, %d cells at minimum", k, e.minPALCnt[k], palCnt)
		}
	}
	// The commit stage holds, per source, acknowledged PDUs sorted by
	// SEQ, all above the committed frontier. Gaps are legal: the
	// Theorem 4.1 test is not transitive under loss, so a successor can
	// pass the ACK condition before a still-missing predecessor.
	for k := 0; k < e.n; k++ {
		prev := e.committed[k]
		for i := 0; i < e.ackedQ[k].Len(); i++ {
			p := e.ackedQ[k].At(i)
			if p.Src != pdu.EntityID(k) {
				fail("ackedQ[%d] holds foreign PDU %v", k, p)
			}
			if p.SEQ <= prev {
				fail("ackedQ[%d][%d] seq %d not above %d", k, i, p.SEQ, prev)
			}
			prev = p.SEQ
		}
	}
	// The send log holds exactly our own SEQs [sendLo, seq), in order:
	// the own PDUs not yet pre-acknowledged, which is our own RRL.
	if lo := e.seq - pdu.Seq(e.rrl[e.me].Len()); e.sendLo != lo {
		fail("sendLo=%d, own RRL starts at %d", e.sendLo, lo)
	}
	if got, want := e.sendlog.len(), int(e.seq-e.sendLo); got != want {
		fail("sendlog holds %d PDUs, want %d for [%d,%d)", got, want, e.sendLo, e.seq)
	}
	for i := 0; i < e.sendlog.len(); i++ {
		if p := e.sendlog.at(i).p; p.Src != e.me || p.SEQ != e.sendLo+pdu.Seq(i) {
			fail("sendlog[%d] holds %v, want own SEQ %d", i, p, e.sendLo+pdu.Seq(i))
		}
	}
	// Cached counters agree with the structures they cache.
	parkedTotal := 0
	for k := 0; k < e.n; k++ {
		parkedTotal += len(e.parked[k])
	}
	if parkedTotal != e.parkedTotal {
		fail("parkedTotal cache %d != %d", e.parkedTotal, parkedTotal)
	}
	rrlTotal := 0
	for k := 0; k < e.n; k++ {
		rrlTotal += e.rrl[k].Len()
	}
	if rrlTotal != e.rrlTotal {
		fail("rrlTotal cache %d != %d", e.rrlTotal, rrlTotal)
	}
	toPending := 0
	if e.to != nil {
		toPending = e.to.pending.Len()
		// Logical times per source are contiguous with commits.
		for k := 0; k < e.n; k++ {
			if got := e.to.base[k] + pdu.Seq(len(e.to.ltimes[k])); got != e.committed[k]+1 {
				fail("ltime history for %d covers to %d, committed %d", k, got-1, e.committed[k])
			}
		}
	}
	ackedTotal := 0
	for k := 0; k < e.n; k++ {
		ackedTotal += e.ackedQ[k].Len()
	}
	if ackedTotal != e.ackedTotal {
		fail("ackedTotal cache %d != %d", e.ackedTotal, ackedTotal)
	}
	if e.Resident() != parkedTotal+rrlTotal+e.prl.Len()+ackedTotal+toPending {
		fail("Resident() inconsistent")
	}
	// The ledger is exactly the sum over the retention sites (ledger.go):
	// own PDUs count twice (send log and receive pipeline), a pack is
	// one PDU of its packed size, a queued submission one payload.
	if l := e.cfg.Ledger; l != nil {
		var bytes, pdus int64
		add := func(p *pdu.PDU) {
			bytes += pduCost(len(p.Data), len(p.ACK))
			pdus++
		}
		for _, m := range e.pendingSubmits {
			bytes += ledgerPDUOverhead + int64(len(m))
			pdus++
		}
		for k := 0; k < e.n; k++ {
			for _, p := range e.parked[k] {
				add(p)
			}
			for i := 0; i < e.rrl[k].Len(); i++ {
				add(e.rrl[k].At(i))
			}
			for i := 0; i < e.ackedQ[k].Len(); i++ {
				add(e.ackedQ[k].At(i))
			}
		}
		for _, p := range e.prl.Slice() {
			add(p)
		}
		if e.to != nil {
			for _, it := range e.to.pending {
				add(it.p)
			}
		}
		for i := 0; i < e.sendlog.len(); i++ {
			add(e.sendlog.at(i).p)
		}
		if l.Bytes() != bytes || l.PDUs() != pdus {
			fail("ledger holds %d B / %d PDUs, the logs retain %d B / %d PDUs", l.Bytes(), l.PDUs(), bytes, pdus)
		}
	}
	// The bitmaps always mirror the dense state they cache.
	for k := 0; k < e.n; k++ {
		gap := k != int(e.me) && e.alive.Test(k) && e.known[k] > e.req[k]
		if got := e.gapBits.Test(k); got != gap {
			fail("gapBits[%d]=%v, known=%d req=%d alive=%v",
				k, got, e.known[k], e.req[k], e.alive.Test(k))
		}
		if got, want := e.ackedBits.Test(k), e.ackedQ[k].Len() > 0; got != want {
			fail("ackedBits[%d]=%v, ackedQ len %d", k, got, e.ackedQ[k].Len())
		}
		// unheard only ever marks live peers (never self, never evicted).
		if e.unheard.Test(k) && (k == int(e.me) || !e.alive.Test(k)) {
			fail("unheard[%d] set for self/evicted", k)
		}
		// uncovered marks exactly the live peers whose newest accepted
		// vector trails the newest accepted DATA in some live column other
		// than the peer's own, which that vector's PDU covers by itself.
		uncovered := false
		for c := 0; c < e.n && k != int(e.me) && e.alive.Test(k); c++ {
			uncovered = uncovered || c != k && e.alive.Test(c) && e.lastACK[k][c] <= e.dataHi[c]
		}
		if got := e.uncovered.Test(k); got != uncovered {
			fail("uncovered[%d]=%v, want %v (lastACK %v, dataHi %v)", k, got, uncovered, e.lastACK[k], e.dataHi)
		}
	}
	if e.rounds < 0 || e.rounds > 2 {
		fail("rounds=%d", e.rounds)
	}
	if !e.alive.Test(int(e.me)) {
		fail("self evicted")
	}
}

// quorumMin is the from-scratch minimum of row over the alive columns:
// the reference the cached minima (minAL, minPAL) are checked against.
func (e *Entity) quorumMin(row []pdu.Seq) pdu.Seq {
	m := pdu.Seq(0)
	first := true
	for j := 0; j < e.n; j++ {
		if !e.alive.Test(j) {
			continue
		}
		if first || row[j] < m {
			m = row[j]
			first = false
		}
	}
	return m
}

// checkPRLCausal asserts the PRL is causality-preserved under the
// Theorem 4.1 relation. Kept apart from checkInvariants because it is
// best-effort, not an invariant: under loss the pairwise relation is not
// transitive (commitReady's comment), and a schedule of long backlogs
// with loss — pack_test.go's — reaches PRLs the commit stage has to
// repair. The unbatched walks below stay inside what CPI alone keeps
// ordered; some of the batched walk's schedules do not, so it checks
// invariants only.
func checkPRLCausal(t *testing.T, e *Entity, step int) {
	t.Helper()
	if prl := e.prl.Slice(); !msglog.IsCausalityPreserved(prl) {
		t.Fatalf("step %d entity %d: PRL not causality-preserved: %v", step, e.me, prl)
	}
}

// TestInvariantsRandomWalk drives random schedules and checks invariants
// after every step, in both CO and TO modes, with occasional evictions.
func TestInvariantsRandomWalk(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		randomWalk(t, seed, false)
	}
}

// TestInvariantsRandomWalkBatched is the random walk with input batches:
// an entity holds its confirmation over a random run of its inputs, as a
// shard does over one step's, and every PDU it stages goes out in order.
func TestInvariantsRandomWalkBatched(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		randomWalk(t, seed, true)
	}
}

// randomWalk runs one seed of the invariant walk; with batched set, each
// input may open a batch on its entity, and each step may close one.
func randomWalk(t *testing.T, seed int64, batched bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	totalOrder := seed%3 == 0
	allowEvict := n > 2 && seed%4 == 0
	ents := make([]*Entity, n)
	for i := range ents {
		e, err := New(Config{
			ID: pdu.EntityID(i), N: n,
			Window:              pdu.Seq(1 + rng.Intn(6)),
			DeferredAckInterval: time.Millisecond,
			RetransmitTimeout:   2 * time.Millisecond,
			TotalOrder:          totalOrder,
			Ledger:              NewLedger(1 << 30),
			Metrics:             obsv.NewEntityMetrics(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = e
	}
	// Per-channel FIFO queues (the MC service), with loss and
	// duplication applied at dequeue.
	queues := make([][]*pdu.PDU, n*n) // queues[from*n+to]
	now := time.Duration(0)
	ownDelivered := make([]uint64, n) // own DATA PDUs each entity delivered
	route := func(from int, out Output) {
		for _, p := range out.PDUs {
			for to := 0; to < n; to++ {
				if to != from {
					queues[from*n+to] = append(queues[from*n+to], p.Clone())
				}
			}
		}
		for _, d := range out.Deliveries {
			if d.Src == pdu.EntityID(from) && d.Index == 0 {
				ownDelivered[from]++
			}
		}
	}
	// check runs checkInvariants plus what needs the walk's count: sentAt
	// pairs each own DATA delivery with its send time by position, so it
	// holds one entry per own DATA sent and not yet delivered.
	check := func(i, step int) {
		t.Helper()
		e := ents[i]
		checkInvariants(t, e, step)
		if got, want := e.sentAt.len(), e.stats.DataSent-ownDelivered[i]; uint64(got) != want {
			t.Fatalf("seed %d step %d entity %d: sentAt holds %d send times, %d own DATA undelivered", seed, step, i, got, want)
		}
	}
	const steps = 400
	for step := 0; step < steps; step++ {
		now += time.Duration(rng.Intn(500)) * time.Microsecond
		i := rng.Intn(n)
		if batched {
			if rng.Intn(2) == 0 {
				ents[i].Hold()
			}
			if j := rng.Intn(n); rng.Intn(3) == 0 {
				route(j, ents[j].Release(now))
				check(j, step)
			}
		}
		switch rng.Intn(10) {
		case 0, 1: // submit
			route(i, ents[i].Submit([]byte{byte(step)}, now))
		case 2: // tick
			route(i, ents[i].Tick(now))
			// Occasionally evict the last entity at everyone.
			if allowEvict && step > 300 && !ents[i].Evicted(pdu.EntityID(n-1)) &&
				pdu.EntityID(i) != pdu.EntityID(n-1) {
				out, err := ents[i].Evict(pdu.EntityID(n-1), now)
				if err != nil {
					t.Fatal(err)
				}
				route(i, out)
			}
		default: // deliver the head of a random incoming channel
			from := rng.Intn(n)
			q := &queues[from*n+i]
			if len(*q) == 0 {
				continue
			}
			p := (*q)[0]
			switch rng.Intn(10) {
			case 0: // lose it
				*q = (*q)[1:]
			case 1: // duplicate: deliver without popping
				out, err := ents[i].Receive(p, now)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				route(i, out)
			default:
				*q = (*q)[1:]
				out, err := ents[i].Receive(p, now)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				route(i, out)
			}
		}
		check(i, step)
		if !batched {
			checkPRLCausal(t, ents[i], step)
		}
	}
	// Final pass over every entity.
	for i, e := range ents {
		route(i, e.Release(now))
		check(i, steps)
		if !batched {
			checkPRLCausal(t, e, steps)
		}
	}
}

// TestInvariantsUnderTargetedReplay aims duplication at retransmissions:
// a lost PDU is repaired twice and the repair itself is duplicated.
func TestInvariantsUnderTargetedReplay(t *testing.T) {
	ents := make([]*Entity, 2)
	for i := range ents {
		e, err := New(Config{ID: pdu.EntityID(i), N: 2})
		if err != nil {
			t.Fatal(err)
		}
		e.Hold() // no deferred confirmation: every PDU out is the script's
		ents[i] = e
	}
	out := ents[0].Submit([]byte("m1"), 0)
	p1 := out.PDUs[0]
	out = ents[0].Submit([]byte("m2"), 0)
	p2 := out.PDUs[0]

	// p1 lost; p2 reveals the gap.
	rout, err := ents[1].Receive(p2.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ret := rout.PDUs[0]
	// The RET arrives twice (delayed duplicate) after the timeout.
	r1, err := ents[0].Receive(ret.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ents[0].Receive(ret.Clone(), 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Both repair copies arrive, plus the original p1 very late, plus p2
	// again.
	for _, p := range []*pdu.PDU{r1.PDUs[0], r1.PDUs[0], p1, p2} {
		if _, err := ents[1].Receive(p.Clone(), 0); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, ents[1], 0)
		checkPRLCausal(t, ents[1], 0)
	}
	if got := ents[1].REQ()[0]; got != 3 {
		t.Fatalf("REQ after replay storm = %d, want 3", got)
	}
	if ents[1].Stats().Accepted != 2 {
		t.Fatalf("Accepted = %d, want 2", ents[1].Stats().Accepted)
	}
}

// TestCachedMinimaEquivalence hammers the incremental minAL/minPAL caches
// specifically: a heavily lossy, duplicating, jittery random run — with
// evictions, the full-recompute site — checking after every single
// Submit/Receive/Tick that every cached minimum equals the naive
// quorumMin recomputation.
func TestCachedMinimaEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		n := 2 + rng.Intn(5)
		ents := make([]*Entity, n)
		for i := range ents {
			e, err := New(Config{
				ID: pdu.EntityID(i), N: n,
				Window:              pdu.Seq(1 + rng.Intn(4)),
				DeferredAckInterval: time.Millisecond,
				RetransmitTimeout:   2 * time.Millisecond,
				SuspectAfter:        time.Duration(50+rng.Intn(100)) * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ents[i] = e
		}
		check := func(i int, step int) {
			e := ents[i]
			for k := 0; k < e.n; k++ {
				if want := e.quorumMin(e.al[k]); e.minAL[k] != want {
					t.Fatalf("seed %d step %d entity %d: cached minAL[%d]=%d != quorumMin=%d",
						seed, step, i, k, e.minAL[k], want)
				}
				if want := e.quorumMin(e.pal[k]); e.minPAL[k] != want {
					t.Fatalf("seed %d step %d entity %d: cached minPAL[%d]=%d != quorumMin=%d",
						seed, step, i, k, e.minPAL[k], want)
				}
			}
		}
		queues := make([][]*pdu.PDU, n*n)
		now := time.Duration(0)
		route := func(from int, out Output) {
			for _, p := range out.PDUs {
				for to := 0; to < n; to++ {
					if to != from {
						queues[from*n+to] = append(queues[from*n+to], p.Clone())
					}
				}
			}
		}
		for step := 0; step < 600; step++ {
			now += time.Duration(rng.Intn(2000)) * time.Microsecond // jitter
			i := rng.Intn(n)
			switch rng.Intn(8) {
			case 0, 1:
				route(i, ents[i].Submit([]byte{byte(step)}, now))
			case 2:
				route(i, ents[i].Tick(now)) // may auto-evict: recompute site
			default:
				from := rng.Intn(n)
				q := &queues[from*n+i]
				if len(*q) == 0 {
					continue
				}
				p := (*q)[0]
				switch rng.Intn(4) {
				case 0: // lose it (heavy loss)
					*q = (*q)[1:]
				case 1: // duplicate: deliver without popping
					out, err := ents[i].Receive(p, now)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					route(i, out)
				default:
					*q = (*q)[1:]
					out, err := ents[i].Receive(p, now)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					route(i, out)
				}
			}
			check(i, step)
		}
	}
}
