package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"cobcast/internal/flight"
	"cobcast/internal/msglog"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/vclock"
)

// never is the "has not happened" timestamp for rate-limit bookkeeping.
const never = time.Duration(math.MinInt64 / 2)

// Receive errors.
var (
	ErrNilPDU       = errors.New("core: nil PDU")
	ErrWrongCluster = errors.New("core: PDU for a different cluster")
)

// Entity is one system entity E_i of the cluster. It is a pure state
// machine: not safe for concurrent use, with no internal goroutines or
// timers. Callers must serialize Submit/Receive/Tick and pass a
// monotonically non-decreasing now.
type Entity struct {
	cfg Config
	n   int
	me  pdu.EntityID

	// §4.1 variables.
	seq pdu.Seq     // next sequence number to broadcast
	req []pdu.Seq   // req[j]: next sequence number expected from j
	al  [][]pdu.Seq // al[k][j]: what j expects next from k, as known here
	pal [][]pdu.Seq // like al, but folded from pre-acknowledged PDUs only
	buf []uint32    // buf[j]: advertised free buffer units at j

	// Receipt logs (§4.2, §4.4, §4.5).
	rrl    []msglog.Queue         // accepted, awaiting pre-acknowledgment
	prl    msglog.Log             // pre-acknowledged, causality-ordered
	parked []map[pdu.Seq]*pdu.PDU // out-of-order arrivals awaiting repair
	// Send log: own sequenced PDUs retained for selective retransmission
	// until pre-acknowledged here (i.e. accepted everywhere). It holds
	// exactly own SEQs [sendLo, seq): entry i is SEQ sendLo+i. Own PDUs
	// are pre-acknowledged in SEQ order, so trimming pops the head.
	sendlog fifo[sentPDU]
	sendLo  pdu.Seq

	// Loss bookkeeping (§4.3).
	known      []pdu.Seq  // strongest next-expected evidence per source
	lastRetReq []retState // last RET issued per source
	// gapBits marks the sources j (j != me, non-evicted) with
	// known[j] > req[j] — exactly the RET candidates — so
	// maybeRequestRetx iterates set words instead of scanning 0..n-1
	// per input. Bits are raised where known is raised (detectGaps) and
	// cleared when req catches known (accept) or the source is evicted.
	gapBits vclock.Bits

	// Deferred confirmation state (§5 and DESIGN.md liveness amendment).
	// unheard holds the non-evicted peers from which no sequenced PDU
	// has been accepted since our last confirmation send; the §5
	// "heard from every peer" test is unheard.Empty(). Refilled from
	// alive at every send that carries our ACK vector (spoke), cleared
	// per source in accept and on eviction.
	unheard     vclock.Bits
	needRespond bool // accepted a NeedAck PDU since our last send
	// rounds counts the confirmation rounds still owed for accepted
	// DATA: accepting a peer's sets 2, an own one (its sender's round 1)
	// at least 1; the next sequenced send is round 1; the first send once
	// uncovered is empty is round 2, and then the entity is silent.
	// dataHi[k] is the newest DATA SEQ accepted from k (0: none),
	// lastACK[k] the ACK vector of the newest sequenced PDU accepted from
	// k, and uncovered the live peers whose lastACK does not yet pass
	// dataHi in every live column but their own — the peers whose round
	// 1 this entity has not accepted.
	rounds    int
	dataHi    []pdu.Seq
	lastACK   [][]pdu.Seq
	uncovered vclock.Bits
	// owed/spokeAt implement the "or some predefined time units" half of
	// the deferred confirmation rule: the deadline counts from spokeAt,
	// set when an obligation appears and pushed back by every send but a
	// RET while round 1 is owed, and lies lateAfter() past it, read when
	// checked, so a fresh sample or a window that closes moves it at once.
	owed      bool
	owedSince time.Duration
	spokeAt   time.Duration
	// held marks an open batch (Hold): every input runs every stage but
	// the confirmation send, which Release decides once for the batch.
	held bool
	// lateAfter follows the confirmation round this entity observes
	// (TCP's smoothed RTT with Karn's rule, RFC 6298, applied to rounds):
	// probeSeq is the own DATA being timed (0: none), sent at probeAt,
	// until every live peer has acknowledged it; probeVoid marks a probe
	// that a RET for this entity or an eviction spanned, whose sample is
	// discarded. srtt is the EWMA of clean samples, 0 until the first.
	probeSeq  pdu.Seq
	probeAt   time.Duration
	probeVoid bool
	srtt      time.Duration

	// Commit stage (delivery-closure guard, DESIGN.md §2): PDUs that have
	// passed the ACK condition wait here until every dependency named by
	// their ACK vector has committed locally. ackedQ[k] is a per-source
	// queue kept sorted by SEQ: commits happen in per-source sequence
	// order, so the only commit candidate of each source is its queue
	// head and commits pop from the head — no mid-slice deletion. PDUs
	// usually pass the ACK condition in sequence order too (append at
	// tail), but not always: the Theorem 4.1 test is not transitive under
	// loss — an entity can accept a PDU whose ACK vector covers a
	// same-source predecessor it never received — so the PRL is only
	// best-effort ordered and a successor can overtake; Queue.Insert
	// restores the per-source order. committed[k] is the highest
	// contiguously committed sequence number from source k.
	ackedQ     []msglog.Queue
	ackedTotal int
	committed  []pdu.Seq
	// ackedBits marks the sources with a non-empty ackedQ so the
	// commit loop visits only them (set in runAck, cleared when a
	// queue drains).
	ackedBits vclock.Bits

	// Incremental quorum minima (performance engineering, DESIGN.md §2c).
	// minAL[k] caches the minimum of al[k] over the alive columns and
	// minALCnt[k] counts the alive columns sitting at it, so the common write
	// path (a single cell raised) maintains the minimum in O(1): raising
	// a cell above the minimum changes nothing; raising a cell at the
	// minimum decrements the count, and only a count of zero forces an
	// O(n) row recompute — at which point the minimum strictly advanced.
	// Eviction is the one remaining full-recompute site. minPAL/minPALCnt
	// cache pal[k]'s identically.
	minAL     []pdu.Seq
	minALCnt  []int
	minPAL    []pdu.Seq
	minPALCnt []int

	// packDirty/packQueue drive runPack from the set of sources whose
	// PACK condition may newly hold (RRL grew, or minAL advanced) instead
	// of a full 0..n-1 scan per input.
	packDirty []bool
	packQueue []pdu.EntityID

	// to is the total-order release stage; nil unless Config.TotalOrder.
	to *toState

	// Failure handling (evict.go). alive is the one membership set: the
	// entities not evicted here, self always among them. Quorum scans
	// (rowMin) iterate its set words. lastHeard[j] is when a PDU from j
	// last arrived (never before the first), for the suspicion timer.
	alive     vclock.Bits
	lastHeard []time.Duration

	// pendingSubmits is the queued backlog: a window onto submitBuf's
	// array whose start drainSubmits advances, sliding the rest back to
	// the base once the consumed prefix is at least as long, so a
	// saturated backlog reuses one array instead of regrowing it.
	pendingSubmits [][]byte
	submitBuf      [][]byte
	// delivered backs Output.Deliveries, reused from input to input: its
	// length is what the previous input delivered — the prefix finish
	// must clear before reuse (config.go states the ownership rule).
	delivered    []Delivery
	parkedTotal  int
	parkedData   int
	rrlTotal     int
	dataResident int

	stats Stats

	// Live instrumentation (Config.Metrics); all nil unless attached.
	// sentAt is a FIFO of own DATA broadcast times for the
	// deliver-latency histogram — valid because own DATA is sent and
	// delivered (CO and TO alike) in SEQ order; acceptAt[k] is a FIFO of
	// acceptance times from source k for the ack-wait histogram — valid
	// because acceptance and commit are both strictly per-source
	// sequence-ordered.
	m        *obsv.EntityMetrics
	sentAt   fifo[time.Duration]
	acceptAt []fifo[time.Duration]

	// label memoizes strconv.Itoa(me) so SnapshotInto allocates nothing.
	label string
}

// New creates an entity in its initial state (SEQ = 1, every REQ/AL/PAL
// entry 1, empty logs).
func New(cfg Config) (*Entity, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N
	e := &Entity{
		cfg:        cfg,
		n:          n,
		me:         cfg.ID,
		seq:        1,
		req:        make([]pdu.Seq, n),
		al:         make([][]pdu.Seq, n),
		pal:        make([][]pdu.Seq, n),
		buf:        make([]uint32, n),
		rrl:        make([]msglog.Queue, n),
		parked:     make([]map[pdu.Seq]*pdu.PDU, n),
		sendLo:     1,
		known:      make([]pdu.Seq, n),
		lastRetReq: make([]retState, n),
		gapBits:    vclock.NewBits(n),
		unheard:    vclock.NewBits(n),
		dataHi:     make([]pdu.Seq, n),
		lastACK:    make([][]pdu.Seq, n),
		uncovered:  vclock.NewBits(n),
		ackedBits:  vclock.NewBits(n),
		alive:      vclock.NewBits(n),
		ackedQ:     make([]msglog.Queue, n),
		committed:  make([]pdu.Seq, n),
		minAL:      make([]pdu.Seq, n),
		minALCnt:   make([]int, n),
		minPAL:     make([]pdu.Seq, n),
		minPALCnt:  make([]int, n),
		packDirty:  make([]bool, n),
		lastHeard:  make([]time.Duration, n),
	}
	// Until k sends, its vector is the initial all-ones one; one shared
	// (never written) slice stands in for every source.
	ones := make([]pdu.Seq, n)
	for j := 0; j < n; j++ {
		ones[j] = 1
		e.lastACK[j] = ones
		e.req[j] = 1
		e.known[j] = 1
		e.buf[j] = BufferUnits
		e.lastRetReq[j].at = never
		e.lastHeard[j] = never
		e.parked[j] = make(map[pdu.Seq]*pdu.PDU)
		e.al[j] = make([]pdu.Seq, n)
		e.pal[j] = make([]pdu.Seq, n)
		for k := 0; k < n; k++ {
			e.al[j][k] = 1
			e.pal[j][k] = 1
		}
		e.minAL[j], e.minALCnt[j] = 1, n
		e.minPAL[j], e.minPALCnt[j] = 1, n
		// Pre-size the per-source queues so steady-state inserts do not
		// reallocate.
		e.rrl[j].Reserve(8)
		e.ackedQ[j].Reserve(8)
	}
	e.alive.Fill(n)
	e.unheard.CopyFrom(e.alive)
	e.unheard.Clear(int(e.me))
	e.prl.Reserve(n, 4*n)
	if cfg.TotalOrder {
		e.to = newTOState(n)
	}
	if cfg.Metrics != nil {
		e.m = cfg.Metrics
		e.acceptAt = make([]fifo[time.Duration], n)
	}
	return e, nil
}

// ID returns this entity's identifier.
func (e *Entity) ID() pdu.EntityID { return e.me }

// Stats returns a snapshot of the entity's counters.
func (e *Entity) Stats() Stats { return e.stats }

// Submit queues application data for broadcast. The data is copied. If the
// flow condition (§4.2) holds the PDU is broadcast immediately; otherwise
// it drains as acknowledgments open the window.
func (e *Entity) Submit(data []byte, now time.Duration) Output {
	buf := make([]byte, len(data))
	copy(buf, data)
	return e.SubmitOwned(buf, now)
}

// SubmitOwned is Submit without the copy: the entity keeps data (it
// becomes a PDU's payload, or is copied into a pack), so the caller must
// not touch it again. The runtime's shard calls it with the copy
// Broadcast already made.
func (e *Entity) SubmitOwned(data []byte, now time.Duration) Output {
	grow := len(e.pendingSubmits) == cap(e.pendingSubmits)
	e.pendingSubmits = append(e.pendingSubmits, data)
	if grow {
		e.submitBuf = e.pendingSubmits[:0]
	}
	e.chargeSubmit(len(data))
	e.fl(flight.EvSubmit, e.me, 0, pdu.KindData, pdu.NoEntity, now)
	if !e.windowOpen() {
		e.stats.FlowBlocked++
		e.fl(flight.EvFlowBlock, e.me, e.seq, pdu.KindData, pdu.NoEntity, now)
	}
	var out Output
	e.finish(now, &out)
	return out
}

// Receive processes one PDU from the network. It retains sequenced PDUs
// (KindData/KindSync) in the receipt logs and never writes any PDU, so
// one PDU may be handed to every receiver of a broadcast, but callers
// must not reuse or write p or its ACK/Data afterwards. Control
// PDUs (KindAckOnly/KindRet) are only read during the call and may live
// in caller-owned scratch storage.
func (e *Entity) Receive(p *pdu.PDU, now time.Duration) (Output, error) {
	var out Output
	if p == nil {
		e.stats.InvalidPDUs++
		return out, ErrNilPDU
	}
	if err := p.Validate(e.n); err != nil {
		e.stats.InvalidPDUs++
		return out, fmt.Errorf("receive at %d: %w", e.me, err)
	}
	if p.CID != e.cfg.ClusterID {
		e.stats.InvalidPDUs++
		return out, fmt.Errorf("%w: got %d want %d", ErrWrongCluster, p.CID, e.cfg.ClusterID)
	}
	switch p.Kind {
	case pdu.KindData:
		e.stats.DataRecv++
	case pdu.KindSync:
		e.stats.SyncRecv++
	case pdu.KindAckOnly:
		e.stats.AckOnlyRecv++
	case pdu.KindRet:
		e.stats.RetRecv++
	}

	e.lastHeard[p.Src] = now
	e.foldInfo(p)
	e.detectGaps(p)
	// Any PDU flagged NeedAck solicits a confirmation round — including
	// control PDUs from window-blocked entities, which cannot emit
	// sequenced PDUs to ask for help.
	if p.NeedAck && p.Src != e.me {
		e.needRespond = true
	}

	switch p.Kind {
	case pdu.KindRet:
		if p.LSrc == e.me {
			e.probeVoid = true // Karn's rule: a repaired round is no sample
			e.handleRetForMe(p, now, &out)
		}
	case pdu.KindAckOnly:
		// Knowledge already folded; nothing sequenced to do.
	case pdu.KindData, pdu.KindSync:
		e.receiveSequenced(p, now)
	}

	e.maybeRequestRetx(now, &out)
	e.finish(now, &out)
	return out, nil
}

// Tick drives the entity's timers: RET retries and deferred confirmation.
// Call it roughly every DeferredAckInterval.
func (e *Entity) Tick(now time.Duration) Output {
	var out Output
	e.maybeSuspect(now)
	e.maybeRequestRetx(now, &out)
	e.finish(now, &out)
	return out
}

// finish runs the pipeline stages common to every input: drain blocked
// submissions, pre-acknowledge, acknowledge/deliver, and emit deferred
// confirmations (outside a batch; inside one, Release does).
func (e *Entity) finish(now time.Duration, out *Output) {
	// The previous input's deliveries are the caller's no longer. Clear
	// what was used — never up to cap: one commit burst would otherwise
	// tax every later input — so no Data keeps a PDU alive.
	clear(e.delivered)
	out.Deliveries = e.delivered[:0]
	e.sampleRound(now)
	e.drainSubmits(now, out)
	e.runPack()
	e.runAck(now, out)
	e.maybeConfirm(now, out)
	e.delivered = out.Deliveries
	if cap(e.delivered) > maxKeptDeliveries {
		e.delivered = nil // this burst's buffer is the caller's to drop
	}
}

// maxKeptDeliveries bounds the delivery buffer an entity keeps between
// inputs (in entries, 56 bytes each): far above a saturated commit burst
// (a few hundred messages), far below what a window of hostile packs of
// empty messages could pin for good.
const maxKeptDeliveries = 1 << 14

// foldInfo merges the PDU's receipt confirmations into AL and BUF. ACK
// vectors are truthful snapshots of the sender's REQ, so folding them from
// every PDU kind (including control PDUs and parked out-of-order PDUs)
// only strengthens knowledge; delivery safety rests on PAL, which folds
// strictly from pre-acknowledged sequenced PDUs as in the paper. A
// sequenced PDU also vouches for its own acceptance at its source.
func (e *Entity) foldInfo(p *pdu.PDU) {
	if p.Src == e.me {
		return
	}
	for k := 0; k < e.n; k++ {
		if p.ACK[k] > e.al[k][p.Src] {
			e.raiseAL(k, p.Src, p.ACK[k])
		}
	}
	// A sequenced PDU proves that its source accepted it: the source
	// self-accepts every PDU it sends, right after the ACK snapshot.
	if k := int(p.Src); p.Kind.Sequenced() && p.SEQ+1 > e.al[k][k] {
		e.raiseAL(k, p.Src, p.SEQ+1)
	}
	e.buf[p.Src] = p.BUF
}

// raiseAL writes al[k][j] = v (callers guarantee v > al[k][j]) and
// maintains the cached row minimum. A non-evicted cell is never below the
// cached minimum, so raising one either leaves the minimum alone (the
// cell was above it, or other cells still sit at it) or — when the last
// cell at the minimum rises — strictly advances it, the only case that
// pays for an O(n) recompute and can newly satisfy k's PACK condition.
func (e *Entity) raiseAL(k int, j pdu.EntityID, v pdu.Seq) {
	old := e.al[k][j]
	e.al[k][j] = v
	if !e.alive.Test(int(j)) || old > e.minAL[k] {
		return
	}
	if e.minALCnt[k]--; e.minALCnt[k] == 0 {
		e.minAL[k], e.minALCnt[k] = e.rowMin(e.al[k])
		e.markPackDirty(pdu.EntityID(k))
	}
}

// raisePAL is raiseAL for the PAL matrix. An advanced minPAL needs no
// dirty mark: runAck always runs after runPack and probes the cached
// minimum at the head of the single PRL queue.
func (e *Entity) raisePAL(k int, j pdu.EntityID, v pdu.Seq) {
	old := e.pal[k][j]
	e.pal[k][j] = v
	if !e.alive.Test(int(j)) || old > e.minPAL[k] {
		return
	}
	if e.minPALCnt[k]--; e.minPALCnt[k] == 0 {
		e.minPAL[k], e.minPALCnt[k] = e.rowMin(e.pal[k])
	}
}

// rowMin recomputes a quorum minimum and the number of non-evicted cells
// holding it, iterating the set words of the alive bitmap so a shrunken
// quorum (the eviction re-scan path) only touches surviving columns.
// The local entity is never evicted, so cnt >= 1.
func (e *Entity) rowMin(row []pdu.Seq) (m pdu.Seq, cnt int) {
	for wi, w := range e.alive {
		for w != 0 {
			j := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			switch v := row[j]; {
			case cnt == 0 || v < m:
				m, cnt = v, 1
			case v == m:
				cnt++
			}
		}
	}
	return m, cnt
}

// refreshMinima recomputes every cached minimum from scratch — the
// full-recompute site, reached only when the quorum shrinks (eviction).
func (e *Entity) refreshMinima() {
	for k := 0; k < e.n; k++ {
		e.minAL[k], e.minALCnt[k] = e.rowMin(e.al[k])
		e.minPAL[k], e.minPALCnt[k] = e.rowMin(e.pal[k])
		e.markPackDirty(pdu.EntityID(k))
	}
}

// markPackDirty queues source k for the next runPack pass.
func (e *Entity) markPackDirty(k pdu.EntityID) {
	if !e.packDirty[k] {
		e.packDirty[k] = true
		e.packQueue = append(e.packQueue, k)
	}
}

// detectGaps applies the failure conditions of §4.3: F1 (a sequenced PDU
// beyond REQ reveals a gap at its own source) and F2 (an ACK entry beyond
// REQ reveals a gap at another source). Evidence is recorded in known;
// maybeRequestRetx turns it into RET PDUs.
func (e *Entity) detectGaps(p *pdu.PDU) {
	for j := 0; j < e.n; j++ {
		if pdu.EntityID(j) == p.Src || pdu.EntityID(j) == e.me {
			continue
		}
		if p.ACK[j] > e.known[j] {
			// known[j] never trails req[j], so strengthened evidence
			// always names PDUs this entity has not accepted: a
			// detection, not a confirmation.
			e.known[j] = p.ACK[j] // F2
			e.stats.F2Detections++
			e.noteGap(j)
		}
	}
	if p.Kind.Sequenced() && p.Src != e.me && p.SEQ+1 > e.known[p.Src] {
		e.known[p.Src] = p.SEQ + 1 // F1
		e.noteGap(int(p.Src))
		if p.SEQ > e.req[p.Src] {
			// In-order arrivals raise evidence too but reveal no gap;
			// only a PDU ahead of REQ is a detection.
			e.stats.F1Detections++
		}
	}
	// The sender's own ACK entry equals its next sequence number (it has
	// self-accepted everything it sent), so it is F1-grade evidence for
	// the sender's own stream. Without this, a window-blocked sender
	// whose last sequenced PDU was lost everywhere could gossip ACKONLYs
	// forever without anyone learning the PDU exists.
	if p.Src != e.me && p.ACK[p.Src] > e.known[p.Src] {
		e.known[p.Src] = p.ACK[p.Src]
		e.stats.F1Detections++
		e.noteGap(int(p.Src))
	}
}

// noteGap records that known[j] was strengthened. known never trails
// req, so a strict raise leaves known[j] > req[j] — a gap — except for
// the in-order F1 case (SEQ == req), whose bit accept clears within the
// same Receive. Evicted sources are not RET candidates.
func (e *Entity) noteGap(j int) {
	if e.alive.Test(j) && e.known[j] > e.req[j] {
		e.gapBits.Set(j)
	}
}

// receiveSequenced applies the acceptance condition p.SEQ == REQ (§4.2),
// parking out-of-order PDUs and draining repairs in order.
func (e *Entity) receiveSequenced(p *pdu.PDU, now time.Duration) {
	src := p.Src
	switch {
	case p.SEQ < e.req[src]:
		e.stats.Duplicates++
	case p.SEQ > e.req[src]:
		if _, dup := e.parked[src][p.SEQ]; !dup {
			e.parked[src][p.SEQ] = p
			e.parkedTotal++
			if p.Kind == pdu.KindData {
				e.parkedData++
			}
			e.chargePDU(p)
			e.stats.Parked++
			e.fl(flight.EvPark, src, p.SEQ, p.Kind, pdu.NoEntity, now)
			e.noteResident()
		}
	default:
		e.accept(p, now)
		for {
			q, ok := e.parked[src][e.req[src]]
			if !ok {
				break
			}
			delete(e.parked[src], q.SEQ)
			e.parkedTotal--
			if q.Kind == pdu.KindData {
				e.parkedData--
			}
			e.releasePDU(q)
			e.fl(flight.EvUnpark, src, q.SEQ, q.Kind, pdu.NoEntity, now)
			e.accept(q, now)
		}
	}
}

// accept performs the acceptance action (§4.2): advance REQ, enqueue into
// RRL, and update deferred-confirmation state. Callers guarantee
// p.SEQ == req[p.Src].
func (e *Entity) accept(p *pdu.PDU, now time.Duration) {
	src := p.Src
	e.req[src] = p.SEQ + 1
	// Own column of AL is direct knowledge: we just accepted through SEQ.
	e.raiseAL(int(src), e.me, e.req[src])
	if e.req[src] > e.known[src] {
		e.known[src] = e.req[src]
	}
	if e.known[src] == e.req[src] {
		// REQ caught the strongest evidence: the gap (if any) closed.
		e.gapBits.Clear(int(src))
	}
	e.rrl[src].Insert(p)
	e.rrlTotal++
	e.chargePDU(p)
	// The freshly enqueued PDU may already satisfy the PACK condition
	// (minAL can sit past SEQ when the repair of an old gap arrives late).
	e.markPackDirty(src)
	e.lastACK[src] = p.ACK
	if p.Kind == pdu.KindData {
		e.dataResident++
		e.dataHi[src] = p.SEQ
		if src != e.me {
			e.rounds = 2
		} else {
			// An own DATA is its sender's round 1: every receiver infers
			// the self-acceptance from the PDU itself (foldInfo).
			e.rounds = max(e.rounds, 1)
		}
		if e.alive.Test(int(src)) {
			e.raiseCoverBar(int(src), p.SEQ)
		}
	}
	if src != e.me {
		e.unheard.Clear(int(src))
		if e.uncovered.Test(int(src)) {
			e.noteCoverage(int(src))
		}
	}
	e.stats.Accepted++
	if e.m != nil {
		e.acceptAt[src].push(now)
	}
	e.noteResident()
	e.fl(flight.EvAccept, src, p.SEQ, p.Kind, pdu.NoEntity, now)
}

// runPack applies the PACK condition and action (§4.4): the head of each
// RRL whose SEQ is below minAL of its source moves, in order, into the
// causality-ordered PRL, folding its ACK vector into PAL. Only sources
// whose condition may newly hold — RRL grew, or minAL advanced — are
// visited; everything else was drained by an earlier pass.
func (e *Entity) runPack() {
	for i := 0; i < len(e.packQueue); i++ {
		k := int(e.packQueue[i])
		e.packDirty[k] = false
		for {
			top := e.rrl[k].Top()
			if top == nil || top.SEQ >= e.minAL[k] {
				break
			}
			p := e.rrl[k].Dequeue()
			e.rrlTotal--
			// Fold the ACK vector into PAL exactly as the paper's PACK
			// action does — and only here. Updating PAL from anything
			// other than a pre-acknowledged (hence in-order accepted)
			// PDU breaks delivery safety: the proof that a causal
			// predecessor p from source j is delivered before q leans on
			// column j of PAL advancing past q.SEQ only via a PDU from j
			// that sits behind p in RRL_j's FIFO.
			for m := 0; m < e.n; m++ {
				if p.ACK[m] > e.pal[m][k] {
					e.raisePAL(m, pdu.EntityID(k), p.ACK[m])
				}
			}
			// p's own acceptance at k, implied as in foldInfo. This write
			// too comes from a pre-acknowledged PDU — p itself, standing
			// in for its own acknowledger — so the FIFO argument holds.
			if p.SEQ+1 > e.pal[k][k] {
				e.raisePAL(k, pdu.EntityID(k), p.SEQ+1)
			}
			if d := e.prl.InsertCPI(p); d > 0 {
				e.stats.CPIDisplaced++
				e.stats.CPIDisplacement += uint64(d)
			}
			e.stats.Preacked++
			if pdu.EntityID(k) == e.me {
				// Everyone has accepted our PDU: it can never be asked
				// for again, so release it from the retransmission log.
				e.trimSendLog(p.SEQ)
			}
		}
	}
	e.packQueue = e.packQueue[:0]
}

// runAck applies the ACK condition and action (§4.5): while the top of PRL
// has been pre-acknowledged everywhere (SEQ below minPAL of its source),
// dequeue it into the commit stage, which enforces full causal closure
// before delivery. The condition holds back DATA only: a SYNC delivers
// nothing, so it leaves PRL once it is pre-acknowledged, and the commit
// stage still orders it by its ACK vector.
func (e *Entity) runAck(now time.Duration, out *Output) {
	for {
		top := e.prl.Top()
		if top == nil || top.Kind == pdu.KindData && top.SEQ >= e.minPAL[top.Src] {
			break
		}
		p := e.prl.Dequeue()
		e.ackedQ[p.Src].Insert(p)
		e.ackedBits.Set(int(p.Src))
		e.ackedTotal++
		e.stats.Acked++
	}
	e.commitReady(now, out)
}

// commitReady delivers acknowledged PDUs in true causal order. The paper
// orders PRL with pairwise Theorem 4.1 tests, but that relation captures
// only direct causality (q's sender accepted p) — a transitive chain
// through a third PDU the local entity saw in a different order can be
// invisible to it. Reading each PDU's ACK vector as a dependency vector
// closes the hole: commit p only once its own stream's prefix and every
// prefix named by p.ACK have committed. Dependencies always point to
// PDUs sent strictly earlier in real time, so the graph is acyclic and
// the stage cannot deadlock.
//
// The stage is a ready-queue keyed by the committed frontier: ackedQ[k]
// is kept sorted by SEQ and commits happen in per-source sequence order,
// so only each source's queue head can be ready, commits pop from the
// head (ordered drain, no mid-slice deletion), and a pass over the n
// heads repeats only while some commit advanced the frontier.
func (e *Entity) commitReady(now time.Duration, out *Output) {
	// Only sources with a non-empty ackedQ can commit, so each pass
	// iterates the set words of ackedBits (ascending, matching the old
	// 0..n-1 scan order) instead of probing all n queues. The word is
	// copied before iterating: clearing a drained source's bit must not
	// disturb the in-flight word, and commits never refill ackedQ.
	for progress := e.ackedTotal > 0; progress; {
		progress = false
		for wi, w := range e.ackedBits {
			for w != 0 {
				k := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				for {
					p := e.ackedQ[k].Top()
					if p == nil || !e.depsCommitted(p) {
						break
					}
					e.ackedQ[k].Dequeue()
					e.ackedTotal--
					e.releasePDU(p)
					e.committed[k] = p.SEQ
					e.stats.Committed++
					e.fl(flight.EvCommit, p.Src, p.SEQ, p.Kind, pdu.NoEntity, now)
					if e.m != nil {
						if t, ok := e.acceptAt[k].pop(); ok {
							e.m.AckWaitUS.Observe(micros(now - t))
						}
					}
					progress = true
					if e.to != nil {
						// TO mode: stamp the logical time and hand DATA to the
						// stable-release stage instead of delivering directly.
						e.onCommitTotal(p)
						continue
					}
					if p.Kind == pdu.KindData {
						e.deliver(p, 0, now, out)
					}
				}
				if e.ackedQ[k].Len() == 0 {
					e.ackedBits.Clear(k)
				}
			}
		}
	}
	if e.to != nil {
		e.releaseTotal(now, out)
	}
}

// depsCommitted reports whether every causal dependency of p has been
// committed locally.
func (e *Entity) depsCommitted(p *pdu.PDU) bool {
	if e.committed[p.Src] != p.SEQ-1 {
		return false
	}
	for k := 0; k < e.n; k++ {
		if pdu.EntityID(k) == p.Src {
			continue
		}
		if e.committed[k]+1 < p.ACK[k] {
			return false
		}
	}
	return true
}

// drainSubmits broadcasts queued application data while the flow condition
// holds. A backlog rides packed: when two or more queued messages fit
// pdu.MaxPackBytes they share one DATA PDU — one SEQ, one ACK vector, one
// window slot, one confirmation round (DESIGN.md §2n). A lone message, or
// one too large to share, goes out as its own unpacked PDU; nothing ever
// waits to be packed.
func (e *Entity) drainSubmits(now time.Duration, out *Output) {
	for len(e.pendingSubmits) > 0 && e.windowOpen() {
		k, size := 0, 0
		for ; k < len(e.pendingSubmits); k++ {
			s := pdu.PackedSize(len(e.pendingSubmits[k]))
			if size+s > pdu.MaxPackBytes {
				break
			}
			size += s
		}
		data, packed := e.pendingSubmits[0], k >= 2
		if packed {
			data = make([]byte, 0, size)
		} else {
			k = 1
		}
		for i, m := range e.pendingSubmits[:k] {
			if packed {
				data = pdu.AppendMessage(data, m)
			}
			e.releaseSubmit(len(m))
			e.pendingSubmits[i] = nil
		}
		e.pendingSubmits = e.pendingSubmits[k:]
		e.stats.MsgsSent += uint64(k)
		e.broadcastSequenced(pdu.KindData, data, packed, false, now, out)
	}
	// Both slices end at the array's end, so their capacities differ by
	// the consumed prefix. Moving the rest only once that prefix is as
	// long as it keeps the copying O(1) per message however deep the
	// backlog runs.
	if off := cap(e.submitBuf) - cap(e.pendingSubmits); off > 0 && off >= len(e.pendingSubmits) {
		n := copy(e.submitBuf[:len(e.pendingSubmits)], e.pendingSubmits)
		clear(e.pendingSubmits) // no overlap with the copy, as off >= n
		e.pendingSubmits = e.submitBuf[:n]
	}
}

// deliver hands committed (CO) or stable (TO, lt its logical time) DATA
// PDU p to the application: one Delivery, or one per message of a pack
// in pack order. Validate vouched for the pack on the way in.
func (e *Entity) deliver(p *pdu.PDU, lt uint64, now time.Duration, out *Output) {
	e.dataResident--
	e.observeDeliverLatency(p, now)
	had := len(out.Deliveries)
	if !p.Packed {
		out.Deliveries = append(out.Deliveries, Delivery{Src: p.Src, SEQ: p.SEQ, Data: p.Data, LTime: lt})
	} else {
		for i, rest := 0, p.Data; len(rest) > 0; i++ {
			var msg []byte
			msg, rest, _ = pdu.NextMessage(rest)
			out.Deliveries = append(out.Deliveries, Delivery{Src: p.Src, SEQ: p.SEQ, Index: i, Data: msg, LTime: lt})
		}
	}
	e.stats.Delivered += uint64(len(out.Deliveries) - had)
	e.fl(flight.EvDeliver, p.Src, p.SEQ, p.Kind, pdu.NoEntity, now)
}

// maybeConfirm implements deferred confirmation (§5) as exactly two
// confirmation rounds per accepted DATA (DESIGN.md §2). Round 1 is the
// first sequenced PDU after accepting a DATA, sent once we have heard
// from every peer since our last send; PACK needs its ACK vector. An own
// DATA is its sender's round 1: it vouches for its own acceptance. Round
// 2 goes as soon as every live peer's round 1 has been accepted here;
// its vector lets everyone pre-acknowledge those rounds, which is what
// ACK needs. Then the entity is silent. Answering a NeedAck PDU, a
// flow-blocked backlog and a held total-order release wait for all-heard
// too. Data that is merely still resident waits for the deadline,
// lateAfter past the last send, which also fires whichever trigger
// above is slow to come: a late confirmation. If the flow window is
// closed, an unsequenced ACKONLY goes instead (liveness amendment,
// DESIGN.md §2); it can serve as round 2 only, because PAL folds from
// sequenced PDUs alone. Inside a batch (Hold) it keeps only the
// owed-since bookkeeping, and Release makes the decision.
func (e *Entity) maybeConfirm(now time.Duration, out *Output) {
	if !e.needsToSpeak() {
		e.owed = false
		return
	}
	if !e.owed {
		e.owed = true
		e.owedSince = now
		e.spokeAt = now
	}
	// One send at most: a round 1 sent when no live peer is uncovered is
	// round 2 as well (spoke), and a send pushes the deadline back and
	// restarts the all-heard test, so while a peer is alive nothing is due
	// right after it.
	if e.held {
		return // Release decides, on the state after the batch's last input
	}
	late := !e.confirmDue()
	if late && now < e.spokeAt+e.lateAfter() {
		return
	}
	e.stats.DeferredConfirms++
	if late {
		e.stats.LateConfirms++
	}
	if e.windowOpen() {
		e.broadcastSequenced(pdu.KindSync, nil, false, late, now, out)
	} else {
		e.sendAckOnly(late, now, out)
	}
}

// Hold opens a batch of inputs for a driver that sends everything they
// produce in one flush. Inside it every input runs every stage as
// outside, including the owed-since bookkeeping, but sends no deferred
// confirmation; Release sends at most one, decided on the state after
// the last input. That costs no latency, since the confirmations the
// batch's inputs would have sent leave in the same flush anyway, and
// discharges everything they would have: its ACK vector is at least as
// high as each of theirs, it is round 1, and round 2 too once no peer
// is uncovered. Hold reports whether it opened a batch (false: one was
// open). Without Hold, each input is its own batch.
func (e *Entity) Hold() bool {
	opened := !e.held
	e.held = true
	return opened
}

// Release closes the batch Hold opened and returns its one deferred
// confirmation, if one is due; the output holds no deliveries. With no
// batch open it does nothing.
func (e *Entity) Release(now time.Duration) Output {
	var out Output
	if !e.held {
		return out
	}
	e.held = false
	e.maybeConfirm(now, &out)
	return out
}

// sampleRound closes the round probe once every live peer has
// acknowledged it: a clean sample moves srtt by 1/8 of its distance (the
// first one sets it). Only DATA is timed: a trailing round-2 SYNC is
// acknowledged by whatever traffic comes next, so timing it would
// measure the gap between messages.
func (e *Entity) sampleRound(now time.Duration) {
	if e.probeSeq == 0 || e.minAL[e.me] <= e.probeSeq {
		return
	}
	if !e.probeVoid {
		if d := now - e.probeAt; e.srtt == 0 {
			e.srtt = d
		} else {
			e.srtt += (d - e.srtt) / 8
		}
	}
	e.probeSeq = 0
}

// retryAfter is the retry timeout: two observed rounds, never less than
// DeferredAckInterval (all there is until the first clean sample) and
// never more than RetransmitTimeout, so a stale estimate cannot hold a
// retry or the liveness fallback past the fresh-evidence RET spacing. A
// floor above the ceiling wins. It is the first wait before a RET re-asks
// an unanswered range and the late-confirmation deadline, and its half
// is the source's hold-off before it re-serves a PDU.
func (e *Entity) retryAfter() time.Duration {
	return max(min(2*e.srtt, e.cfg.RetransmitTimeout), e.cfg.DeferredAckInterval)
}

// lateAfter is how long after its last send an entity that owes the
// cluster confirmations waits before a late one: the retry timeout. A
// flow-blocked entity waits only the floor: its late confirmation is how
// it asks for the acknowledgments that reopen its window, and a lost PDU
// can keep all-heard from asking sooner for as long as repair takes.
func (e *Entity) lateAfter() time.Duration {
	if len(e.pendingSubmits) > 0 {
		return e.cfg.DeferredAckInterval
	}
	return e.retryAfter()
}

// confirmDue reports whether a confirmation is due before the deadline:
// round 1 once every peer has been heard from since our last send,
// round 2 once no live peer is uncovered, and an answer to NeedAck, a
// flow-blocked backlog or a held total-order release once every peer has
// been heard from. Resident data alone is never due: it waits for the
// deadline.
func (e *Entity) confirmDue() bool {
	switch {
	case e.rounds == 2:
		return e.unheard.Empty()
	case e.rounds == 1:
		return e.uncovered.Empty()
	case e.needRespond || len(e.pendingSubmits) > 0 || e.to != nil && e.to.pending.Len() > 0:
		return e.unheard.Empty()
	}
	return false
}

// needsToSpeak reports whether this entity owes the cluster confirmations:
// it owes rounds for accepted data, holds undelivered data, has data
// waiting to send, or was asked for help by a NeedAck PDU.
func (e *Entity) needsToSpeak() bool { return e.rounds > 0 || e.needRespond || e.owesData() }

// owesData reports whether this entity still holds undelivered or unsent
// data.
func (e *Entity) owesData() bool {
	return e.dataResident > 0 || e.parkedData > 0 || len(e.pendingSubmits) > 0
}

// solicits is the NeedAck bit of a confirmation, read after spoke:
// set while rounds are still owed or submissions wait for the window,
// and on a late confirmation while data is still held — the liveness
// fallback for a peer whose round 1 crossed the DATA in flight, or data
// that two rounds left blocked behind a concurrent PDU.
func (e *Entity) solicits(late bool) bool {
	return e.rounds > 0 || len(e.pendingSubmits) > 0 ||
		late && (e.dataResident > 0 || e.parkedData > 0)
}

// spoke does the confirmation bookkeeping of a send of the given kind,
// which carries this entity's truthful ACK vector to every peer — a
// sequenced PDU, an ACKONLY or a RET. It credits the send against the
// rounds owed: any sequenced PDU is round 1; round 2 is the first send,
// an unsequenced one included, once no live peer is uncovered — which a
// round 1 can be too. It restarts the all-heard test (without that, a
// window-blocked entity that had heard from everyone would emit one
// ACKONLY per incoming PDU), answers any NeedAck, and pushes the
// late-confirmation deadline back — except that a RET, which can never
// be round 1, leaves the deadline of an owed round 1 where it is.
func (e *Entity) spoke(kind pdu.Kind, now time.Duration) {
	if e.rounds == 2 && kind.Sequenced() {
		e.rounds = 1
	}
	if e.rounds == 1 && e.uncovered.Empty() {
		e.rounds = 0
	}
	e.unheard.CopyFrom(e.alive)
	e.unheard.Clear(int(e.me))
	e.needRespond = false
	if kind != pdu.KindRet || e.rounds != 2 {
		e.spokeAt = now
	}
}

// raiseCoverBar records the acceptance of DATA (k, s): every live peer
// whose newest accepted vector has not passed it is uncovered again —
// except k itself, whose newest sequenced PDU covers itself.
func (e *Entity) raiseCoverBar(k int, s pdu.Seq) {
	for wi, w := range e.alive {
		for w != 0 {
			j := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if j != int(e.me) && j != k && e.lastACK[j][k] <= s {
				e.uncovered.Set(j)
			}
		}
	}
}

// noteCoverage clears peer j from uncovered once its newest accepted
// vector passes dataHi in every live column but j's own, which that
// vector's PDU covers by itself. ACK vectors only grow per source, so a
// covered peer stays covered until raiseCoverBar.
func (e *Entity) noteCoverage(j int) {
	ack := e.lastACK[j]
	for wi, w := range e.alive {
		for w != 0 {
			k := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if k != j && ack[k] <= e.dataHi[k] {
				return
			}
		}
	}
	e.uncovered.Clear(j)
}

// broadcastSequenced performs the transmission action of §4.2: stamp SEQ
// and the ACK vector, retain for retransmission, self-accept, broadcast.
// The ACK vector is captured before self-acceptance, so the own entry
// equals SEQ — matching Table 1 of the paper. late marks a confirmation
// the deadline fired.
func (e *Entity) broadcastSequenced(kind pdu.Kind, data []byte, packed, late bool, now time.Duration, out *Output) {
	p := e.newPDU(kind)
	p.SEQ = e.seq
	// Credit the send before the self-accept, so that an own DATA owes
	// its round 2 afresh.
	e.spoke(kind, now)
	p.NeedAck = kind == pdu.KindData || e.solicits(late)
	p.Data, p.Packed = data, packed
	e.seq++
	e.sendlog.push(sentPDU{p: p, lastRetx: never})
	e.chargePDU(p)
	if kind == pdu.KindData {
		e.stats.DataSent++
		if e.probeSeq == 0 {
			e.probeSeq, e.probeAt, e.probeVoid = p.SEQ, now, false
		}
		if e.m != nil {
			e.sentAt.push(now)
		}
	} else {
		e.stats.SyncSent++
	}
	e.fl(flight.EvSequence, e.me, p.SEQ, kind, pdu.NoEntity, now)
	e.accept(p, now)
	out.PDUs = append(out.PDUs, p)
}

// newPDU allocates an outgoing PDU of the given kind carrying what every
// kind carries — CID, SRC, the ACK vector as a snapshot of REQ, BUF.
// In a small cluster the ACK vector shares the PDU's allocation
// (pdu.New).
func (e *Entity) newPDU(kind pdu.Kind) *pdu.PDU {
	p, slab := pdu.New(e.n)
	p.Kind, p.CID, p.Src, p.LSrc = kind, e.cfg.ClusterID, e.me, pdu.NoEntity
	p.ACK = slab[:e.n:e.n]
	copy(p.ACK, e.req)
	p.BUF = e.availBuf()
	return p
}

// sendAckOnly emits the unsequenced control PDU that keeps receipt
// confirmations moving when the flow window is closed. Its ACK vector
// discharges the confirmation obligation of everything received so far,
// exactly like a sequenced send.
func (e *Entity) sendAckOnly(late bool, now time.Duration, out *Output) {
	p := e.newPDU(pdu.KindAckOnly)
	e.spoke(pdu.KindAckOnly, now)
	p.NeedAck = e.solicits(late)
	e.stats.AckOnlySent++
	out.PDUs = append(out.PDUs, p)
}

// maxRetSpan bounds the range of one RET, in SEQs, and so its held
// list: the receive buffer's capacity in PDUs, above any flow window, so
// only hostile evidence (an ACK entry or SEQ far ahead of any real
// stream) reaches it, and the rest of such a range waits for a later RET.
const maxRetSpan = BufferUnits / UnitsPerPDU

// maybeRequestRetx issues RET PDUs (retransmission action (1), §4.3) for
// every source with outstanding gap evidence once retDue allows. gapBits
// is maintained to hold exactly the sources with known[j] > req[j]
// (j != me, non-evicted), so the common no-gap case costs one word test
// per input instead of an O(n) scan; ascending word iteration preserves
// the RET emission order of the old loop.
//
// One RET asks for the whole loss burst: its range [REQ, LSeq) ends one
// past the last PDU still missing below known, and its held list names
// the PDUs of the range already parked here, so the source serves only
// the holes. A RET carries this entity's ACK vector to everyone, so it
// also confirms like an ACKONLY (spoke), but never postpones an owed
// round 1.
func (e *Entity) maybeRequestRetx(now time.Duration, out *Output) {
	for wi, w := range e.gapBits {
		for w != 0 {
			j := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			src := pdu.EntityID(j)
			if now < e.retDue(j) {
				continue
			}
			// The paper's F1 sets LSEQ to the SEQ of the revealing PDU,
			// never asking for PDUs the requester has; the held list
			// extends that to every hole of the burst.
			req := e.req[j]
			lseq := min(e.known[j], req+maxRetSpan)
			for lseq > req && e.parked[j][lseq-1] != nil {
				lseq--
			}
			if lseq <= req {
				continue
			}
			r := &e.lastRetReq[j]
			if e.retUnanswered(j) {
				r.tries++
				e.stats.RetRetries++
			} else {
				r.tries = 0
			}
			r.at, r.end = now, lseq
			p := e.newPDU(pdu.KindRet)
			p.LSrc, p.LSeq, p.Data = src, lseq, e.heldList(j, lseq)
			e.spoke(pdu.KindRet, now)
			out.PDUs = append(out.PDUs, p)
			e.stats.RetSent++
			// Src/Seq name the first missing PDU in the gap being chased.
			e.fl(flight.EvRetRequest, src, e.req[j], pdu.KindRet, src, now)
		}
	}
}

// retState is the RET bookkeeping for one source: when the last RET
// went (never before the first), the end (LSEQ) of its range, and the
// retries sent since the last RET for fresh evidence.
type retState struct {
	at    time.Duration
	end   pdu.Seq
	tries int
}

// retUnanswered reports whether the last RET for source j still has a
// hole: REQ[j] has not reached the end of its range (0 before any RET).
func (e *Entity) retUnanswered(j int) bool { return e.req[j] < e.lastRetReq[j].end }

// retDue is when the next RET for source j may go. A RET for fresh
// evidence keeps RetransmitTimeout after the previous one, so a loss
// burst is asked for in one RET and repairs share confirmation rounds
// (spacing fresh RETs by the round instead costs two thirds more PDUs per
// message at 5 % loss). A RET whose range is still unanswered lost itself
// or its rebroadcast: it is re-asked after the retry timeout, doubled for
// each retry already sent and capped at RetransmitTimeout (RFC 6298
// §5.5), so a frozen source draws no more RETs than the fresh spacing.
func (e *Entity) retDue(j int) time.Duration {
	r := &e.lastRetReq[j]
	if !e.retUnanswered(j) {
		return r.at + e.cfg.RetransmitTimeout
	}
	wait := e.retryAfter()
	for k := 0; k < r.tries && wait < e.cfg.RetransmitTimeout; k++ {
		wait = min(2*wait, e.cfg.RetransmitTimeout)
	}
	return r.at + wait
}

// heldList returns the held list of a RET for source j with range
// [req[j], lseq): the PDUs of the range parked here, nil when the range
// is one hole.
func (e *Entity) heldList(j int, lseq pdu.Seq) []byte {
	var held []byte
	for s := range e.parked[j] {
		if s > e.req[j] && s < lseq {
			held = pdu.AddHeld(held, e.req[j], s)
		}
	}
	return held
}

// handleRetForMe performs retransmission action (2) of §4.3: rebroadcast
// the PDUs of the range the requester is missing — those its held list
// does not name — bit-identical to the originals. A PDU is re-served at
// most once per observed round (half the retry timeout): a RET that
// arrives sooner was sent before the rebroadcast reached its requester,
// so a burst of RETs does not amplify traffic, while a retry, which waits
// two of its requester's rounds, is served even where the two estimates
// differ. A hold-off of the whole retry timeout refused such retries
// whenever the requester's estimate was the shorter one.
func (e *Entity) handleRetForMe(r *pdu.PDU, now time.Duration, out *Output) {
	from := r.ACK[e.me]
	if from < e.sendLo {
		from = e.sendLo
	}
	for s := from; s < r.LSeq && s < e.seq; s++ {
		if r.Holds(s) {
			continue
		}
		sp := e.sendlog.at(int(s - e.sendLo))
		if now-sp.lastRetx < e.retryAfter()/2 {
			continue
		}
		sp.lastRetx = now
		e.stats.Retransmitted++
		e.fl(flight.EvRetServe, e.me, s, sp.p.Kind, r.Src, now)
		out.PDUs = append(out.PDUs, sp.p)
	}
}

// sentPDU is one send log entry: an own sequenced PDU and when it was
// last re-served (never before the first time).
type sentPDU struct {
	p        *pdu.PDU
	lastRetx time.Duration
}

// trimSendLog drops own PDUs with SEQ ≤ upTo from the retransmission log.
func (e *Entity) trimSendLog(upTo pdu.Seq) {
	for ; e.sendLo <= upTo; e.sendLo++ {
		sp, _ := e.sendlog.pop()
		e.releasePDU(sp.p)
	}
}

// fifo is a queue with an amortized-O(1) head: the send log, and the
// start times the latency histograms pair with their ends by position
// (sentAt, acceptAt), which carry no sequence numbers because both ends
// happen in the same order.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// at returns the i-th entry from the head. It panics if i is out of range.
func (q *fifo[T]) at(i int) *T { return &q.items[q.head:][i] }

func (q *fifo[T]) pop() (T, bool) {
	var v T
	if q.head >= len(q.items) {
		return v, false
	}
	v, q.items[q.head] = q.items[q.head], v // release for GC
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head*2 >= len(q.items):
		// Compact once the consumed prefix dominates. Resetting only on
		// empty is not enough: under sustained load the queue never
		// fully drains, so without this the slice grows append-only for
		// the life of the entity (cosoak's heap trend check catches it).
		// No minimum size: of an entity's n queues each is a few
		// entries deep and must settle there, not regrow through 128.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

// windowOpen evaluates the flow condition of §4.2:
//
//	minAL_i ≤ SEQ < minAL_i + min(W, minBUF/(H·2n))
func (e *Entity) windowOpen() bool {
	credit := e.flowCredit()
	return e.seq < e.minAL[e.me]+credit
}

// flowCredit returns min(W, minBUF/(H·2n)).
func (e *Entity) flowCredit() pdu.Seq {
	minBuf := e.availBuf()
	for j := 0; j < e.n; j++ {
		if pdu.EntityID(j) != e.me && e.alive.Test(j) && e.buf[j] < minBuf {
			minBuf = e.buf[j]
		}
	}
	credit := pdu.Seq(minBuf / (UnitsPerPDU * 2 * uint32(e.n)))
	if credit > e.cfg.Window {
		credit = e.cfg.Window
	}
	return credit
}

// availBuf returns this entity's free receive-buffer units: capacity minus
// resident PDUs (parked + RRL + PRL) times H.
func (e *Entity) availBuf() uint32 {
	used := uint64(e.Resident()) * UnitsPerPDU
	if used >= BufferUnits {
		return 0
	}
	return BufferUnits - uint32(used)
}

// noteResident updates the peak-occupancy statistic.
func (e *Entity) noteResident() {
	if r := e.Resident(); r > e.stats.MaxResident {
		e.stats.MaxResident = r
	}
}

// fl records one flight-recorder event: each lifecycle site's one
// recording call. With no ring attached the call compiles to a single
// untaken branch (Record is nil-receiver-safe and inlined), matching the
// Metrics/Ledger contract.
func (e *Entity) fl(t flight.EventType, src pdu.EntityID, seq pdu.Seq, kind pdu.Kind, peer pdu.EntityID, now time.Duration) {
	e.cfg.Flight.Record(int32(e.me), t, uint8(kind), int32(src), uint64(seq), int32(peer), int64(now))
}

// Flight returns the entity's flight recorder (nil when recording is
// off), so the runtime that moves its PDUs can add the wire-in/wire-out
// events the engine itself cannot see.
func (e *Entity) Flight() *flight.Ring { return e.cfg.Flight }

// --- Introspection (tests, benchmarks, tools) ---

// Seq returns the next sequence number this entity will assign.
func (e *Entity) Seq() pdu.Seq { return e.seq }

// REQ returns a copy of the next-expected vector.
func (e *Entity) REQ() []pdu.Seq {
	out := make([]pdu.Seq, e.n)
	copy(out, e.req)
	return out
}

// Resident returns the number of PDUs currently held in the receive-side
// logs (parked + RRL + PRL + commit stage + total-order release stage).
func (e *Entity) Resident() int {
	r := e.parkedTotal + e.rrlTotal + e.prl.Len() + e.ackedTotal
	if e.to != nil {
		r += e.to.pending.Len()
	}
	return r
}

// PRLSnapshot returns the current pre-acknowledged log in causal order.
func (e *Entity) PRLSnapshot() []*pdu.PDU { return e.prl.Slice() }

// Quiescent reports whether this entity owes the cluster nothing: no
// undelivered data, no queued submissions, no unanswered NeedAck.
func (e *Entity) Quiescent() bool { return !e.needsToSpeak() }
