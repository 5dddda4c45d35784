// Package flight is a lock-free, bounded flight recorder for protocol
// events on the real wire path. Each entity (one per group, on its shard)
// owns one Ring and records a fixed vocabulary of lifecycle events —
// submit, sequence, wire-out/in, accept, commit, deliver, retransmit
// request/serve, park/unpark, backpressure block/shed, suspicion — each
// stamped with the pipeline's nanosecond clock and the message's
// globally unique (src, seq) identity.
//
// Design constraints, in order:
//
//  1. Near-zero overhead when recording. Record is a reserve
//     (atomic add) plus four atomic word stores into a preallocated
//     slot: no locks, no allocation, no time syscall (callers pass the
//     timestamp the pipeline already has in hand).
//  2. One untaken branch when disabled. Record is nil-receiver-safe
//     and small enough to inline, so `cfg.Flight.Record(...)` with a
//     nil ring costs a single predictable branch — the same contract
//     as Config.Metrics / Config.Ledger.
//  3. Safe concurrent scrape. /tracez readers run on scraper
//     goroutines while owners keep recording. Every slot is a seqlock:
//     the writer invalidates (stamp=0), stores the payload words, then
//     publishes (stamp=index+1); a reader accepts a slot only if the
//     stamp is the expected index before and after reading the
//     payload. All accesses are atomic, so the race detector stays
//     quiet and a torn read is impossible — at worst a slot being
//     overwritten mid-scrape is skipped.
//
// The ring is bounded: new events overwrite the oldest. A scrape
// returns the most recent ≤ Cap() events in record order. The
// simulator records into a log instead (NewLog): the same slots, grown
// rather than wrapped, so a run's stream is complete.
//
// Each event also names the entity that recorded it. A node's ring has
// one recording entity; the simulator keeps one log per group, shared
// by that group's entities, and splits it by this tag. The §2.2
// checker (internal/trace) reads one such stream per entity.
package flight

import (
	"encoding/json"
	"sync/atomic"
)

// EventType identifies a protocol lifecycle transition: the one
// vocabulary the engine, the runtime around it and the §2.2 checker
// share.
type EventType uint8

// Flight event vocabulary. The comments give the site that records
// each event and the meaning of the Src/Seq/Peer fields beyond the
// default (Src/Seq = the message's MsgID, Peer = -1).
const (
	evNone EventType = iota

	// EvSubmit: application handed a payload to Broadcast. Recorded
	// before sequencing, so Seq is 0 — the EvSequence that follows
	// carries the assigned sequence number.
	EvSubmit
	// EvSequence: the local entity stamped its next SEQ on a DATA/SYNC
	// PDU and self-accepted it (broadcast begins).
	EvSequence
	// EvWireOut: the PDU was staged on the link for transmission.
	EvWireOut
	// EvWireIn: a PDU arrived off the wire and was decoded.
	EvWireIn
	// EvAccept: the PDU passed acceptance (REQ matched) and entered
	// the receipt-confirmed pipeline.
	EvAccept
	// EvCommit: every causal dependency is committed; the PDU left the
	// acknowledged stage.
	EvCommit
	// EvDeliver: the PDU was handed to the application.
	EvDeliver
	// EvRetRequest: a sequence gap was detected (F1/F2) and a RET was
	// addressed to the source. Src/Seq name the missing PDU; Peer is
	// the entity the request is addressed to (== Src for the paper's
	// source-only retransmission).
	EvRetRequest
	// EvRetServe: a RET for one of our own PDUs arrived and the PDU
	// was rebroadcast from the send log. Peer is the requester.
	EvRetServe
	// EvPark: a sequenced PDU arrived ahead of its per-source order
	// and was parked until the gap fills.
	EvPark
	// EvUnpark: a parked PDU's predecessor arrived; it re-entered
	// acceptance.
	EvUnpark
	// EvFlowBlock: the Section 2.2 flow condition refused a submit;
	// the payload queued in pendingSubmits.
	EvFlowBlock
	// EvBlock: the memory ledger blocked a producer (bounded-memory
	// backpressure). Seq counts nothing; Src is the local entity.
	EvBlock
	// EvShed: the memory ledger shed a submit instead of blocking.
	EvShed
	// EvEvict: Peer was evicted from the confirmation quorum
	// (manually or by suspicion). Src is the local entity.
	EvEvict

	numEventTypes
)

var eventNames = [numEventTypes]string{
	evNone:       "none",
	EvSubmit:     "submit",
	EvSequence:   "sequence",
	EvWireOut:    "wire-out",
	EvWireIn:     "wire-in",
	EvAccept:     "accept",
	EvCommit:     "commit",
	EvDeliver:    "deliver",
	EvRetRequest: "ret-request",
	EvRetServe:   "ret-serve",
	EvPark:       "park",
	EvUnpark:     "unpark",
	EvFlowBlock:  "flow-block",
	EvBlock:      "bp-block",
	EvShed:       "bp-shed",
	EvEvict:      "evict",
}

func (t EventType) String() string {
	if t < numEventTypes {
		return eventNames[t]
	}
	return "unknown"
}

// TypeFromName maps an event's wire name back to its EventType —
// consumers that decode /tracez JSON (where only TypeName survives)
// rehydrate Type with it. Unknown names map to 0.
func TypeFromName(name string) EventType {
	for t, n := range eventNames {
		if n == name {
			return EventType(t)
		}
	}
	return evNone
}

// Event is the decoded form of one recorded slot, as returned by
// Snapshot and serialized on /tracez.
type Event struct {
	// Entity is the entity that recorded the event.
	Entity int32 `json:"entity"`
	// At is the event time in nanoseconds on the owning runtime's
	// monotonic protocol clock (node: time.Since(start); sim: virtual
	// time). The owner's epoch converts it to wall time.
	At int64 `json:"at"`
	// Type names the lifecycle transition.
	Type EventType `json:"-"`
	// TypeName is Type rendered for JSON consumers.
	TypeName string `json:"type"`
	// Src and Seq identify the message: (src, seq) is globally unique.
	Src int32  `json:"src"`
	Seq uint64 `json:"seq"`
	// Kind is the PDU kind (pdu.Kind) where one applies, else 0.
	Kind uint8 `json:"kind,omitempty"`
	// Peer is the counterpart entity for events that have one
	// (ret-request target, ret-serve requester, evicted peer); -1 when
	// there is none.
	Peer int32 `json:"peer"`
}

// UnmarshalJSON decodes a /tracez event, restoring Type from TypeName.
func (e *Event) UnmarshalJSON(b []byte) error {
	type plain Event
	if err := json.Unmarshal(b, (*plain)(e)); err != nil {
		return err
	}
	e.Type = TypeFromName(e.TypeName)
	return nil
}

// slot is one seqlock-protected ring entry. stamp holds index+1 when
// the payload words are consistent and 0 while the writer is mid-store.
type slot struct {
	stamp  atomic.Uint64
	at     atomic.Uint64
	seq    atomic.Uint64
	packed atomic.Uint64 // entity(16) | src(16) | peer(16) | type(8) | kind(8)
}

const peerNone = 0xFFFF // packed encoding of Peer == -1

func pack(entity int32, t EventType, kind uint8, src int32, peer int32) uint64 {
	ps := uint64(uint16(src))
	pp := uint64(peerNone)
	if peer >= 0 {
		pp = uint64(uint16(peer))
	}
	return uint64(uint16(entity))<<48 | ps<<32 | pp<<16 | uint64(t)<<8 | uint64(kind)
}

func unpack(w uint64) (entity int32, t EventType, kind uint8, src int32, peer int32) {
	src = int32(uint16(w >> 32))
	peer = -1
	if p := uint16(w >> 16); p != peerNone {
		peer = int32(p)
	}
	return int32(uint16(w >> 48)), EventType(uint8(w >> 8)), uint8(w), src, peer
}

// Ring is a fixed-capacity flight recorder. Writers may record from
// multiple goroutines (the reserve is an atomic add), though in
// practice each ring has one owner plus the occasional producer-side
// backpressure event. Readers snapshot concurrently without stopping
// the writer. The zero *Ring (nil) is a valid disabled recorder.
type Ring struct {
	mask  uint64
	w     atomic.Uint64 // next slot index, monotonic
	slots []slot
}

// DefaultEvents is the ring capacity used when a caller asks for the
// default (size <= 0): enough to hold several seconds of per-message
// history at moderate load in 128 KiB per entity.
const DefaultEvents = 4096

// NewRing returns a recorder holding the most recent `size` events,
// rounded up to a power of two; size <= 0 selects DefaultEvents.
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultEvents
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// NewLog returns a recorder that never wraps: it doubles its slots
// whenever they fill, so Recorded never exceeds Cap. Growing moves the
// slots, so unlike a ring a log must not be snapshot while another
// goroutine records; the simulator, which records and reads on one
// goroutine, is what it is for.
func NewLog() *Ring {
	// An all-ones mask never folds an index back into the held slots.
	return &Ring{mask: ^uint64(0), slots: make([]slot, DefaultEvents)}
}

// Record appends one event recorded by entity. It is safe on a nil ring
// (one untaken branch) and never allocates on a ring. at is the
// caller's pipeline clock in nanoseconds — Record performs no time
// syscall itself.
func (r *Ring) Record(entity int32, t EventType, kind uint8, src int32, seq uint64, peer int32, at int64) {
	if r == nil {
		return
	}
	r.record(entity, t, kind, src, seq, peer, at)
}

func (r *Ring) record(entity int32, t EventType, kind uint8, src int32, seq uint64, peer int32, at int64) {
	idx := r.w.Add(1) - 1
	if idx&r.mask >= uint64(len(r.slots)) { // a full log; never a ring
		r.slots = append(r.slots, make([]slot, len(r.slots))...)
	}
	s := &r.slots[idx&r.mask]
	s.stamp.Store(0) // invalidate: readers mid-flight will reject
	s.at.Store(uint64(at))
	s.seq.Store(seq)
	s.packed.Store(pack(entity, t, kind, src, peer))
	s.stamp.Store(idx + 1) // publish
}

// Cap returns the ring capacity, or a log's current size (0 for a nil
// ring).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Recorded returns the total number of events ever recorded (0 for a
// nil ring); min(Recorded, Cap) are retained.
func (r *Ring) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.w.Load()
}

// Snapshot appends the retained events to dst in record order and
// returns the extended slice. It runs concurrently with writers: a
// slot overwritten mid-read fails its seqlock check and is skipped, so
// the result is always a set of consistent events, possibly missing a
// few of the oldest that were overtaken during the scan. Nil rings
// return dst unchanged.
func (r *Ring) Snapshot(dst []Event) []Event {
	if r == nil {
		return dst
	}
	end := r.w.Load()
	start := uint64(0)
	if n := uint64(len(r.slots)); end > n {
		start = end - n
	}
	for idx := start; idx < end; idx++ {
		s := &r.slots[idx&r.mask]
		if s.stamp.Load() != idx+1 {
			continue // overwritten (or being overwritten) since we read w
		}
		at := int64(s.at.Load())
		seq := s.seq.Load()
		packed := s.packed.Load()
		if s.stamp.Load() != idx+1 {
			continue // writer moved in while we were reading
		}
		entity, t, kind, src, peer := unpack(packed)
		dst = append(dst, Event{
			Entity:   entity,
			At:       at,
			Type:     t,
			TypeName: t.String(),
			Src:      src,
			Seq:      seq,
			Kind:     kind,
			Peer:     peer,
		})
	}
	return dst
}
