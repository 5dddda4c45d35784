// Package core implements the causally ordering broadcast (CO) protocol of
// Nakamura & Takizawa as a deterministic, sans-IO state machine. An Entity
// consumes three kinds of input — application submissions, PDUs from the
// network, and clock ticks — and produces PDUs to broadcast plus
// causally ordered deliveries. All goroutine, channel, timer and socket
// concerns live in the callers (the root cobcast runtime, the discrete-
// event simulator, and the benchmarks), so the identical protocol code
// runs in every environment.
//
// Protocol summary (paper sections in parentheses):
//
//   - Every sequenced PDU carries SEQ and the vector ACK of next-expected
//     sequence numbers (§4.1). Acceptance is strictly in-order per source
//     (§4.2). Gaps are detected by the failure conditions F1/F2 and
//     repaired by selective retransmission via RET PDUs (§4.3).
//   - A PDU p from source k is pre-acknowledged once min_j AL[k][j] — the
//     minimum of everyone's reported next-expected-from-k — passes p.SEQ;
//     it then moves into the causality-ordered PRL via the CPI operation,
//     ordered by the sequence-number causality test of Theorem 4.1 (§4.4).
//   - p is acknowledged (and delivered) once min_j PAL[k][j] passes p.SEQ,
//     where PAL folds the ACK vectors of pre-acknowledged PDUs (§4.5).
//   - Flow control: minAL_i ≤ SEQ < minAL_i + min(W, minBUF/(H·2n)) (§4.2).
//   - Deferred confirmation: an entity owes two confirmation rounds per
//     accepted DATA — an empty SYNC after hearing from every peer (or a
//     timeout), then one more once every peer's first round is in —
//     and is then silent (§5). A DATA is its own sender's first round,
//     since it proves that its sender accepted it, so a message in a
//     warm cluster costs 2n PDUs and is delivered three one-way trips
//     after its send.
package core

import (
	"errors"
	"fmt"
	"time"

	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// Default protocol parameters; see Config.
const (
	DefaultWindow              = 16
	DefaultDeferredAckInterval = 5 * time.Millisecond
	DefaultRetransmitTimeout   = 20 * time.Millisecond
)

// The receive buffer of the flow condition (§4.2): every entity
// advertises BufferUnits in BUF, and a PDU occupies UnitsPerPDU of them
// (the paper's H). The condition divides the cluster minimum by
// UnitsPerPDU·2n, so credit needs N ≤ BufferUnits / (2·UnitsPerPDU).
const (
	BufferUnits = 4096
	UnitsPerPDU = 1
)

// Config parameterizes an Entity. The zero value is not valid; use
// Validate (called by New) to check a hand-built Config.
type Config struct {
	// ClusterID is the CID stamped on every PDU; PDUs with a different
	// CID are rejected.
	ClusterID uint32
	// ID is this entity's index, 0 ≤ ID < N.
	ID pdu.EntityID
	// N is the cluster size (≥ 2).
	N int
	// Window is the paper's W: the maximum number of own PDUs between
	// one's SEQ and the cluster-wide minimum acknowledgment minAL.
	Window pdu.Seq
	// DeferredAckInterval is the floor of the "predefined time" of the
	// deferred confirmation rule: an entity with confirmations owed sends
	// a late one two observed confirmation rounds after its last send,
	// never sooner than this, and exactly this until it has timed a round
	// or while flow-blocked.
	DeferredAckInterval time.Duration
	// RetransmitTimeout is the spacing of fresh-evidence RETs for one
	// source: a request for a new hole waits it out after the previous
	// RET for that source, and each RET asks for every hole known when
	// it goes, so a loss burst is asked for once and its repairs share
	// confirmation rounds. It is also the ceiling of the retry timeout —
	// two observed confirmation rounds, never below DeferredAckInterval —
	// after which a RET whose range is still unanswered is re-sent,
	// doubling per further retry (RFC 6298 backoff), and half of which a
	// source waits before it re-serves the same PDU; and the ceiling of
	// the deferred confirmation deadline.
	RetransmitTimeout time.Duration
	// SuspectAfter, when positive, auto-evicts a peer that has stayed
	// silent for this long while this entity owed the cluster
	// confirmations (see evict.go). Zero disables automatic suspicion;
	// Evict remains available for manual membership decisions.
	SuspectAfter time.Duration
	// Ledger, if non-nil, meters the bytes retained by this entity's
	// logs against a hard budget (see ledger.go). The entity is the
	// ledger's single writer, so a ledger must never be shared between
	// entities; producers read it for backpressure decisions. Nil keeps
	// accounting entirely off the hot path (one untaken branch per
	// transition).
	Ledger *Ledger
	// Flight, if non-nil, receives a flight-recorder event at every
	// lifecycle transition (sequence, accept, park/unpark, commit,
	// deliver, retransmit request/serve, eviction…), stamped with the
	// pipeline clock and this entity's ID. It is the engine's one event
	// stream: scrapers snapshot it concurrently via /tracez, and the §2.2
	// checker (internal/trace) reads its sequence, accept, deliver and
	// ret-serve events. The entity never reads it back. Nil costs one
	// untaken branch per transition, the same contract as Ledger and
	// Metrics.
	Flight *flight.Ring
	// Metrics, if non-nil, receives the delivery-latency and ack-wait
	// histograms. Nil keeps the engine free of any instrumentation cost
	// beyond one untaken branch per send, acceptance, commit and
	// delivery. The counters need no attachment: Stats and every state
	// snapshot carry them.
	Metrics *obsv.EntityMetrics
	// TotalOrder upgrades the service level from CO to TO (§2.3): all
	// entities deliver the identical sequence, still consistent with
	// causality. Implemented as a deterministic logical-time release
	// stage on top of the CO pipeline (see totalorder.go); it adds
	// delivery latency because a message is held until every source has
	// confirmed past it.
	TotalOrder bool
}

// Configuration errors.
var (
	ErrBadCluster = errors.New("core: cluster must have at least 2 entities")
	ErrBadID      = errors.New("core: entity id out of range")
	ErrBadWindow  = errors.New("core: window must be at least 1")
	ErrNoCredit   = errors.New("core: cluster too large for the receive buffer to grant flow-control credit")
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.DeferredAckInterval == 0 {
		c.DeferredAckInterval = DefaultDeferredAckInterval
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = DefaultRetransmitTimeout
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: n=%d", ErrBadCluster, c.N)
	}
	if c.ID < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("%w: id=%d n=%d", ErrBadID, c.ID, c.N)
	}
	if c.Window < 1 {
		return ErrBadWindow
	}
	if c.N > BufferUnits/(2*UnitsPerPDU) {
		return fmt.Errorf("%w: n=%d, at most %d", ErrNoCredit, c.N, BufferUnits/(2*UnitsPerPDU))
	}
	return nil
}

// Delivery is one causally ordered message handed to the application.
type Delivery struct {
	// Src is the original broadcaster.
	Src pdu.EntityID
	// SEQ is the source-assigned sequence number of the PDU that carried
	// the message, and Index the message's position inside it: 0 unless
	// the PDU was a pack, whose messages share the SEQ and count up from
	// 0. (Src, SEQ, Index) identifies a message.
	SEQ   pdu.Seq
	Index int
	// Data is the application payload. It is read-only: it aliases the
	// delivered PDU, which the entity retains (and may serve again in a
	// retransmission) and which other receivers may share.
	Data []byte
	// LTime is the message's logical time in TotalOrder mode (0 in CO
	// mode). Deliveries are totally ordered by (LTime, Src, SEQ, Index)
	// and the order is identical at every entity.
	LTime uint64
}

// Output collects the externally visible effects of one input: PDUs to
// broadcast (in order) and deliveries to the application (in causal
// order).
//
// Ownership: PDUs belongs to the caller. Deliveries is the entity's own
// buffer, valid until the next Submit, SubmitOwned, Receive, Tick or
// Evict on that entity, which clears and refills it: consume or copy the
// values (not the slice) before then. Each Delivery's Data stays valid
// for good, it aliases the delivered PDU, not the buffer. An input that
// delivers nothing returns an empty Deliveries.
type Output struct {
	PDUs       []*pdu.PDU
	Deliveries []Delivery
}

// Empty reports whether the input produced no effects.
func (o *Output) Empty() bool { return len(o.PDUs) == 0 && len(o.Deliveries) == 0 }

// Stats counts protocol events at one entity since creation. It is
// declared once, in obsv, so the state snapshot can carry it to /statez
// and /metrics; obsv documents each field.
type Stats = obsv.EntityStats
