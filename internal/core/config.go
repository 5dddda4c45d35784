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
//     and is then silent, so a message costs 2n+1 PDUs (§5).
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
	// DeferredAckInterval is the "predefined time" of the deferred
	// confirmation rule: an entity with confirmations owed sends a SYNC
	// at least this often.
	DeferredAckInterval time.Duration
	// RetransmitTimeout is how long to wait before re-issuing an RET for
	// a gap that has not closed, and the minimum spacing between
	// rebroadcasts of the same PDU.
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
	// PressureSuspectAfter, when positive alongside SuspectAfter and a
	// Ledger, shortens the suspicion timer while the ledger is under
	// pressure (≥ half budget): a stalled peer is the one thing that can
	// pin the logs indefinitely, so it is evicted before the budget pins
	// producers forever. Ignored without a Ledger or with SuspectAfter
	// zero — memory pressure alone never evicts anyone.
	PressureSuspectAfter time.Duration
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
	// Metrics, if non-nil, receives live instrumentation: the entity
	// mirrors its Stats counters into the atomic EntityMetrics after
	// every input (so scrapers on other goroutines read them without
	// touching entity state) and feeds the delivery-latency and
	// ack-wait histograms. Nil keeps the engine free of any
	// instrumentation cost beyond one untaken branch per input.
	Metrics *obsv.EntityMetrics
	// DisableDeferredConfirm turns off automatic SYNC/ACKONLY emission.
	// Scripted tests (such as the Table 1 golden test) use it to control
	// every PDU on the wire; production configurations leave it false.
	DisableDeferredConfirm bool
	// TotalOrder upgrades the service level from CO to TO (§2.3): all
	// entities deliver the identical sequence, still consistent with
	// causality. Implemented as a deterministic logical-time release
	// stage on top of the CO pipeline (see totalorder.go); it adds
	// delivery latency because a message is held until every source has
	// confirmed past it.
	TotalOrder bool
	// DenseFold disables the sparse ACK-fold fast paths: the entity
	// ignores Delta annotations on received PDUs and does not annotate
	// its own broadcasts, so every fold scans all n ACK entries. The
	// sparse paths claim to be exact, and the differential chaos test
	// replays identical seeds with and without DenseFold demanding
	// byte-identical trace digests. Production configurations leave it
	// false; benchmarks use it to measure the dense baseline (E17).
	DenseFold bool
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

// Stats counts protocol events at one entity since creation.
type Stats struct {
	// DataSent, SyncSent, AckOnlySent and RetSent count broadcast PDUs by
	// kind; MsgsSent counts the application messages sequenced into the
	// DATA PDUs, so MsgsSent ÷ DataSent is messages per DATA PDU (1 until
	// a backlog packs).
	DataSent    uint64
	MsgsSent    uint64
	SyncSent    uint64
	AckOnlySent uint64
	RetSent     uint64
	// DataRecv, SyncRecv, AckOnlyRecv and RetRecv count valid received
	// PDUs by kind (counted after validation, before duplicate checks).
	DataRecv    uint64
	SyncRecv    uint64
	AckOnlyRecv uint64
	RetRecv     uint64
	// Accepted counts in-order acceptances (including self-acceptances
	// and retransmitted PDUs accepted after repair).
	Accepted uint64
	// Duplicates counts sequenced PDUs discarded as already accepted.
	Duplicates uint64
	// Parked counts out-of-order sequenced PDUs buffered pending repair.
	Parked uint64
	// F1Detections counts loss detections by failure condition F1 (a
	// sequenced PDU beyond REQ, or a sender's own ACK column beyond our
	// evidence); F2Detections counts detections by F2 (an ACK entry for
	// a third source beyond our evidence). See §4.3.
	F1Detections uint64
	F2Detections uint64
	// Retransmitted counts own PDUs rebroadcast in response to RET.
	Retransmitted uint64
	// Preacked and Acked count pipeline progress; Committed counts PDUs
	// through the causal-closure commit stage; Delivered counts
	// messages handed to the application.
	Preacked  uint64
	Acked     uint64
	Committed uint64
	Delivered uint64
	// CPIDisplaced counts CPI insertions into the PRL that were not
	// tail appends; CPIDisplacement sums the entries bypassed across
	// them (total reorder distance).
	CPIDisplaced    uint64
	CPIDisplacement uint64
	// DeferredConfirms counts confirmations emitted by the deferred
	// confirmation rule (§5): SYNC or ACKONLY PDUs sent because a round,
	// a NeedAck answer or the deferred-ack timer fell due. LateConfirms
	// is the subset the timer fired.
	DeferredConfirms uint64
	LateConfirms     uint64
	// FlowBlocked counts submissions that had to wait for the window.
	FlowBlocked uint64
	// MaxResident is the peak number of PDUs simultaneously held in the
	// receive-side logs (pending + RRL + PRL) — the O(n) buffer claim of
	// Section 5 (experiment E4).
	MaxResident int
	// InvalidPDUs counts received PDUs rejected by validation.
	InvalidPDUs uint64
	// Evicted counts entities removed from the confirmation quorum here;
	// AutoSuspected counts those removed by the suspicion timer, and
	// PressureEvicted the subset that only fired because memory pressure
	// shortened the timer (see Config.PressureSuspectAfter).
	Evicted         uint64
	AutoSuspected   uint64
	PressureEvicted uint64
}

// Add accumulates o into s: every counter by sum, MaxResident by maximum
// (a peak, not a flow). It is the one aggregator for cluster-wide and
// cross-group totals, so a counter added to Stats is added here once.
func (s *Stats) Add(o Stats) {
	s.DataSent += o.DataSent
	s.MsgsSent += o.MsgsSent
	s.SyncSent += o.SyncSent
	s.AckOnlySent += o.AckOnlySent
	s.RetSent += o.RetSent
	s.DataRecv += o.DataRecv
	s.SyncRecv += o.SyncRecv
	s.AckOnlyRecv += o.AckOnlyRecv
	s.RetRecv += o.RetRecv
	s.Accepted += o.Accepted
	s.Duplicates += o.Duplicates
	s.Parked += o.Parked
	s.F1Detections += o.F1Detections
	s.F2Detections += o.F2Detections
	s.Retransmitted += o.Retransmitted
	s.Preacked += o.Preacked
	s.Acked += o.Acked
	s.Committed += o.Committed
	s.Delivered += o.Delivered
	s.CPIDisplaced += o.CPIDisplaced
	s.CPIDisplacement += o.CPIDisplacement
	s.DeferredConfirms += o.DeferredConfirms
	s.LateConfirms += o.LateConfirms
	s.FlowBlocked += o.FlowBlocked
	s.InvalidPDUs += o.InvalidPDUs
	s.Evicted += o.Evicted
	s.AutoSuspected += o.AutoSuspected
	s.PressureEvicted += o.PressureEvicted
	if o.MaxResident > s.MaxResident {
		s.MaxResident = o.MaxResident
	}
}
