package obsv

// EntityMetrics holds one core.Entity's latency histograms. The
// entity's owner goroutine observes; scrapers read concurrently. The
// entity's counters are not here: they ride its state snapshot
// (StateSnapshot.Counters).
type EntityMetrics struct {
	// DeliverLatencyUS observes broadcast→local-deliver latency of
	// this entity's own DATA PDUs, in microseconds. AckWaitUS
	// observes accept→commit time (how long a PDU waited for the
	// cluster to confirm it), in microseconds.
	DeliverLatencyUS *Histogram
	AckWaitUS        *Histogram
}

// NewEntityMetrics allocates an EntityMetrics with default histogram
// boundaries.
func NewEntityMetrics() *EntityMetrics {
	return &EntityMetrics{
		DeliverLatencyUS: NewHistogram(LatencyBucketsUS()...),
		AckWaitUS:        NewHistogram(LatencyBucketsUS()...),
	}
}

// LinkMetrics counts link-layer flush behaviour for one node.
type LinkMetrics struct {
	// Flushes counts flush operations that put at least one PDU on
	// the wire; FlushedPDUs sums the PDUs across them. EarlyFlushes
	// counts flushes forced mid-batch because the next PDU would
	// have overflowed the datagram (wireFrames) or batch cap (memFrames).
	Flushes, FlushedPDUs, EarlyFlushes Counter

	// BytesOut counts encoded frame bytes sent and BytesIn frame bytes
	// received and accepted (wire substrate only: memFrames moves decoded
	// PDUs).
	BytesOut, BytesIn Counter

	// StampDesyncs counts inbound delta entries dropped because
	// this receiver had no reference stamp for them (pdu.ErrDeltaDesync)
	// — a loss-amplification event repaired by retransmission or the
	// next full-stamp sync point, not a protocol error.
	StampDesyncs Counter

	// DecodeDrops counts inbound frames whose decode failed for any
	// other reason — a truncated or corrupt frame, a retired header
	// version: the PDUs before the fault stand and the rest of the frame
	// is lost, repaired like transport loss.
	DecodeDrops Counter

	// EncodeDrops counts outbound PDUs the frame encoder rejected (a
	// field past its wire width) and dropped unsent: an engine emits only
	// encodable PDUs, so any count is a bug.
	EncodeDrops Counter

	// UnknownGroups counts inbound group-addressed (v3) frames dropped
	// whole for an unknown or out-of-range group ID: the header's group
	// exceeds pdu.MaxGroupID, the group table is at its MaxGroups
	// bound, or the group's engine could not be built. Each is a lost
	// datagram the protocol treats like transport loss, never a crash.
	UnknownGroups Counter

	// FlushBatch observes PDUs-per-flush.
	FlushBatch *Histogram
}

// NewLinkMetrics allocates a LinkMetrics with default batch buckets.
func NewLinkMetrics() *LinkMetrics {
	return &LinkMetrics{FlushBatch: NewHistogram(BatchBuckets()...)}
}

// Flush records one flush of n PDUs, early if it was forced before the
// loop went idle. Safe on a nil receiver.
func (m *LinkMetrics) Flush(n int, early bool) {
	if m == nil || n <= 0 {
		return
	}
	m.Flushes.Inc()
	m.FlushedPDUs.Add(uint64(n))
	if early {
		m.EarlyFlushes.Inc()
	}
	m.FlushBatch.Observe(uint64(n))
}

// FlushBytes records one encoded frame of n bytes leaving the link.
// Safe on a nil receiver.
func (m *LinkMetrics) FlushBytes(n int) {
	if m != nil {
		m.BytesOut.Add(uint64(n))
	}
}

// RecvBytes records one received frame of n bytes. Safe on a nil
// receiver.
func (m *LinkMetrics) RecvBytes(n int) {
	if m != nil {
		m.BytesIn.Add(uint64(n))
	}
}

// StampDesync records one inbound delta entry dropped for a missing
// reference stamp. Safe on a nil receiver.
func (m *LinkMetrics) StampDesync() {
	if m == nil {
		return
	}
	m.StampDesyncs.Inc()
}

// DecodeDrop records one inbound frame whose decode failed. Safe on a
// nil receiver.
func (m *LinkMetrics) DecodeDrop() {
	if m == nil {
		return
	}
	m.DecodeDrops.Inc()
}

// EncodeDrop records one outbound PDU the encoder rejected. Safe on a
// nil receiver.
func (m *LinkMetrics) EncodeDrop() {
	if m == nil {
		return
	}
	m.EncodeDrops.Inc()
}

// UnknownGroup records one inbound frame dropped whole for an unknown
// or out-of-range group ID. Safe on a nil receiver.
func (m *LinkMetrics) UnknownGroup() {
	if m == nil {
		return
	}
	m.UnknownGroups.Inc()
}

// TransportMetrics counts datagram-level UDP transport activity
// (internal/udpnet). It is also the storage for udpnet's own Stats —
// a single counting scheme rather than parallel sets of atomics.
type TransportMetrics struct {
	// Sent/Received count datagrams on the wire. Overrun counts
	// inbound datagrams dropped because the receive queue was full,
	// ReadErrors transient socket read errors, Oversize local sends
	// rejected for exceeding the datagram budget.
	Sent, Received, Overrun, ReadErrors, Oversize Counter

	// SendErrors counts per-peer datagram transmissions the kernel
	// rejected (EPERM, ENOBUFS, unreachable peer, ...). Sent and
	// BytesSent count only successful transmissions on every path, so
	// Sent + SendErrors is the number attempted and an EPERM/ENOBUFS
	// storm shows up here instead of as mystery loss.
	SendErrors Counter

	// BytesSent/BytesReceived count datagram payload bytes on the
	// wire (BytesSent once per successful peer transmission, like
	// Sent, identically on the batched and per-datagram paths).
	BytesSent, BytesReceived Counter

	// SendmmsgCalls/RecvmmsgCalls count batched syscalls issued by the
	// sendmmsg/recvmmsg fast path; both stay 0 on the portable
	// per-datagram path. Sent/SendmmsgCalls and Received/RecvmmsgCalls
	// are the observed amortization ratios.
	SendmmsgCalls, RecvmmsgCalls Counter

	// SendBatch/RecvBatch observe datagrams per batched syscall (the
	// DatagramsPerCall distribution). Nil unless the transport runs
	// the batched path; Observe is nil-safe.
	SendBatch, RecvBatch *Histogram
}

// TransportState is slow-changing transport configuration published to
// /statez alongside the node snapshots: which wire path the transport
// runs and the effective kernel socket buffer sizes. Effective sizes
// are read back from the socket where the platform allows (Linux
// doubles and caps the requested value against rmem_max/wmem_max);
// 0 means the OS default was left in place.
type TransportState struct {
	Transport        string `json:"transport"`
	BatchSyscalls    bool   `json:"batch_syscalls"`
	ReadBufferBytes  int    `json:"read_buffer_bytes"`
	WriteBufferBytes int    `json:"write_buffer_bytes"`
}

// NetworkMetrics counts the in-memory simulated network
// (internal/network). All counters are in PDUs, not datagrams, so they
// stay comparable across batching configurations: Sent counts
// point-to-point PDU transmissions, Delivered PDUs handed to inboxes,
// and the Dropped counters the fault classes.
type NetworkMetrics struct {
	Sent, Delivered                               Counter
	DroppedLoss, DroppedOverrun, DroppedPartition Counter
}

// StateSnapshot is a consistent point-in-time copy of one entity's
// protocol state, taken on the entity's owner goroutine (see
// core.Entity.Snapshot). Plain slices and integers so it marshals
// directly to JSON for /statez.
type StateSnapshot struct {
	Node string `json:"node"`
	// Group is the ordered group this engine serves (0 = the default
	// group); per-group sections appear in /statez under the owning
	// node's label with bounded cardinality.
	Group uint32 `json:"group,omitempty"`

	// Seq is the entity's own send sequence number; REQ[k] the next
	// expected sequence from source k; Committed[k] the highest
	// sequence from k confirmed by every live entity.
	Seq       uint64   `json:"seq"`
	REQ       []uint64 `json:"req"`
	MinAL     []uint64 `json:"min_al"`
	MinPAL    []uint64 `json:"min_pal"`
	Committed []uint64 `json:"committed"`

	// Log depths: RRL per source, PRL/ARL total, parked PDUs waiting
	// for predecessors, sendlog PDUs retained for retransmission,
	// submissions queued behind the flow window.
	RRL            []int `json:"rrl"`
	PRL            int   `json:"prl"`
	ARL            int   `json:"arl"`
	Parked         int   `json:"parked"`
	SendLog        int   `json:"sendlog"`
	PendingSubmits int   `json:"pending_submits"`

	// DATA-specific depths: the ones a healthy cluster drains to zero
	// at quiescence. Trailing SYNCs may legitimately remain in the
	// aggregate depths above, so liveness questions ("is anything
	// stuck?") should read these. ReleasePending counts DATA PDUs held
	// by the total-order release stage (always 0 in CO mode).
	ParkedData     int `json:"parked_data"`
	SendLogData    int `json:"sendlog_data"`
	DataResident   int `json:"data_resident"`
	ReleasePending int `json:"release_pending"`

	// BufFree is the remaining buffer allocation in units; BufUnits
	// the configured total, so occupancy = BufUnits - BufFree.
	BufFree  uint32 `json:"buf_free"`
	BufUnits uint32 `json:"buf_units"`

	// RoundUS is the smoothed time, in µs, an own DATA takes to be
	// acknowledged by every live peer (0 until the first clean sample);
	// RetryAfterUS is the retry timeout: 2·RoundUS clamped to
	// [DeferredAckInterval, RetransmitTimeout], the first wait before a
	// RET re-asks an unanswered range (doubling per further retry up to
	// RetransmitTimeout), and twice the hold-off before this entity
	// re-serves a PDU; LateAfterUS is the late-confirmation deadline in
	// force: the retry timeout, and DeferredAckInterval while the window
	// holds submissions back.
	RoundUS      int64 `json:"round_us"`
	RetryAfterUS int64 `json:"retry_after_us"`
	LateAfterUS  int64 `json:"late_after_us"`

	// Memory-ledger state, present only when the engine runs with a
	// byte budget (cobcast.WithMemoryBudget). LedgerBytes/LedgerPDUs
	// gauge the bytes and PDUs currently retained by the logs against
	// LedgerBudget; BackpressureBlocked/BackpressureShed count producer
	// submissions blocked or shed at the budget.
	LedgerBytes         int64  `json:"ledger_bytes,omitempty"`
	LedgerPDUs          int64  `json:"ledger_pdus,omitempty"`
	LedgerBudget        int64  `json:"ledger_budget,omitempty"`
	BackpressureBlocked uint64 `json:"backpressure_blocked,omitempty"`
	BackpressureShed    uint64 `json:"backpressure_shed,omitempty"`

	// Quiescent reports whether the entity has no unconfirmed local
	// sends and no buffered remote PDUs.
	Quiescent bool `json:"quiescent"`

	// Counters is a copy of the entity's protocol counters, taken with
	// the rest of the snapshot: /metrics renders its counter families
	// from it.
	Counters EntityStats `json:"counters"`
}
