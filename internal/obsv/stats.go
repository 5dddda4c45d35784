package obsv

// EntityStats counts protocol events at one engine since creation. It is
// the engine's one counter set (core.Stats is this type): the engine's
// owner goroutine increments plain fields, Stats() copies them, and the
// state snapshot carries a copy to /statez and /metrics, where
// entityCounterFamilies names each field.
type EntityStats struct {
	// DataSent, SyncSent, AckOnlySent and RetSent count broadcast PDUs by
	// kind; MsgsSent counts the application messages sequenced into the
	// DATA PDUs, so MsgsSent ÷ DataSent is messages per DATA PDU (1 until
	// a backlog packs).
	DataSent    uint64 `json:"data_sent"`
	MsgsSent    uint64 `json:"msgs_sent"`
	SyncSent    uint64 `json:"sync_sent"`
	AckOnlySent uint64 `json:"ackonly_sent"`
	RetSent     uint64 `json:"ret_sent"`
	// RetRetries is the subset of RetSent that re-asked a range still
	// unanswered since the previous RET for that source.
	RetRetries uint64 `json:"ret_retries"`
	// DataRecv, SyncRecv, AckOnlyRecv and RetRecv count valid received
	// PDUs by kind (counted after validation, before duplicate checks).
	DataRecv    uint64 `json:"data_recv"`
	SyncRecv    uint64 `json:"sync_recv"`
	AckOnlyRecv uint64 `json:"ackonly_recv"`
	RetRecv     uint64 `json:"ret_recv"`
	// Accepted counts in-order acceptances (including self-acceptances
	// and retransmitted PDUs accepted after repair).
	Accepted uint64 `json:"accepted"`
	// Duplicates counts sequenced PDUs discarded as already accepted.
	Duplicates uint64 `json:"duplicates"`
	// Parked counts out-of-order sequenced PDUs buffered pending repair.
	Parked uint64 `json:"parked"`
	// F1Detections counts loss detections by failure condition F1 (a
	// sequenced PDU beyond REQ, or a sender's own ACK column beyond our
	// evidence); F2Detections counts detections by F2 (an ACK entry for
	// a third source beyond our evidence). See §4.3.
	F1Detections uint64 `json:"f1_detections"`
	F2Detections uint64 `json:"f2_detections"`
	// Retransmitted counts own PDUs rebroadcast in response to RET.
	Retransmitted uint64 `json:"retransmitted"`
	// Preacked and Acked count pipeline progress; Committed counts PDUs
	// through the causal-closure commit stage; Delivered counts
	// messages handed to the application.
	Preacked  uint64 `json:"preacked"`
	Acked     uint64 `json:"acked"`
	Committed uint64 `json:"committed"`
	Delivered uint64 `json:"delivered"`
	// CPIDisplaced counts CPI insertions into the PRL that were not
	// tail appends; CPIDisplacement sums the entries bypassed across
	// them (total reorder distance).
	CPIDisplaced    uint64 `json:"cpi_displaced"`
	CPIDisplacement uint64 `json:"cpi_displacement"`
	// DeferredConfirms counts confirmations emitted by the deferred
	// confirmation rule (§5): SYNC or ACKONLY PDUs sent because a round,
	// a NeedAck answer or the late-confirmation deadline fell due.
	// LateConfirms is the subset the deadline fired.
	DeferredConfirms uint64 `json:"deferred_confirms"`
	LateConfirms     uint64 `json:"late_confirms"`
	// FlowBlocked counts submissions that had to wait for the window.
	FlowBlocked uint64 `json:"flow_blocked"`
	// MaxResident is the peak number of PDUs simultaneously held in the
	// receive-side logs (pending + RRL + PRL) — the O(n) buffer claim of
	// Section 5 (experiment E4).
	MaxResident int `json:"max_resident"`
	// InvalidPDUs counts received PDUs rejected by validation.
	InvalidPDUs uint64 `json:"invalid_pdus"`
	// Evicted counts entities removed from the confirmation quorum here;
	// AutoSuspected counts those removed by the suspicion timer, and
	// PressureEvicted the subset that only fired because memory pressure
	// shortened the timer to a quarter of SuspectAfter.
	Evicted         uint64 `json:"evicted"`
	AutoSuspected   uint64 `json:"auto_suspected"`
	PressureEvicted uint64 `json:"pressure_evicted"`
}

// Add accumulates o into s: every counter by sum, MaxResident by maximum
// (a peak, not a flow). It is the one aggregator for cluster-wide and
// cross-group totals, so a counter added to EntityStats is added here
// once.
func (s *EntityStats) Add(o EntityStats) {
	s.DataSent += o.DataSent
	s.MsgsSent += o.MsgsSent
	s.SyncSent += o.SyncSent
	s.AckOnlySent += o.AckOnlySent
	s.RetSent += o.RetSent
	s.RetRetries += o.RetRetries
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

// entityCounterFamilies maps EntityStats fields onto Prometheus counter
// families, rendered from each node's state snapshot. Families with a
// kind/cond label share one TYPE line across variants, as the
// exposition format requires. PressureEvicted is rendered with the
// ledger series and MaxResident as a gauge, both in WriteMetrics.
type entitySample struct {
	extra string // extra label pair rendered verbatim, e.g. `,kind="data"`
	get   func(*EntityStats) uint64
}

type entityFamily struct {
	name, help string
	samples    []entitySample
}

var entityCounterFamilies = []entityFamily{
	{"cobcast_pdus_sent_total", "PDUs sent by this entity, by kind.", []entitySample{
		{`,kind="data"`, func(s *EntityStats) uint64 { return s.DataSent }},
		{`,kind="sync"`, func(s *EntityStats) uint64 { return s.SyncSent }},
		{`,kind="ackonly"`, func(s *EntityStats) uint64 { return s.AckOnlySent }},
		{`,kind="ret"`, func(s *EntityStats) uint64 { return s.RetSent }},
	}},
	{"cobcast_msgs_sent_total", "Application messages sequenced into DATA PDUs (divide by pdus_sent{kind=\"data\"} for messages per DATA PDU).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.MsgsSent }},
	}},
	{"cobcast_pdus_received_total", "PDUs received by this entity, by kind.", []entitySample{
		{`,kind="data"`, func(s *EntityStats) uint64 { return s.DataRecv }},
		{`,kind="sync"`, func(s *EntityStats) uint64 { return s.SyncRecv }},
		{`,kind="ackonly"`, func(s *EntityStats) uint64 { return s.AckOnlyRecv }},
		{`,kind="ret"`, func(s *EntityStats) uint64 { return s.RetRecv }},
	}},
	{"cobcast_accepted_total", "Sequenced PDUs accepted into the acknowledge list.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Accepted }},
	}},
	{"cobcast_duplicates_total", "Duplicate sequenced PDUs discarded.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Duplicates }},
	}},
	{"cobcast_parked_total", "Out-of-order PDUs parked awaiting a predecessor.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Parked }},
	}},
	{"cobcast_loss_detections_total", "Loss detections by condition: F1 = sequence gap, F2 = ACK-vector evidence.", []entitySample{
		{`,cond="f1"`, func(s *EntityStats) uint64 { return s.F1Detections }},
		{`,cond="f2"`, func(s *EntityStats) uint64 { return s.F2Detections }},
	}},
	{"cobcast_retransmissions_served_total", "Selective retransmissions served from the send log.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Retransmitted }},
	}},
	{"cobcast_ret_retries_total", "RET requests that re-asked a range still unanswered (a subset of pdus_sent{kind=\"ret\"}).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.RetRetries }},
	}},
	{"cobcast_preacked_total", "PDUs moved to the pre-acknowledged list (PACK transition).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Preacked }},
	}},
	{"cobcast_acked_total", "PDUs fully acknowledged (ACK transition).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Acked }},
	}},
	{"cobcast_committed_total", "PDUs committed (confirmed cluster-wide, ready for delivery ordering).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Committed }},
	}},
	{"cobcast_delivered_total", "Messages delivered to the application.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Delivered }},
	}},
	{"cobcast_cpi_displaced_total", "CPI insertions that were not tail appends.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.CPIDisplaced }},
	}},
	{"cobcast_cpi_displacement_positions_total", "Total list positions bypassed by displaced CPI insertions.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.CPIDisplacement }},
	}},
	{"cobcast_deferred_confirms_total", "Deferred confirmations emitted (SYNC/ACKONLY).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.DeferredConfirms }},
	}},
	{"cobcast_late_confirms_total", "Deferred confirmations fired by the deferred-ack timer (a subset of cobcast_deferred_confirms_total).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.LateConfirms }},
	}},
	{"cobcast_flow_blocked_total", "Submissions stalled by the flow window.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.FlowBlocked }},
	}},
	{"cobcast_invalid_pdus_total", "Malformed or mis-addressed PDUs rejected.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.InvalidPDUs }},
	}},
	{"cobcast_evicted_total", "Peers removed from this entity's confirmation quorum.", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.Evicted }},
	}},
	{"cobcast_auto_suspected_total", "Peers evicted by the suspicion timer (a subset of cobcast_evicted_total).", []entitySample{
		{"", func(s *EntityStats) uint64 { return s.AutoSuspected }},
	}},
}
