package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"cobcast/internal/flight"
)

// SnapshotFunc produces a point-in-time state snapshot of one entity.
// ok is false when the snapshot could not be taken (for example the
// node's loop was busy past the snapshot deadline); the scraper then
// simply omits that node rather than blocking.
type SnapshotFunc func() (StateSnapshot, bool)

// Registry is the collection point the runtime publishes metrics into
// and the HTTP endpoint scrapes from. Registration happens at node
// construction; scraping happens on arbitrary goroutines. Link,
// transport and network counters and every histogram are atomic loads.
// An engine's counters and gauges come from its state snapshot, which
// the engine's owner takes between inputs: a scrape never blocks the
// protocol, and a node whose owner stays busy past the snapshot deadline
// is missing from that scrape's engine counters as well as its gauges.
type Registry struct {
	mu         sync.Mutex
	nodes      []nodeEntry
	transports []labeledTransport
	networks   []labeledNetwork
	// start anchors the process-uptime gauge (registry creation time).
	start time.Time
	// rt accumulates GC pause observations across scrapes (runtime.go).
	rt runtimeTracker
}

type nodeEntry struct {
	label string
	em    *EntityMetrics
	lm    *LinkMetrics
	snap  SnapshotFunc
	// fr and epoch publish the node's flight recorder on /tracez
	// (RegisterFlight); stalls its stall-analyzer provider
	// (RegisterStalls).
	fr     *flight.Ring
	epoch  int64
	stalls StallsFunc
}

type labeledTransport struct {
	label string
	m     *TransportMetrics
	// state is the transport's static configuration for /statez; nil
	// until SetTransportState.
	state *TransportState
}

type labeledNetwork struct {
	label string
	m     *NetworkMetrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{start: time.Now()} }

// uniqueLabel disambiguates duplicate labels (two clusters in one
// process, say) by suffixing #2, #3, ... so Prometheus series stay
// distinct.
func uniqueLabel(label string, taken func(string) bool) string {
	if !taken(label) {
		return label
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s#%d", label, i)
		if !taken(cand) {
			return cand
		}
	}
}

// RegisterNode publishes one node's entity metrics, link metrics, and
// snapshot provider under the given label. Any of the three may be
// nil. It returns the (possibly disambiguated) label actually used.
func (r *Registry) RegisterNode(label string, em *EntityMetrics, lm *LinkMetrics, snap SnapshotFunc) string {
	if r == nil {
		return label
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	label = uniqueLabel(label, func(s string) bool {
		for _, n := range r.nodes {
			if n.label == s {
				return true
			}
		}
		return false
	})
	r.nodes = append(r.nodes, nodeEntry{label: label, em: em, lm: lm, snap: snap})
	return label
}

// RegisterTransport publishes one UDP transport's datagram counters.
func (r *Registry) RegisterTransport(label string, m *TransportMetrics) string {
	if r == nil || m == nil {
		return label
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	label = uniqueLabel(label, func(s string) bool {
		for _, t := range r.transports {
			if t.label == s {
				return true
			}
		}
		return false
	})
	r.transports = append(r.transports, labeledTransport{label: label, m: m})
	return label
}

// SetTransportState attaches static configuration (wire path, socket
// buffer sizes) to a transport registered under label (the label
// RegisterTransport returned). Unknown labels are ignored.
func (r *Registry) SetTransportState(label string, s TransportState) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.transports {
		if r.transports[i].label == label {
			s.Transport = label
			r.transports[i].state = &s
			return
		}
	}
}

// RegisterNetwork publishes one in-memory network's counters.
func (r *Registry) RegisterNetwork(label string, m *NetworkMetrics) string {
	if r == nil || m == nil {
		return label
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	label = uniqueLabel(label, func(s string) bool {
		for _, n := range r.networks {
			if n.label == s {
				return true
			}
		}
		return false
	})
	r.networks = append(r.networks, labeledNetwork{label: label, m: m})
	return label
}

// snapshotLists copies the registration lists so rendering happens
// without holding the registry lock.
func (r *Registry) snapshotLists() (nodes []nodeEntry, transports []labeledTransport, networks []labeledNetwork) {
	r.mu.Lock()
	defer r.mu.Unlock()
	nodes = append(nodes, r.nodes...)
	transports = append(transports, r.transports...)
	networks = append(networks, r.networks...)
	return
}

var linkCounterFamilies = []struct {
	name, help string
	get        func(*LinkMetrics) *Counter
}{
	{"cobcast_link_flushes_total", "Link flushes that put at least one PDU on the wire.", func(m *LinkMetrics) *Counter { return &m.Flushes }},
	{"cobcast_link_flushed_pdus_total", "PDUs flushed by the link layer.", func(m *LinkMetrics) *Counter { return &m.FlushedPDUs }},
	{"cobcast_link_early_flushes_total", "Flushes forced mid-batch by the datagram/batch cap.", func(m *LinkMetrics) *Counter { return &m.EarlyFlushes }},
	{"cobcast_link_bytes_sent_total", "Encoded frame bytes sent.", func(m *LinkMetrics) *Counter { return &m.BytesOut }},
	{"cobcast_link_bytes_received_total", "Frame bytes received.", func(m *LinkMetrics) *Counter { return &m.BytesIn }},
	{"cobcast_link_stamp_desyncs_total", "Inbound delta entries dropped for a missing reference stamp (treated as loss).", func(m *LinkMetrics) *Counter { return &m.StampDesyncs }},
	{"cobcast_link_decode_drops_total", "Inbound frames whose decode failed, truncated or corrupt (treated as loss).", func(m *LinkMetrics) *Counter { return &m.DecodeDrops }},
	{"cobcast_link_encode_drops_total", "Outbound PDUs the frame encoder rejected and dropped unsent.", func(m *LinkMetrics) *Counter { return &m.EncodeDrops }},
	{"cobcast_link_unknown_group_frames_total", "Inbound group-addressed frames dropped for an unknown or out-of-range group ID (treated as loss).", func(m *LinkMetrics) *Counter { return &m.UnknownGroups }},
}

var transportCounterFamilies = []struct {
	name, help string
	get        func(*TransportMetrics) *Counter
}{
	{"cobcast_transport_datagrams_sent_total", "Datagrams sent by the UDP transport.", func(m *TransportMetrics) *Counter { return &m.Sent }},
	{"cobcast_transport_datagrams_received_total", "Datagrams received by the UDP transport.", func(m *TransportMetrics) *Counter { return &m.Received }},
	{"cobcast_transport_overruns_total", "Inbound datagrams dropped on receive-queue overrun.", func(m *TransportMetrics) *Counter { return &m.Overrun }},
	{"cobcast_transport_read_errors_total", "Transient socket read errors.", func(m *TransportMetrics) *Counter { return &m.ReadErrors }},
	{"cobcast_transport_oversize_total", "Local sends rejected for exceeding the datagram budget.", func(m *TransportMetrics) *Counter { return &m.Oversize }},
	{"cobcast_transport_send_errors_total", "Per-peer datagram transmissions rejected by the kernel (EPERM, ENOBUFS, ...).", func(m *TransportMetrics) *Counter { return &m.SendErrors }},
	{"cobcast_transport_bytes_sent_total", "Datagram bytes sent by the UDP transport (counted once per successful peer transmission).", func(m *TransportMetrics) *Counter { return &m.BytesSent }},
	{"cobcast_transport_bytes_received_total", "Datagram bytes received by the UDP transport.", func(m *TransportMetrics) *Counter { return &m.BytesReceived }},
	{"cobcast_transport_sendmmsg_calls_total", "sendmmsg syscalls issued by the batched send path.", func(m *TransportMetrics) *Counter { return &m.SendmmsgCalls }},
	{"cobcast_transport_recvmmsg_calls_total", "recvmmsg syscalls issued by the batched receive path.", func(m *TransportMetrics) *Counter { return &m.RecvmmsgCalls }},
}

// WriteMetrics renders every registered metric in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WriteMetrics(w io.Writer) error {
	nodes, transports, networks := r.snapshotLists()

	// Every counter and gauge of an engine comes from the one snapshot
	// taken here. A node whose snapshot provider declines (its shard
	// stayed busy past the scrape timeout) is omitted from this scrape.
	var snaps []snappedNode
	for _, n := range nodes {
		if n.snap == nil {
			continue
		}
		if s, ok := n.snap(); ok {
			snaps = append(snaps, snappedNode{n.label, s})
		}
	}

	bw := &errWriter{w: w}
	for _, fam := range entityCounterFamilies {
		if len(snaps) == 0 {
			break
		}
		bw.printf("# HELP %s %s\n# TYPE %s counter\n", fam.name, fam.help, fam.name)
		for _, sn := range snaps {
			for _, s := range fam.samples {
				bw.printf("%s{node=%q%s} %d\n", fam.name, sn.label, s.extra, s.get(&sn.s.Counters))
			}
		}
	}
	writeHistFamily(bw, "cobcast_deliver_latency_us", "Broadcast-to-deliver latency of own DATA PDUs, microseconds.", nodes,
		func(m *EntityMetrics) *Histogram { return m.DeliverLatencyUS })
	writeHistFamily(bw, "cobcast_ack_wait_us", "Accept-to-commit wait per PDU, microseconds.", nodes,
		func(m *EntityMetrics) *Histogram { return m.AckWaitUS })

	for _, fam := range linkCounterFamilies {
		wroteHeader := false
		for _, n := range nodes {
			if n.lm == nil {
				continue
			}
			if !wroteHeader {
				bw.printf("# HELP %s %s\n# TYPE %s counter\n", fam.name, fam.help, fam.name)
				wroteHeader = true
			}
			bw.printf("%s{node=%q} %d\n", fam.name, n.label, fam.get(n.lm).Load())
		}
	}
	{
		wroteHeader := false
		for _, n := range nodes {
			if n.lm == nil || n.lm.FlushBatch == nil {
				continue
			}
			if !wroteHeader {
				bw.printf("# HELP cobcast_link_flush_batch_pdus PDUs per link flush.\n# TYPE cobcast_link_flush_batch_pdus histogram\n")
				wroteHeader = true
			}
			writeHistogram(bw, "cobcast_link_flush_batch_pdus", n.label, n.lm.FlushBatch.Snapshot())
		}
	}

	for _, fam := range transportCounterFamilies {
		wroteHeader := false
		for _, t := range transports {
			if !wroteHeader {
				bw.printf("# HELP %s %s\n# TYPE %s counter\n", fam.name, fam.help, fam.name)
				wroteHeader = true
			}
			bw.printf("%s{transport=%q} %d\n", fam.name, t.label, fam.get(t.m).Load())
		}
	}
	writeTransportHist(bw, "cobcast_transport_send_batch_datagrams",
		"Datagrams per sendmmsg call.", transports,
		func(m *TransportMetrics) *Histogram { return m.SendBatch })
	writeTransportHist(bw, "cobcast_transport_recv_batch_datagrams",
		"Datagrams per recvmmsg call.", transports,
		func(m *TransportMetrics) *Histogram { return m.RecvBatch })
	{
		wroteHeader := false
		for _, t := range transports {
			if t.state == nil {
				continue
			}
			if !wroteHeader {
				bw.printf("# HELP cobcast_transport_socket_buffer_bytes Effective kernel socket buffer size, by direction (0 = OS default).\n# TYPE cobcast_transport_socket_buffer_bytes gauge\n")
				wroteHeader = true
			}
			bw.printf("cobcast_transport_socket_buffer_bytes{transport=%q,dir=\"read\"} %d\n", t.label, t.state.ReadBufferBytes)
			bw.printf("cobcast_transport_socket_buffer_bytes{transport=%q,dir=\"write\"} %d\n", t.label, t.state.WriteBufferBytes)
		}
	}

	if len(networks) > 0 {
		bw.printf("# HELP cobcast_net_pdus_sent_total Point-to-point PDU transmissions on the in-memory network.\n# TYPE cobcast_net_pdus_sent_total counter\n")
		for _, n := range networks {
			bw.printf("cobcast_net_pdus_sent_total{net=%q} %d\n", n.label, n.m.Sent.Load())
		}
		bw.printf("# HELP cobcast_net_pdus_delivered_total PDUs delivered by the in-memory network.\n# TYPE cobcast_net_pdus_delivered_total counter\n")
		for _, n := range networks {
			bw.printf("cobcast_net_pdus_delivered_total{net=%q} %d\n", n.label, n.m.Delivered.Load())
		}
		bw.printf("# HELP cobcast_net_pdus_dropped_total PDUs dropped by the in-memory network, by fault class.\n# TYPE cobcast_net_pdus_dropped_total counter\n")
		for _, n := range networks {
			bw.printf("cobcast_net_pdus_dropped_total{net=%q,cause=\"loss\"} %d\n", n.label, n.m.DroppedLoss.Load())
			bw.printf("cobcast_net_pdus_dropped_total{net=%q,cause=\"overrun\"} %d\n", n.label, n.m.DroppedOverrun.Load())
			bw.printf("cobcast_net_pdus_dropped_total{net=%q,cause=\"partition\"} %d\n", n.label, n.m.DroppedPartition.Load())
		}
	}

	// Live-state gauges, from the same snapshots.
	writeGauge(bw, "cobcast_seq", "Entity send sequence number.", snaps, func(s StateSnapshot) int64 { return int64(s.Seq) })
	writeGauge(bw, "cobcast_rrl_depth", "Receive/retransmission list depth, summed over sources.", snaps, func(s StateSnapshot) int64 {
		var t int64
		for _, d := range s.RRL {
			t += int64(d)
		}
		return t
	})
	writeGauge(bw, "cobcast_prl_depth", "Pre-acknowledged list depth.", snaps, func(s StateSnapshot) int64 { return int64(s.PRL) })
	writeGauge(bw, "cobcast_arl_depth", "Acknowledged (commit-ready) list depth.", snaps, func(s StateSnapshot) int64 { return int64(s.ARL) })
	writeGauge(bw, "cobcast_parked_pdus", "PDUs parked awaiting predecessors.", snaps, func(s StateSnapshot) int64 { return int64(s.Parked) })
	writeGauge(bw, "cobcast_data_resident", "Accepted-but-undelivered DATA PDUs (drains to 0 at quiescence).", snaps, func(s StateSnapshot) int64 { return int64(s.DataResident) })
	writeGauge(bw, "cobcast_sendlog_pdus", "PDUs retained in the send log for retransmission.", snaps, func(s StateSnapshot) int64 { return int64(s.SendLog) })
	writeGauge(bw, "cobcast_pending_submits", "Submissions queued behind the flow window.", snaps, func(s StateSnapshot) int64 { return int64(s.PendingSubmits) })
	writeGauge(bw, "cobcast_buf_free_units", "Remaining buffer allocation, units.", snaps, func(s StateSnapshot) int64 { return int64(s.BufFree) })
	writeGauge(bw, "cobcast_buf_total_units", "Configured buffer size, units.", snaps, func(s StateSnapshot) int64 { return int64(s.BufUnits) })
	writeGauge(bw, "cobcast_max_resident_pdus", "Peak PDUs held at once in the receive-side logs.", snaps, func(s StateSnapshot) int64 { return int64(s.Counters.MaxResident) })
	writeGauge(bw, "cobcast_quiescent", "1 when the entity has no unconfirmed or buffered PDUs.", snaps, func(s StateSnapshot) int64 {
		if s.Quiescent {
			return 1
		}
		return 0
	})

	// Memory-ledger series, only for nodes running with a byte budget
	// (LedgerBudget > 0 marks a ledgered engine).
	var ledgered []snappedNode
	for _, sn := range snaps {
		if sn.s.LedgerBudget > 0 {
			ledgered = append(ledgered, sn)
		}
	}
	writeGauge(bw, "cobcast_ledger_bytes", "Bytes retained by the entity's logs, metered against the memory budget.", ledgered, func(s StateSnapshot) int64 { return s.LedgerBytes })
	writeGauge(bw, "cobcast_ledger_pdus", "PDU references retained by the entity's logs.", ledgered, func(s StateSnapshot) int64 { return s.LedgerPDUs })
	writeGauge(bw, "cobcast_ledger_budget_bytes", "Configured memory budget, bytes.", ledgered, func(s StateSnapshot) int64 { return s.LedgerBudget })
	writeCounterFromSnaps(bw, "cobcast_backpressure_blocked_total", "Producer submissions blocked at the memory budget.", ledgered, func(s StateSnapshot) int64 { return int64(s.BackpressureBlocked) })
	writeCounterFromSnaps(bw, "cobcast_backpressure_shed_total", "Producer submissions shed at the memory budget.", ledgered, func(s StateSnapshot) int64 { return int64(s.BackpressureShed) })
	writeCounterFromSnaps(bw, "cobcast_pressure_evictions_total", "Peers evicted on the pressure-shortened suspicion timer.", ledgered, func(s StateSnapshot) int64 { return int64(s.Counters.PressureEvicted) })

	// Flight-recorder depth: total events ever recorded per ring, so a
	// dashboard can tell a dead recorder from a quiet one.
	{
		wroteHeader := false
		for _, n := range nodes {
			if n.fr == nil {
				continue
			}
			if !wroteHeader {
				bw.printf("# HELP cobcast_flight_events_total Protocol events recorded by the flight recorder (ring retains the most recent).\n# TYPE cobcast_flight_events_total counter\n")
				wroteHeader = true
			}
			bw.printf("cobcast_flight_events_total{node=%q} %d\n", n.label, n.fr.Recorded())
		}
	}

	r.writeRuntimeMetrics(bw)
	return bw.err
}

// writeCounterFromSnaps is writeGauge for a monotone counter that rides
// the state snapshot (the ledger's producer-side totals live on the
// ledger, sampled at snapshot time).
func writeCounterFromSnaps(bw *errWriter, name, help string, snaps []snappedNode, get func(StateSnapshot) int64) {
	if len(snaps) == 0 {
		return
	}
	bw.printf("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, sn := range snaps {
		bw.printf("%s{node=%q} %d\n", name, sn.label, get(sn.s))
	}
}

type snappedNode struct {
	label string
	s     StateSnapshot
}

func writeGauge(bw *errWriter, name, help string, snaps []snappedNode, get func(StateSnapshot) int64) {
	if len(snaps) == 0 {
		return
	}
	bw.printf("# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for _, sn := range snaps {
		bw.printf("%s{node=%q} %d\n", name, sn.label, get(sn.s))
	}
}

func writeTransportHist(bw *errWriter, name, help string, transports []labeledTransport, get func(*TransportMetrics) *Histogram) {
	wroteHeader := false
	for _, t := range transports {
		h := get(t.m)
		if h == nil {
			continue
		}
		if !wroteHeader {
			bw.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
			wroteHeader = true
		}
		writeLabeledHistogram(bw, name, "transport", t.label, h.Snapshot())
	}
}

func writeHistFamily(bw *errWriter, name, help string, nodes []nodeEntry, get func(*EntityMetrics) *Histogram) {
	wroteHeader := false
	for _, n := range nodes {
		if n.em == nil || get(n.em) == nil {
			continue
		}
		if !wroteHeader {
			bw.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
			wroteHeader = true
		}
		writeHistogram(bw, name, n.label, get(n.em).Snapshot())
	}
}

func writeHistogram(bw *errWriter, name, node string, s HistogramSnapshot) {
	writeLabeledHistogram(bw, name, "node", node, s)
}

func writeLabeledHistogram(bw *errWriter, name, key, val string, s HistogramSnapshot) {
	for i, b := range s.Bounds {
		bw.printf("%s_bucket{%s=%q,le=\"%d\"} %d\n", name, key, val, b, s.Cumulative[i])
	}
	bw.printf("%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, key, val, s.Count)
	bw.printf("%s_sum{%s=%q} %d\n", name, key, val, s.Sum)
	bw.printf("%s_count{%s=%q} %d\n", name, key, val, s.Count)
}

// errWriter latches the first write error so render code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Statez is the JSON document served at /statez: one entry per node
// whose snapshot could be taken, sorted by label, plus one entry per
// transport that published its static configuration (wire path and
// effective socket buffer sizes).
type Statez struct {
	Nodes      []StateSnapshot  `json:"nodes"`
	Transports []TransportState `json:"transports,omitempty"`
	// Stalls are the stall-analyzer verdicts of every node with a
	// registered provider: each undelivered message, the pipeline
	// stage holding it, and the peers whose confirmations it awaits.
	// Empty when nothing is stuck.
	Stalls []Stall `json:"stalls,omitempty"`
}

// Statez collects the current state snapshots.
func (r *Registry) Statez() Statez {
	nodes, transports, _ := r.snapshotLists()
	var out Statez
	for _, n := range nodes {
		if n.snap == nil {
			continue
		}
		if s, ok := n.snap(); ok {
			if s.Node == "" {
				s.Node = n.label
			}
			out.Nodes = append(out.Nodes, s)
		}
	}
	out.Stalls = r.StallReport()
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	for _, t := range transports {
		if t.state != nil {
			out.Transports = append(out.Transports, *t.state)
		}
	}
	sort.Slice(out.Transports, func(i, j int) bool { return out.Transports[i].Transport < out.Transports[j].Transport })
	return out
}

// WriteStatez renders the state snapshots as indented JSON.
func (r *Registry) WriteStatez(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Statez())
}
