package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (a test keeps the two in step) and adds, for the
// end-to-end ones, the direction and the regression bound.
type metricDef struct {
	name, unit string
}

// endToEndDefs are what a user of the system sees; every workload
// reports all of them, from untraced runs only.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"sat_msgs_per_s", "msg/s"},
	{"pdus_per_msg", "pdu"},
}

// perLayerDefs attribute the end-to-end numbers to layers; the prefix is
// the package the number belongs to. bench/README.md defines each one.
var perLayerDefs = []metricDef{
	{"failed_share", "ratio"},
	{"cpu_us_per_msg", "us"},

	{"cobcast.construct_ms", "ms"},
	{"cobcast.broadcast_call_p50_ns", "ns"},
	{"cobcast.broadcast_call_p99_ns", "ns"},
	{"cobcast.sat_blocked_share", "ratio"},
	{"cobcast.flow_blocked_per_kmsg", "count"},
	{"cobcast.self_deliver_p50_us", "us"},
	{"cobcast.remote_deliver_p50_us", "us"},
	{"cobcast.deliver_skew_p50_us", "us"},
	{"cobcast.deliver_skew_p99_us", "us"},
	{"cobcast.link_pdus_per_flush", "pdu"},
	{"cobcast.link_early_flush_share", "ratio"},
	{"cobcast.residual_p50_us", "us"},

	{"core.submit_ns", "ns"},
	{"core.receive_ns", "ns"},
	{"core.receive_p99_ns", "ns"},
	{"core.tick_ns", "ns"},
	{"core.engine_us_per_msg", "us"},
	{"core.engine_us_per_msg.n16", "us"},
	{"core.engine_us_per_msg.n64", "us"},
	{"core.engine_us_per_msg.to", "us"},
	{"core.receives_per_msg", "count"},
	{"core.probe_pdus_per_msg", "pdu"},
	{"core.sync_per_msg", "pdu"},
	{"core.ackonly_per_msg", "pdu"},
	{"core.ret_per_msg", "pdu"},
	{"core.retx_per_msg", "pdu"},
	{"core.accepted_share", "ratio"},
	{"core.dup_share", "ratio"},
	{"core.parked_share", "ratio"},
	{"core.f1_per_kmsg", "count"},
	{"core.f2_per_kmsg", "count"},
	{"core.deferred_confirms_per_msg", "count"},
	{"core.max_resident", "pdu"},

	{"msglog.cpi_displaced_share", "ratio"},
	{"msglog.cpi_displacement_avg", "count"},
	{"msglog.insert_cpi_ns", "ns"},

	{"vclock.delta_indices_per_pdu", "count"},
	{"vclock.dense_share", "ratio"},
	{"vclock.delta_indices_per_pdu.n64", "count"},
	{"vclock.dense_share.n64", "ratio"},

	{"pdu.encode_ns_per_pdu", "ns"},
	{"pdu.decode_ns_per_pdu", "ns"},
	{"pdu.bytes_per_pdu", "B"},
	{"pdu.bytes_per_msg", "B"},

	{"network.pdus_sent_per_msg", "pdu"},
	{"network.dropped_loss_share", "ratio"},
	{"network.dropped_overrun_share", "ratio"},
	{"network.broadcast_ns_per_pdu", "ns"},

	{"udpnet.datagrams_per_msg", "count"},
	{"udpnet.pdus_per_datagram", "pdu"},
	{"udpnet.sendmmsg_per_msg", "count"},
	{"udpnet.recvmmsg_per_msg", "count"},
	{"udpnet.datagrams_per_recvmmsg", "count"},
	{"udpnet.overrun_share", "ratio"},
	{"udpnet.send_errors", "count"},
	{"udpnet.bytes_per_msg", "B"},
	{"udpnet.goodput_share", "ratio"},
	{"udpnet.broadcast_batch_ns_per_datagram", "ns"},

	{"groups.shards", "count"},
	{"groups.engines", "count"},

	{"flight.stage_submit_sequence_us", "us"},
	{"flight.stage_sequence_wireout_us", "us"},
	{"flight.stage_wireout_wirein_us", "us"},
	{"flight.stage_wirein_accept_us", "us"},
	{"flight.stage_accept_commit_us", "us"},
	{"flight.stage_commit_deliver_us", "us"},
	{"flight.events_per_msg", "count"},

	{"obsv.lat_p50_overhead_share", "ratio"},
	{"obsv.cpu_overhead_share", "ratio"},

	{"proc.allocs_per_msg", "count"},
	{"proc.alloc_bytes_per_msg", "B"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.gc_pause_max_us", "us"},
	{"proc.heap_peak_mib", "MiB"},
	{"proc.gen_late_p99_us", "us"},
	{"proc.gen_late_max_us", "us"},
	{"proc.lat_p999_us", "us"},
	{"proc.lat_max_us", "us"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs defs with vals, in defs order; a value computed under a
// name no def lists, or a def left without a value, is a bug in the
// bench and fails the run.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not declared", name)
			}
		}
	}
	return out, nil
}

// endToEnd derives the end-to-end metrics from one untraced pass.
func endToEnd(m *measured) map[string]float64 {
	var setups []float64
	for _, d := range m.setups {
		setups = append(setups, d.Seconds())
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"lat_p50_us":     m.paced.latP50,
		"lat_p99_us":     m.paced.latP99,
		"sat_msgs_per_s": m.sat.msgsPerS,
		"pdus_per_msg":   ratio(m.paced.delta.pdusSent(), float64(m.paced.msgs)),
	}
}

// blockingHops is how many one-way PDU trips a delivery waits for: the
// data PDU, the confirmations that pre-acknowledge it, and the
// confirmations that acknowledge it.
const blockingHops = 3

// perLayer derives the per-layer metrics from an untraced pass, a
// traced pass of the same workload and the probes.
func perLayer(w workload, plain, traced *measured, pr *probes) map[string]float64 {
	p, d := &plain.paced, plain.paced.delta
	msgs := float64(p.msgs)
	kmsgs := msgs / 1000
	recv := d.f(cDataRecv) + d.f(cSyncRecv) + d.f(cAckOnlyRecv) + d.f(cRetRecv)
	netSent := d.f(cNetSent)
	datagrams := d.f(cDatagramsSent)
	fanout := float64(clusterSize - 1)

	// The probes' self-times along the steps a remote delivery waits
	// for; what is left of the median is hand-offs, queueing and timers.
	hop := pr.engine.receiveNs + pr.codec.encodeNsPerPDU + pr.codec.decodeNsPerPDU
	if w.udp {
		hop += pr.udpNsPerDatagram
	} else {
		hop += pr.networkNsPerPDU
	}
	path := (pr.engine.submitNs + blockingHops*hop) / 1e3

	sd := traced.scrape
	satD := plain.sat.delta
	attempted := plain.paced.attempted + plain.sat.attempted + traced.paced.attempted + traced.sat.attempted
	failed := plain.paced.failed + plain.sat.failed + traced.paced.failed + traced.sat.failed
	wireBytes := ratio(sd["cobcast_transport_bytes_sent_total"], float64(traced.paced.msgs))

	vals := map[string]float64{
		"failed_share":   ratio(float64(failed), float64(attempted)),
		"cpu_us_per_msg": plain.sat.cpuUsPerMsg,

		"cobcast.construct_ms":           float64(plain.construct.Microseconds()) / 1e3,
		"cobcast.broadcast_call_p50_ns":  p.callP50,
		"cobcast.broadcast_call_p99_ns":  p.callP99,
		"cobcast.sat_blocked_share":      plain.sat.blockedShare,
		"cobcast.flow_blocked_per_kmsg":  ratio(d.f(cFlowBlocked), kmsgs),
		"cobcast.self_deliver_p50_us":    p.selfP50,
		"cobcast.remote_deliver_p50_us":  p.remoteP50,
		"cobcast.deliver_skew_p50_us":    p.skewP50,
		"cobcast.deliver_skew_p99_us":    p.skewP99,
		"cobcast.link_pdus_per_flush":    ratio(sd["cobcast_link_flushed_pdus_total"], sd["cobcast_link_flushes_total"]),
		"cobcast.link_early_flush_share": ratio(sd["cobcast_link_early_flushes_total"], sd["cobcast_link_flushes_total"]),
		"cobcast.residual_p50_us":        p.latP50 - path,

		"core.submit_ns":                 pr.engine.submitNs,
		"core.receive_ns":                pr.engine.receiveNs,
		"core.receive_p99_ns":            pr.engine.receiveP99Ns,
		"core.tick_ns":                   pr.engine.tickNs,
		"core.engine_us_per_msg":         pr.engine.engineUsPerMsg,
		"core.engine_us_per_msg.n16":     pr.n16.engineUsPerMsg,
		"core.engine_us_per_msg.n64":     pr.n64.engineUsPerMsg,
		"core.engine_us_per_msg.to":      pr.total.engineUsPerMsg,
		"core.receives_per_msg":          pr.engine.receivesPerMsg,
		"core.probe_pdus_per_msg":        pr.engine.pdusPerMsg,
		"core.sync_per_msg":              ratio(d.f(cSyncSent), msgs),
		"core.ackonly_per_msg":           ratio(d.f(cAckOnlySent), msgs),
		"core.ret_per_msg":               ratio(d.f(cRetSent), msgs),
		"core.retx_per_msg":              ratio(d.f(cRetransmitted), msgs),
		"core.accepted_share":            ratio(d.f(cAccepted), recv),
		"core.dup_share":                 ratio(d.f(cDuplicates), recv),
		"core.parked_share":              ratio(d.f(cParked), recv),
		"core.f1_per_kmsg":               ratio(d.f(cF1), kmsgs),
		"core.f2_per_kmsg":               ratio(d.f(cF2), kmsgs),
		"core.deferred_confirms_per_msg": ratio(d.f(cDeferredConfirms), msgs),
		"core.max_resident":              float64(satD.maxResident),

		"msglog.cpi_displaced_share":  ratio(d.f(cCPIDisplaced), d.f(cPreacked)),
		"msglog.cpi_displacement_avg": ratio(d.f(cCPIDisplacement), d.f(cCPIDisplaced)),
		"msglog.insert_cpi_ns":        pr.insertCPINs,

		"vclock.delta_indices_per_pdu":     pr.engine.deltaIndicesPerPDU,
		"vclock.dense_share":               pr.engine.denseShare,
		"vclock.delta_indices_per_pdu.n64": pr.n64.deltaIndicesPerPDU,
		"vclock.dense_share.n64":           pr.n64.denseShare,

		"pdu.encode_ns_per_pdu": pr.codec.encodeNsPerPDU,
		"pdu.decode_ns_per_pdu": pr.codec.decodeNsPerPDU,
		"pdu.bytes_per_pdu":     pr.codec.bytesPerPDU,
		"pdu.bytes_per_msg":     pr.codec.bytesPerMsg,

		"network.pdus_sent_per_msg":     ratio(netSent, msgs),
		"network.dropped_loss_share":    ratio(d.f(cNetDroppedLoss), netSent),
		"network.dropped_overrun_share": ratio(d.f(cNetDroppedOverrun), netSent),
		"network.broadcast_ns_per_pdu":  pr.networkNsPerPDU,

		"udpnet.datagrams_per_msg":               ratio(datagrams, msgs),
		"udpnet.pdus_per_datagram":               ratio(d.pdusSent()*fanout, datagrams),
		"udpnet.sendmmsg_per_msg":                ratio(d.f(cSendmmsgCalls), msgs),
		"udpnet.recvmmsg_per_msg":                ratio(d.f(cRecvmmsgCalls), msgs),
		"udpnet.datagrams_per_recvmmsg":          ratio(d.f(cDatagramsReceived), d.f(cRecvmmsgCalls)),
		"udpnet.overrun_share":                   ratio(satD.f(cTransportOverrun), satD.f(cDatagramsReceived)+satD.f(cTransportOverrun)),
		"udpnet.send_errors":                     d.f(cSendErrors) + satD.f(cSendErrors),
		"udpnet.bytes_per_msg":                   wireBytes,
		"udpnet.goodput_share":                   ratio(payloadSize*fanout, wireBytes),
		"udpnet.broadcast_batch_ns_per_datagram": pr.udpNsPerDatagram,

		"groups.shards":  float64(plain.shards),
		"groups.engines": float64(clusterSize * w.groups),

		"flight.events_per_msg": ratio(sd["cobcast_flight_events_total"], float64(traced.paced.msgs)),

		"obsv.lat_p50_overhead_share": ratio(traced.paced.latP50-p.latP50, p.latP50),
		"obsv.cpu_overhead_share":     ratio(traced.sat.cpuUsPerMsg-plain.sat.cpuUsPerMsg, plain.sat.cpuUsPerMsg),

		"proc.allocs_per_msg":      p.allocs,
		"proc.alloc_bytes_per_msg": p.allocSize,
		"proc.gc_cpu_share":        p.gcCPUShare,
		"proc.gc_pause_max_us":     p.gcPauseMaxUs,
		"proc.heap_peak_mib":       plain.sat.heapPeakMiB,
		"proc.gen_late_p99_us":     p.lateP99,
		"proc.gen_late_max_us":     p.lateMax,
		"proc.lat_p999_us":         p.latP999,
		"proc.lat_max_us":          p.latMax,
	}
	for s, name := range stageNames {
		vals["flight.stage_"+name+"_us"] = traced.stages[s]
	}
	return vals
}
