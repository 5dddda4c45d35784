// Package cospan assembles flight-recorder dumps (/tracez documents)
// into Chrome trace-event JSON: per-message lifecycle spans on each
// node, linked by cross-node flow arrows from the sequencing node to
// every acceptor. Load the output in Perfetto (ui.perfetto.dev) or
// chrome://tracing to see a broadcast fan out: submit → sequence →
// wire-out at the origin, wire-in → accept → commit → deliver at every
// peer, with retransmission requests and serves marked on the way.
//
// Each node becomes one "process" (pid = its index in the dump, name =
// its label); within a process, messages are grouped onto one "thread"
// track per source entity. Timestamps are each node's flight timestamps
// shifted by its epoch, so wall-clock dumps from different machines
// align as well as their clocks do; virtual-time dumps (epoch 0, the
// simulator) share a common zero by construction.
package cospan

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// TraceEvent is one entry of the Chrome trace-event format (the JSON
// array flavour). Only the fields this assembler emits are declared.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace is the top-level Chrome trace document.
type Trace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// msgKey identifies one sequenced message cluster-wide.
type msgKey struct {
	src int32
	seq uint64
}

func (k msgKey) String() string { return fmt.Sprintf("s%d#%d", k.src, k.seq) }

// nodeMsg is one message's event set on one node.
type nodeMsg struct {
	first, last int64 // ns, node-relative + epoch
	events      []flight.Event
	has         map[flight.EventType]int64 // type -> earliest ts
}

// Assemble converts flight dumps into trace events. Nodes are indexed
// in input order (pid = index); pass the Nodes slice of a /tracez
// document, or a concatenation of several.
func Assemble(nodes []obsv.NodeFlight) []TraceEvent {
	var out []TraceEvent
	// perNode[i] maps message -> its events on node i.
	perNode := make([]map[msgKey]*nodeMsg, len(nodes))

	for i, nf := range nodes {
		out = append(out, TraceEvent{
			Name: "process_name", Ph: "M", Pid: i,
			Args: map[string]any{"name": "node " + nf.Node},
		})
		msgs := make(map[msgKey]*nodeMsg)
		perNode[i] = msgs
		for j := range nf.Events {
			// JSON-decoded dumps carry only TypeName; rehydrate Type.
			if ev := &nf.Events[j]; ev.Type == 0 && ev.TypeName != "" {
				ev.Type = flight.TypeFromName(ev.TypeName)
			}
		}
		pairSubmits(nf.Events)
		for _, ev := range nf.Events {
			if ev.Seq == 0 {
				// Unsequenced events (backpressure, eviction, unpaired
				// submits) stand alone as instants.
				out = append(out, TraceEvent{
					Name: ev.TypeName, Ph: "i", S: "p",
					Ts: tsUS(nf.EpochUnixNano, ev.At), Pid: i, Tid: int(ev.Src),
					Args: instArgs(ev),
				})
				continue
			}
			k := msgKey{src: ev.Src, seq: ev.Seq}
			m := msgs[k]
			if m == nil {
				m = &nodeMsg{first: ev.At, last: ev.At, has: make(map[flight.EventType]int64)}
				msgs[k] = m
			}
			if ev.At < m.first {
				m.first = ev.At
			}
			if ev.At > m.last {
				m.last = ev.At
			}
			if t, ok := m.has[ev.Type]; !ok || ev.At < t {
				m.has[ev.Type] = ev.At
			}
			m.events = append(m.events, ev)
		}
	}

	// One slice per (node, message), with the lifecycle steps in args and
	// retransmission events additionally marked as instants.
	threads := make(map[[2]int]bool)
	for i, msgs := range perNode {
		for k, m := range msgs {
			tid := int(k.src)
			if !threads[[2]int{i, tid}] {
				threads[[2]int{i, tid}] = true
				out = append(out, TraceEvent{
					Name: "thread_name", Ph: "M", Pid: i, Tid: tid,
					Args: map[string]any{"name": fmt.Sprintf("src %d", tid)},
				})
			}
			ts := tsUS(nodes[i].EpochUnixNano, m.first)
			dur := float64(m.last-m.first) / 1e3
			if dur <= 0 {
				dur = 1
			}
			steps := make(map[string]any, len(m.events))
			for _, ev := range m.events {
				steps[ev.TypeName] = appendStep(steps[ev.TypeName], tsUS(nodes[i].EpochUnixNano, ev.At))
			}
			out = append(out, TraceEvent{
				Name: k.String(), Ph: "X", Ts: ts, Dur: dur, Pid: i, Tid: tid,
				Args: map[string]any{"kind": kindName(m.events), "steps": steps},
			})
			for _, ev := range m.events {
				if ev.Type == flight.EvRetRequest || ev.Type == flight.EvRetServe {
					out = append(out, TraceEvent{
						Name: k.String() + " " + ev.TypeName, Ph: "i", S: "t",
						Ts: tsUS(nodes[i].EpochUnixNano, ev.At), Pid: i, Tid: tid,
						Args: instArgs(ev),
					})
				}
			}
		}
	}

	// Causal flow arrows: from the sequencing node's wire-out (fallback:
	// sequence) to every other node's wire-in (fallback: accept).
	flowID := 0
	for i, msgs := range perNode {
		for k, m := range msgs {
			src, isOrigin := m.has[flight.EvSequence]
			if !isOrigin {
				continue // not the node that sequenced k
			}
			if s, ok := m.has[flight.EvWireOut]; ok {
				src = s
			}
			for j, peerMsgs := range perNode {
				if j == i {
					continue
				}
				pm := peerMsgs[k]
				if pm == nil {
					continue
				}
				dst, ok := pm.has[flight.EvWireIn]
				if !ok {
					if dst, ok = pm.has[flight.EvAccept]; !ok {
						continue
					}
				}
				flowID++
				out = append(out,
					TraceEvent{Name: k.String(), Ph: "s", ID: flowID, Pid: i, Tid: int(k.src),
						Ts: tsUS(nodes[i].EpochUnixNano, src)},
					TraceEvent{Name: k.String(), Ph: "f", BP: "e", ID: flowID, Pid: j, Tid: int(k.src),
						Ts: tsUS(nodes[j].EpochUnixNano, dst)},
				)
			}
		}
	}

	sort.SliceStable(out, func(a, b int) bool { return out[a].Ts < out[b].Ts })
	return out
}

// pairSubmits back-fills sequence numbers onto submit events: a submit
// is recorded before its sequence number exists, so it arrives with
// Seq 0. Submissions sequence in FIFO order, so the k-th submit from
// the ring's retained window corresponds to the k-th retained DATA
// sequence event — pairing from the tail keeps the alignment correct
// when the ring has wrapped mid-stream.
func pairSubmits(events []flight.Event) {
	var submits, seqs []int
	for i, ev := range events {
		switch {
		case ev.Type == flight.EvSubmit:
			submits = append(submits, i)
		case ev.Type == flight.EvSequence && ev.Kind == uint8(pdu.KindData):
			seqs = append(seqs, i)
		}
	}
	for k := 1; k <= len(submits) && k <= len(seqs); k++ {
		sub := &events[submits[len(submits)-k]]
		sub.Seq = events[seqs[len(seqs)-k]].Seq
	}
}

func tsUS(epochNS, atNS int64) float64 { return float64(epochNS+atNS) / 1e3 }

func instArgs(ev flight.Event) map[string]any {
	a := map[string]any{"src": ev.Src, "seq": ev.Seq}
	if ev.Peer >= 0 {
		a["peer"] = ev.Peer
	}
	return a
}

func appendStep(prev any, ts float64) any {
	switch v := prev.(type) {
	case nil:
		return ts
	case float64:
		return []float64{v, ts}
	case []float64:
		return append(v, ts)
	}
	return ts
}

// kindName reports the message's PDU kind as seen in its events. Events
// of kind RET — the request and the RET PDU's own wire crossings —
// describe the chase, not the message, so they only count when nothing
// better was recorded (a node that requested a PDU it never received).
func kindName(events []flight.Event) string {
	fallback := "?"
	for _, ev := range events {
		switch k := pdu.Kind(ev.Kind); k {
		case 0:
		case pdu.KindRet:
			fallback = k.String()
		default:
			return k.String()
		}
	}
	return fallback
}

// WriteJSON assembles the dumps and writes the Chrome trace document.
func WriteJSON(w io.Writer, nodes []obsv.NodeFlight) error {
	tr := Trace{TraceEvents: Assemble(nodes), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
