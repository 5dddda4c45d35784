// Package trace checks the ordering properties of Section 2.2 against
// the engine's flight-recorder events — the rings a live node serves on
// /tracez, or the logs a simulated run keeps. The checker derives
// ground-truth happened-before with vector clocks (independent of the CO
// protocol's sequence-number machinery), so tests and cotrace can verify
// that the protocol's deliveries are information-preserved,
// local-order-preserved and causality-preserved without trusting the
// implementation under test.
//
// It reads four events of the flight vocabulary: a send is EvSequence, a
// receipt (the paper's r_i[p]) EvAccept, a delivery EvDeliver and a
// retransmission EvRetServe. Every other event in a stream is ignored.
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/vclock"
)

// MsgID identifies a sequenced PDU by source and sequence number.
type MsgID struct {
	Src pdu.EntityID
	Seq pdu.Seq
}

// String renders "s1#3".
func (m MsgID) String() string { return fmt.Sprintf("s%d#%d", m.Src, m.Seq) }

// Analysis is the digested form of a run's streams used by the checkers.
type Analysis struct {
	n int
	// stamps holds the ground-truth vector-clock stamp of each sent
	// message, derived by replaying sends and accepts.
	stamps map[MsgID]vclock.VC
	// kinds remembers each message's PDU kind.
	kinds map[MsgID]pdu.Kind
	// deliveries[e] is entity e's delivery sequence in order.
	deliveries [][]MsgID
	// sends is every sent message in replay order.
	sends   []MsgID
	summary Summary
}

// Analyze replays one event stream per entity (streams[i] is entity i's,
// in its record order), computing ground-truth vector stamps. A stamp
// depends only on each entity's own order and on every send preceding
// its accepts, so the streams are replayed in any interleaving that
// keeps both: rings scraped from separate processes need no shared
// clock. An accept whose send no stream records is an error.
func Analyze(streams [][]flight.Event) (*Analysis, error) {
	n := len(streams)
	a := &Analysis{
		n:          n,
		stamps:     make(map[MsgID]vclock.VC),
		kinds:      make(map[MsgID]pdu.Kind),
		deliveries: make([][]MsgID, n),
	}
	vcs := make([]vclock.VC, n)
	for i := range vcs {
		vcs[i] = vclock.New(n)
	}
	pos := make([]int, n)
	for progress := true; progress; {
		progress = false
		for i, evs := range streams {
		replay:
			for ; pos[i] < len(evs); pos[i]++ {
				ev := evs[pos[i]]
				m := MsgID{Src: pdu.EntityID(ev.Src), Seq: pdu.Seq(ev.Seq)}
				switch ev.Type {
				case flight.EvSequence:
					if int(ev.Src) != i {
						return nil, fmt.Errorf("trace: entity %d sequenced %v of another source", i, m)
					}
					if _, dup := a.stamps[m]; dup {
						return nil, fmt.Errorf("trace: duplicate send of %v", m)
					}
					vcs[i].Tick(i)
					a.stamps[m] = vcs[i].Clone()
					a.kinds[m] = pdu.Kind(ev.Kind)
					a.sends = append(a.sends, m)
					if a.kinds[m] == pdu.KindData {
						a.summary.DataSends++
					} else {
						a.summary.SyncSends++
					}
				case flight.EvAccept:
					stamp, ok := a.stamps[m]
					if !ok {
						break replay // its send is in a stream not replayed that far
					}
					vcs[i].Merge(stamp)
					a.summary.Accepts++
				case flight.EvDeliver:
					a.deliveries[i] = append(a.deliveries[i], m)
					a.summary.Deliveries++
				case flight.EvRetServe:
					a.summary.Retransmits++
				default:
					continue
				}
				a.summary.Events++
				progress = true
			}
		}
	}
	for i, evs := range streams {
		if pos[i] < len(evs) {
			ev := evs[pos[i]]
			return nil, fmt.Errorf("trace: accept of unsent %v at entity %d",
				MsgID{Src: pdu.EntityID(ev.Src), Seq: pdu.Seq(ev.Seq)}, i)
		}
	}
	return a, nil
}

// AnalyzeDumps analyzes flight dumps — /tracez documents scraped live or
// saved — one Analysis per group. A dump's node label names its entity
// and group the way the runtime and the simulator label rings:
// "<entity>" on group 0, "<entity>/g<group>" elsewhere. A group needs
// one ring for each of its entities 0..n-1, n ≥ 2. A ring that wrapped,
// or whose scrape lost events, is refused by name: the checker cannot
// read a suffix of a stream. Scrape a live cluster once it is quiet, or
// streams cut at different moments will not agree.
func AnalyzeDumps(nodes []obsv.NodeFlight) (map[uint32]*Analysis, error) {
	rings := make(map[uint32]map[int][]flight.Event)
	for _, nf := range nodes {
		switch {
		case nf.Recorded > uint64(nf.Capacity):
			return nil, fmt.Errorf("ring %s wrapped: %d events recorded, %d kept", nf.Node, nf.Recorded, nf.Capacity)
		case uint64(len(nf.Events)) < nf.Recorded:
			return nil, fmt.Errorf("ring %s: the scrape holds %d of its %d events", nf.Node, len(nf.Events), nf.Recorded)
		}
		id, g, err := parseNode(nf.Node)
		if err != nil {
			return nil, err
		}
		if rings[g] == nil {
			rings[g] = make(map[int][]flight.Event)
		}
		if _, dup := rings[g][id]; dup {
			return nil, fmt.Errorf("ring %s: entity %d of group %d appears twice", nf.Node, id, g)
		}
		rings[g][id] = nf.Events
	}
	out := make(map[uint32]*Analysis, len(rings))
	for g, byID := range rings {
		if len(byID) < 2 {
			return nil, fmt.Errorf("group %d: %d ring, need one per entity of at least 2", g, len(byID))
		}
		streams := make([][]flight.Event, len(byID))
		for id, evs := range byID {
			if id >= len(byID) {
				return nil, fmt.Errorf("group %d: %d rings, but one is entity %d", g, len(byID), id)
			}
			streams[id] = evs
		}
		a, err := Analyze(streams)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		out[g] = a
	}
	return out, nil
}

// parseNode splits a ring label "<entity>[/g<group>]".
func parseNode(label string) (id int, g uint32, err error) {
	entity, group, grouped := strings.Cut(label, "/g")
	id, err = strconv.Atoi(entity)
	if err == nil && grouped {
		var g64 uint64
		g64, err = strconv.ParseUint(group, 10, 32)
		g = uint32(g64)
	}
	if err != nil || id < 0 {
		return 0, 0, fmt.Errorf("ring %q: label is not <entity> or <entity>/g<group>", label)
	}
	return id, g, nil
}

// Digest returns the SHA-256 hex digest of a log's checked events in
// record order — the chaos harness's determinism witness (same seed ⇒
// same events ⇒ same digest). Each event hashes as one JSON line,
// {"type","entity","msg":{"src","seq"},"kind","at"}, with type 1 for a
// send, 2 accept, 3 deliver and 5 retransmit: the encoding the pinned
// digests were taken in.
func Digest(events []flight.Event) string {
	h := sha256.New()
	for _, ev := range events {
		var code int
		switch ev.Type {
		case flight.EvSequence:
			code = 1
		case flight.EvAccept:
			code = 2
		case flight.EvDeliver:
			code = 3
		case flight.EvRetServe:
			code = 5
		default:
			continue
		}
		fmt.Fprintf(h, "{\"type\":%d,\"entity\":%d,\"msg\":{\"src\":%d,\"seq\":%d},\"kind\":%d,\"at\":%d}\n",
			code, ev.Entity, ev.Src, ev.Seq, ev.Kind, ev.At)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stamp returns the ground-truth vector stamp of a message, or nil if the
// message was never sent.
func (a *Analysis) Stamp(m MsgID) vclock.VC { return a.stamps[m] }

// DataSends returns every KindData message in replay order.
func (a *Analysis) DataSends() []MsgID {
	var out []MsgID
	for _, m := range a.sends {
		if a.kinds[m] == pdu.KindData {
			out = append(out, m)
		}
	}
	return out
}

// CheckInformationPreserved verifies every entity delivered every DATA
// message exactly once (atomic, loss-free delivery), and nothing else.
func (a *Analysis) CheckInformationPreserved() error {
	return a.CheckInformationPreservedAmong(a.everyEntity())
}

// CheckInformationPreservedAmong is CheckInformationPreserved restricted
// to a surviving subset: every alive entity must deliver every DATA
// message an alive entity sent exactly once, nothing twice, and nothing
// no DATA send produced. Messages from non-alive sources are best-effort
// — a stalled source can never serve retransmissions (source-only
// repair), so survivors may hold an incomplete suffix of its stream.
func (a *Analysis) CheckInformationPreservedAmong(alive []pdu.EntityID) error {
	aliveSet := make(map[pdu.EntityID]bool, len(alive))
	for _, e := range alive {
		aliveSet[e] = true
	}
	var want []MsgID
	for _, m := range a.DataSends() {
		if aliveSet[m.Src] {
			want = append(want, m)
		}
	}
	for _, e := range alive {
		seen := make(map[MsgID]int, len(a.deliveries[e]))
		for _, m := range a.deliveries[e] {
			if a.kinds[m] != pdu.KindData {
				return fmt.Errorf("entity %d delivered %v, which no DATA send produced", e, m)
			}
			seen[m]++
			if seen[m] > 1 {
				return fmt.Errorf("entity %d delivered %v %d times", e, m, seen[m])
			}
		}
		for _, m := range want {
			if seen[m] == 0 {
				return fmt.Errorf("entity %d never delivered %v", e, m)
			}
		}
	}
	return nil
}

// everyEntity lists the entities 0..n-1, the alive set of a run that
// evicted nobody.
func (a *Analysis) everyEntity() []pdu.EntityID {
	all := make([]pdu.EntityID, a.n)
	for i := range all {
		all[i] = pdu.EntityID(i)
	}
	return all
}

// CheckTotalOrderPreservedAmong is CheckTotalOrderPreserved restricted to
// the alive entities: they must deliver identical sequences, while each
// non-alive entity's sequence must be a prefix of that common order (it
// ran the same stable-release rule until it stopped).
func (a *Analysis) CheckTotalOrderPreservedAmong(alive []pdu.EntityID) error {
	aliveSet := make(map[pdu.EntityID]bool, len(alive))
	var ref []MsgID
	var refEntity pdu.EntityID
	for _, e := range alive {
		aliveSet[e] = true
		ms := a.deliveries[e]
		if ref == nil {
			ref, refEntity = ms, e
			continue
		}
		if len(ms) != len(ref) {
			return fmt.Errorf("entities %d and %d delivered %d vs %d messages",
				refEntity, e, len(ref), len(ms))
		}
		for i := range ms {
			if ms[i] != ref[i] {
				return fmt.Errorf("position %d: entity %d delivered %v, entity %d delivered %v",
					i, refEntity, ref[i], e, ms[i])
			}
		}
	}
	for e := pdu.EntityID(0); int(e) < a.n; e++ {
		if aliveSet[e] {
			continue
		}
		ms := a.deliveries[e]
		if len(ms) > len(ref) {
			return fmt.Errorf("stopped entity %d delivered %d messages, survivors %d",
				e, len(ms), len(ref))
		}
		for i := range ms {
			if ms[i] != ref[i] {
				return fmt.Errorf("position %d: stopped entity %d delivered %v, survivors %v",
					i, e, ms[i], ref[i])
			}
		}
	}
	return nil
}

// CheckLocalOrderPreserved verifies each entity delivers each source's
// messages in sending (sequence) order.
func (a *Analysis) CheckLocalOrderPreserved() error {
	for e := pdu.EntityID(0); int(e) < a.n; e++ {
		last := make(map[pdu.EntityID]pdu.Seq)
		for _, m := range a.deliveries[e] {
			if prev, ok := last[m.Src]; ok && m.Seq <= prev {
				return fmt.Errorf("entity %d delivered %v after s%d#%d", e, m, m.Src, prev)
			}
			last[m.Src] = m.Seq
		}
	}
	return nil
}

// CheckCausalOrderPreserved verifies no entity delivers a message before
// one of its ground-truth causal predecessors (the CO service property).
func (a *Analysis) CheckCausalOrderPreserved() error {
	for e := pdu.EntityID(0); int(e) < a.n; e++ {
		ms := a.deliveries[e]
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				si, sj := a.stamps[ms[i]], a.stamps[ms[j]]
				if si == nil || sj == nil {
					return fmt.Errorf("entity %d delivered untraced message", e)
				}
				if sj.Before(si) {
					return fmt.Errorf("entity %d delivered %v before its causal predecessor %v",
						e, ms[i], ms[j])
				}
			}
		}
	}
	return nil
}

// CheckTotalOrderPreserved verifies all entities deliver in the identical
// sequence (the TO service property; used for the total-order baseline).
func (a *Analysis) CheckTotalOrderPreserved() error {
	return a.CheckTotalOrderPreservedAmong(a.everyEntity())
}

// Summary counts a run's checked events.
type Summary struct {
	Events      int
	DataSends   int
	SyncSends   int
	Accepts     int
	Deliveries  int
	Retransmits int
}

// Summary returns the counts of the events Analyze replayed.
func (a *Analysis) Summary() Summary { return a.summary }

// CheckCOService runs the full causally-ordering-broadcast service check:
// information-preserved + causality-preserved (which implies local order).
func (a *Analysis) CheckCOService() error {
	if err := a.CheckInformationPreserved(); err != nil {
		return fmt.Errorf("information-preserved: %w", err)
	}
	if err := a.CheckLocalOrderPreserved(); err != nil {
		return fmt.Errorf("local-order-preserved: %w", err)
	}
	if err := a.CheckCausalOrderPreserved(); err != nil {
		return fmt.Errorf("causality-preserved: %w", err)
	}
	return nil
}
