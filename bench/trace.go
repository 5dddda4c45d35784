package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"cobcast/obsv"
)

// scrape renders the registry's /metrics text and sums every sample by
// metric name (labels dropped): the bench reads the program's existing
// exposition, it adds no counters of its own.
func scrape(reg *obsv.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	sums := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		sums[name] += v
	}
	return sums, nil
}

// The stages a message passes through, as consecutive flight-recorder
// events; see internal/flight for where each is recorded.
const (
	stageSubmitSequence = iota
	stageSequenceWireout
	stageWireoutWirein
	stageWireinAccept
	stageAcceptCommit
	stageCommitDeliver
	numStages
)

var stageNames = [numStages]string{
	"submit_sequence", "sequence_wireout", "wireout_wirein",
	"wirein_accept", "accept_commit", "commit_deliver",
}

// msgKey names one DATA PDU within one engine group.
type msgKey struct {
	src int32
	seq uint64
}

// ringTimes is one flight ring reduced to what the stage fold needs:
// the wall-clock time of the first event of each type per DATA PDU.
type ringTimes struct {
	node    int
	group   string // "" for the default engine, "gN" for a group engine
	seq     map[msgKey]int64
	wireOut map[msgKey]int64
	wireIn  map[msgKey]int64
	accept  map[msgKey]int64
	commit  map[msgKey]int64
	deliver map[msgKey]int64
	submits []int64 // stage samples, paired in ring order
}

const kindData = 1 // pdu.KindData as flight events carry it

// foldFlight turns the registry's flight-ring dumps into the median
// duration of each stage, in microseconds. Rings hold the most recent
// events only, so the fold covers the tail of the paced phase. Stages
// whose events an engine does not record (group shards record no wire
// events) have no samples and read 0.
func foldFlight(tz obsv.Tracez) [numStages]float64 {
	var rings []*ringTimes
	for _, nf := range tz.Nodes {
		label, group, _ := strings.Cut(nf.Node, "/")
		node, err := strconv.Atoi(label)
		if err != nil {
			continue
		}
		rt := &ringTimes{
			node: node, group: group,
			seq: map[msgKey]int64{}, wireOut: map[msgKey]int64{}, wireIn: map[msgKey]int64{},
			accept: map[msgKey]int64{}, commit: map[msgKey]int64{}, deliver: map[msgKey]int64{},
		}
		var pending []int64 // submit times awaiting their sequence event
		for _, ev := range nf.Events {
			at := nf.EpochUnixNano + ev.At
			if ev.TypeName == "submit" {
				pending = append(pending, at)
				continue
			}
			if ev.Kind != kindData {
				continue
			}
			k := msgKey{ev.Src, ev.Seq}
			var into map[msgKey]int64
			switch ev.TypeName {
			case "sequence":
				into = rt.seq
				// Submissions are sequenced first in, first out, so the
				// oldest pending submit is this PDU's.
				if len(pending) > 0 {
					rt.submits = append(rt.submits, at-pending[0])
					pending = pending[1:]
				}
			case "wire-out":
				into = rt.wireOut
			case "wire-in":
				into = rt.wireIn
			case "accept":
				into = rt.accept
			case "commit":
				into = rt.commit
			case "deliver":
				into = rt.deliver
			default:
				continue
			}
			if _, seen := into[k]; !seen {
				into[k] = at
			}
		}
		rings = append(rings, rt)
	}

	var samples [numStages][]int64
	span := func(stage int, from, to map[msgKey]int64) {
		for k, t0 := range from {
			if t1, ok := to[k]; ok && t1 >= t0 {
				samples[stage] = append(samples[stage], t1-t0)
			}
		}
	}
	for _, rt := range rings {
		samples[stageSubmitSequence] = append(samples[stageSubmitSequence], rt.submits...)
		span(stageSequenceWireout, rt.seq, rt.wireOut)
		span(stageWireinAccept, rt.wireIn, rt.accept)
		span(stageAcceptCommit, rt.accept, rt.commit)
		span(stageCommitDeliver, rt.commit, rt.deliver)
		for _, peer := range rings {
			if peer.node != rt.node && peer.group == rt.group {
				span(stageWireoutWirein, rt.wireOut, peer.wireIn)
			}
		}
	}
	var p50 [numStages]float64
	for s := range samples {
		slices.Sort(samples[s])
		p50[s] = float64(percentile(samples[s], 50)) / 1e3
	}
	return p50
}

// maxSpanMessages caps how many messages' spans the trace file holds.
const maxSpanMessages = 20000

// writeSpans writes the bench's own spans for the first messages of a
// paced phase as one JSON document: per message a root span from its
// due time to its last delivery, a child around the Broadcast call, and
// one child per receiving node from the start of that call to the
// delivery. Times are nanoseconds after the phase start; the message id
// is the spans' shared trace id.
func writeSpans(path string, ph *phase) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"unit":"ns","spans":[`)
	first := true
	emit := func(msg int, name, parent string, start, end int64) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n{\"trace\":%d,\"name\":%q,\"parent\":%q,\"start\":%d,\"end\":%d}", msg, name, parent, start, end)
	}
	for i := range ph.due {
		if i >= maxSpanMessages {
			break
		}
		last := ph.callEnd[i]
		for node := range ph.deliverAt {
			if at := ph.deliverAt[node][i] - 1; at > last {
				last = at
			}
		}
		emit(i, "message", "", int64(ph.due[i]), last)
		emit(i, "broadcast", "message", ph.callStart[i], ph.callEnd[i])
		for node := range ph.deliverAt {
			if at := ph.deliverAt[node][i]; at != 0 {
				emit(i, "deliver@"+strconv.Itoa(node), "message", ph.callStart[i], at-1)
			}
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
