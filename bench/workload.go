package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"
)

// Every workload runs the same cluster shape: the paper's evaluation
// size, small enough that two cores are not overloaded by n alone.
const (
	clusterSize = 4
	payloadSize = 128
)

// workload is one cluster configuration; the three phases (set-up,
// paced, saturation) are the same for all of them.
type workload struct {
	name   string
	why    string
	udp    bool    // NewNode over loopback UDP instead of NewCluster
	loss   float64 // in-memory network loss rate
	groups int     // GroupPorts per node traffic is spread over (1 = default group)
	rate   float64 // paced phase mean arrival rate, msg/s
}

var workloads = []workload{
	{
		name: "mem-steady", groups: 1, rate: 8000,
		why: "in-memory net, 0% loss: engine, node loop and memLink with no codec and no syscalls; shows engine, scheduling and zero-loss spurious repair",
	},
	{
		name: "udp-steady", udp: true, groups: 1, rate: 2000,
		why: "same engine and traffic over loopback UDP: adds pdu codec, wireLink coalescing and udpnet syscalls; a codec or syscall change moves only this",
	},
	{
		name: "mem-lossy", loss: 0.05, groups: 1, rate: 4000,
		why: "mem-steady with 5% seeded loss: F1/F2 detection, RET, parked set, CPI displacement and retransmit timers do the work",
	},
	{
		name: "udp-groups", udp: true, groups: 8, rate: 2000,
		why: "udp-steady spread over 8 groups per node: runs the groups.shard loops and wireGroupFrames (32 engines) instead of Node.loop and wireLink",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// schedule is a seeded open-loop arrival plan: message i is due at
// due[i] after the phase starts and is sent by node src[i] on that
// node's group[i]-th port. The same seed gives the same plan.
type schedule struct {
	due   []time.Duration
	src   []uint8
	group []uint8
}

// newSchedule draws Poisson arrivals at rate msg/s for d, each from a
// uniformly drawn sender; a sender spreads its messages round-robin
// over its groups.
func newSchedule(seed int64, n, groups int, rate float64, d time.Duration) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{}
	est := int(rate*d.Seconds()*1.1) + 16
	s.due = make([]time.Duration, 0, est)
	s.src = make([]uint8, 0, est)
	s.group = make([]uint8, 0, est)
	sent := make([]int, n)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return s
		}
		src := rng.Intn(n)
		s.due = append(s.due, at)
		s.src = append(s.src, uint8(src))
		s.group = append(s.group, uint8(sent[src]%groups))
		sent[src]++
	}
}

func (s *schedule) len() int { return len(s.due) }

// slice returns the arrivals due in [from, to) as a schedule of its own,
// due times counted from from.
func (s *schedule) slice(from, to time.Duration) *schedule {
	lo, hi := s.prefix(from), s.prefix(to)
	out := &schedule{src: s.src[lo:hi], group: s.group[lo:hi]}
	for _, d := range s.due[lo:hi] {
		out.due = append(out.due, d-from)
	}
	return out
}

// prefix returns how many messages are due before d.
func (s *schedule) prefix(d time.Duration) int {
	i := 0
	for i < len(s.due) && s.due[i] < d {
		i++
	}
	return i
}

// Payload layout. The header identifies the message to the receivers'
// checker; the vector is the sender's per-source delivered counts at
// Broadcast time, which every receiver must dominate on delivery
// (application-level causality); the rest is seeded filler.
const (
	offPhase  = 0  // uint8: phase tag, so stragglers of an earlier phase are recognised
	offSrc    = 1  // uint8
	offGroup  = 2  // uint8: index of the sender's port
	offID     = 4  // uint32: phase-local message id (index into the phase's arrays)
	offSeq    = 8  // uint64: per-(source, group) send count, 0-based
	offVector = 16 // clusterSize × uint64
	offFiller = offVector + 8*clusterSize
)

type header struct {
	phase uint8
	src   int
	group int
	id    uint32
	seq   uint64
}

// fillPayload writes message id's header, causal stamp and filler into
// buf (len payloadSize). The filler depends only on (seed, phase, id).
func fillPayload(buf []byte, seed int64, h header, stamp []uint64) {
	buf[offPhase] = h.phase
	buf[offSrc] = uint8(h.src)
	buf[offGroup] = uint8(h.group)
	buf[3] = 0
	binary.LittleEndian.PutUint32(buf[offID:], h.id)
	binary.LittleEndian.PutUint64(buf[offSeq:], h.seq)
	for j, v := range stamp {
		binary.LittleEndian.PutUint64(buf[offVector+8*j:], v)
	}
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(h.phase)<<32 ^ uint64(h.id) | 1
	for i := offFiller; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

func parsePayload(data []byte, stamp []uint64) (header, error) {
	if len(data) != payloadSize {
		return header{}, fmt.Errorf("payload of %d bytes, want %d", len(data), payloadSize)
	}
	h := header{
		phase: data[offPhase],
		src:   int(data[offSrc]),
		group: int(data[offGroup]),
		id:    binary.LittleEndian.Uint32(data[offID:]),
		seq:   binary.LittleEndian.Uint64(data[offSeq:]),
	}
	for j := range stamp {
		stamp[j] = binary.LittleEndian.Uint64(data[offVector+8*j:])
	}
	return h, nil
}
