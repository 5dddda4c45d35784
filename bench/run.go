package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cobcast"
	"cobcast/obsv"
)

// plan sizes one pass over a workload. The measured time is spread over
// several cluster instances, each set up afresh and paced, every
// satEvery-th also saturated: what differs from one instance to the next
// (the phases of the nodes' tickers relative to one another, goroutine
// placement) then averages out inside a run instead of showing up
// between runs, and a stretch of seconds in which the host is slow
// touches some of a run's saturation intervals, not all of them.
type plan struct {
	instances int           // clusters built and set up, one after the other
	paced     time.Duration // per instance
	satEvery  int           // instances satEvery-1, 2*satEvery-1, ... are saturated
	sat       time.Duration // per saturated instance, measured
	satRamp   time.Duration // per saturated instance, saturated before sat starts
}

const (
	// warmup is the prefix of an instance's paced schedule that set-up
	// plays and waits for.
	warmup = 250 * time.Millisecond
	// drainTimeout is how long after a phase's last send its outstanding
	// deliveries may take before they count as failed.
	drainTimeout = 20 * time.Second
	// lateLimit marks a paced phase invalid: a generator this late at
	// p99 was not an open loop at the stated rate. A yielding generator
	// waits its turn behind every runnable goroutine, which with the 50
	// or so of udp-groups takes up to 2 ms at p99 on two processors.
	lateLimit = 3 * time.Millisecond
	// blockedCall is the Broadcast duration past which a saturation
	// producer counts as having been blocked by backpressure; an
	// admitted call is a copy and a channel send.
	blockedCall = 100 * time.Microsecond
)

// phase is what the generator and the receivers record about one
// timed phase. Slices are sized before the phase starts; each cell has
// one writer.
type phase struct {
	tag   uint8
	start time.Time

	// Paced phases only: the schedule prefix played, when each Broadcast
	// call started and ended, and when each node delivered each message
	// (nanoseconds after start, plus one so zero means "never").
	due       []time.Duration
	src       []uint8
	group     []uint8
	callStart []int64
	callEnd   []int64
	deliverAt [][]int64

	tally      tally
	sendErrors atomic.Int64 // Broadcast calls that returned an error
}

// runner drives one cluster through its phases.
type runner struct {
	seed     int64
	c        *bcluster
	checkers [][]*checker // [node][group]
	sent     [][]uint64   // [node][group] messages broadcast so far
	cur      atomic.Pointer[phase]
	nextTag  uint8
	// lastPaced is the most recent paced phase, kept for the span file.
	lastPaced *phase
	wg        sync.WaitGroup

	// broadcast sends one payload from a node's port; tests replace it.
	broadcast func(node, group int, payload []byte) error
}

func newRunner(seed int64, groups int) *runner {
	r := &runner{seed: seed}
	for i := 0; i < clusterSize; i++ {
		var cs []*checker
		for g := 0; g < groups; g++ {
			cs = append(cs, newChecker(clusterSize))
		}
		r.checkers = append(r.checkers, cs)
		r.sent = append(r.sent, make([]uint64, groups))
	}
	r.cur.Store(&phase{})
	return r
}

// attach starts one receiver per port of c and routes broadcasts to it.
func (r *runner) attach(c *bcluster) {
	r.c = c
	r.broadcast = func(node, group int, payload []byte) error {
		return c.ports[node][group].Broadcast(payload)
	}
	for i := range c.ports {
		for g, p := range c.ports[i] {
			r.wg.Add(1)
			go r.receive(i, g, p)
		}
	}
}

// close stops the cluster and waits for the receivers, which end when
// their delivery channels close.
func (r *runner) close() {
	r.c.close()
	r.wg.Wait()
}

func (r *runner) receive(node, group int, port *cobcast.GroupPort) {
	defer r.wg.Done()
	stamp := make([]uint64, clusterSize)
	for m := range port.Deliveries() {
		r.onDelivery(node, group, m.Src, m.Data, time.Now(), stamp)
	}
}

// onDelivery checks and records one delivery at (node, group); stamp is
// the caller's scratch vector.
func (r *runner) onDelivery(node, group, src int, data []byte, now time.Time, stamp []uint64) {
	ph := r.cur.Load()
	h, err := parsePayload(data, stamp)
	if err != nil || h.phase != ph.tag || h.src != src || h.group != group {
		ph.tally.stray.Add(1)
		return
	}
	v := r.checkers[node][group].observe(h.src, h.seq, stamp)
	if v != duplicate && ph.deliverAt != nil && int(h.id) < len(ph.due) {
		ph.deliverAt[node][h.id] = int64(now.Sub(ph.start)) + 1
	}
	// Counted last: whoever sees the count sees the time written above.
	ph.tally.add(v)
}

// begin installs a fresh phase; paced phases get per-message arrays for
// the first count messages of sched.
func (r *runner) begin(sched *schedule, count int) *phase {
	r.nextTag++
	ph := &phase{tag: r.nextTag}
	if sched != nil {
		ph.due = sched.due[:count]
		ph.src = sched.src[:count]
		ph.group = sched.group[:count]
		ph.callStart = make([]int64, count)
		ph.callEnd = make([]int64, count)
		ph.deliverAt = make([][]int64, clusterSize)
		for i := range ph.deliverAt {
			ph.deliverAt[i] = make([]int64, count)
		}
	}
	ph.start = time.Now()
	r.cur.Store(ph)
	return ph
}

// send stamps and broadcasts one message and returns when the call
// started and ended.
func (r *runner) send(ph *phase, node, group int, id uint32, buf []byte, stamp []uint64) (t0, t1 time.Time) {
	r.checkers[node][group].stamp(stamp)
	fillPayload(buf, r.seed, header{phase: ph.tag, src: node, group: group, id: id, seq: r.sent[node][group]}, stamp)
	r.sent[node][group]++
	t0 = time.Now()
	err := r.broadcast(node, group, buf)
	t1 = time.Now()
	if err != nil {
		ph.sendErrors.Add(1)
	}
	return t0, t1
}

// waitUntil returns at t. The Go runtime parks an idle processor in
// epoll_wait, whose timeout counts in milliseconds, so in a mostly idle
// process a 50 µs sleep lasts a millisecond: the generator sleeps only
// while t is further off than that and otherwise spins, yielding the
// processor on every turn. A yielding goroutine queues behind all other
// runnable work, so the spin takes only idle processor time, but it
// does take it — which is why the CPU cost of a message is measured in
// the saturation phase, where nothing spins.
func waitUntil(t time.Time) {
	const coarse = 2 * time.Millisecond
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > coarse:
			time.Sleep(d - coarse)
		default:
			runtime.Gosched()
		}
	}
}

// playPaced is the open-loop generator: it broadcasts every message of
// the phase at its due time, or as soon after as it can, and never
// skips or re-times one. Latency is later taken from due, so time the
// generator spent stalled counts against the system.
func (r *runner) playPaced(ph *phase) {
	buf := make([]byte, payloadSize)
	stamp := make([]uint64, clusterSize)
	for i := range ph.due {
		waitUntil(ph.start.Add(ph.due[i]))
		t0, t1 := r.send(ph, int(ph.src[i]), int(ph.group[i]), uint32(i), buf, stamp)
		ph.callStart[i] = int64(t0.Sub(ph.start))
		ph.callEnd[i] = int64(t1.Sub(ph.start))
	}
}

// drain waits until the phase's expected deliveries have arrived or
// drainTimeout passes.
func (r *runner) drain(ph *phase, expected int64) {
	deadline := time.Now().Add(drainTimeout)
	for ph.tally.arrived() < expected && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}

// setup is the timed first phase: construct the cluster, open its
// ports, play the warm-up prefix of the paced schedule and wait until
// every node has delivered it, so lazily built engines, pools and the
// codec's stamp caches are in their steady state.
func (r *runner) setup(w workload, sched *schedule, reg *obsv.Registry) (time.Duration, error) {
	start := time.Now()
	c, err := buildCluster(w, r.seed, reg)
	if err != nil {
		return 0, err
	}
	r.attach(c)
	count := sched.prefix(warmup)
	ph := r.begin(sched, count)
	r.playPaced(ph)
	expected := int64(count) * clusterSize
	r.drain(ph, expected)
	if f := ph.tally.failed(expected) + ph.sendErrors.Load(); f != 0 {
		r.close()
		return 0, fmt.Errorf("%s: warm-up: %d of %d deliveries failed", w.name, f, expected)
	}
	return time.Since(start), nil
}

// pacedPart is one instance's open-loop phase as measured from outside:
// raw samples and counter deltas, merged over the instances before any
// percentile is taken.
type pacedPart struct {
	msgs      int
	attempted int64
	failed    int64
	delta     counters

	winP50, winP99 []float64 // µs, one per latency window
	lat            []int64   // ns, due time → delivery, every (message, receiver)
	self, remote   []int64   // ns, lat split by receiver = sender or not
	skew           []int64   // ns, last − first node's delivery of one message
	call           []int64   // ns, one Broadcast call
	late           []int64   // ns, Broadcast call start − due time

	mallocs, allocBytes uint64
	gcCPU, cpu          float64 // seconds; cpu includes the spinning generator
	gcPauseMaxUs        float64
}

func (a *pacedPart) merge(b pacedPart) {
	a.msgs += b.msgs
	a.attempted += b.attempted
	a.failed += b.failed
	a.delta = a.delta.add(b.delta)
	a.winP50 = append(a.winP50, b.winP50...)
	a.winP99 = append(a.winP99, b.winP99...)
	a.lat = append(a.lat, b.lat...)
	a.self = append(a.self, b.self...)
	a.remote = append(a.remote, b.remote...)
	a.skew = append(a.skew, b.skew...)
	a.call = append(a.call, b.call...)
	a.late = append(a.late, b.late...)
	a.mallocs += b.mallocs
	a.allocBytes += b.allocBytes
	a.gcCPU += b.gcCPU
	a.cpu += b.cpu
	if b.gcPauseMaxUs > a.gcPauseMaxUs {
		a.gcPauseMaxUs = b.gcPauseMaxUs
	}
}

// pacedResult is the open-loop phase of a whole pass.
type pacedResult struct {
	msgs      int
	attempted int64
	failed    int64
	delta     counters

	latP50, latP99    float64 // µs: median of per-window percentiles
	latP999, latMax   float64 // µs: all samples, informational
	selfP50           float64 // µs
	remoteP50         float64 // µs
	skewP50, skewP99  float64 // µs
	callP50, callP99  float64 // ns
	lateP99, lateMax  float64 // µs
	allocs, allocSize float64 // per message
	gcCPUShare        float64
	gcPauseMaxUs      float64
}

// result takes the percentiles of the merged samples (sorting them).
func (a *pacedPart) result() pacedResult {
	for _, s := range [][]int64{a.lat, a.self, a.remote, a.skew, a.call, a.late} {
		slices.Sort(s)
	}
	const us = 1e3
	return pacedResult{
		msgs:      a.msgs,
		attempted: a.attempted,
		failed:    a.failed,
		delta:     a.delta,
		latP50:    median(a.winP50),
		latP99:    median(a.winP99),
		latP999:   float64(percentile(a.lat, 99.9)) / us,
		latMax:    float64(percentile(a.lat, 100)) / us,
		selfP50:   float64(percentile(a.self, 50)) / us,
		remoteP50: float64(percentile(a.remote, 50)) / us,
		skewP50:   float64(percentile(a.skew, 50)) / us,
		skewP99:   float64(percentile(a.skew, 99)) / us,
		callP50:   float64(percentile(a.call, 50)),
		callP99:   float64(percentile(a.call, 99)),
		lateP99:   float64(percentile(a.late, 99)) / us,
		lateMax:   float64(percentile(a.late, 100)) / us,
		allocs:    ratio(float64(a.mallocs), float64(a.msgs)),
		allocSize: ratio(float64(a.allocBytes), float64(a.msgs)),
		// The phase's CPU time includes the generator's spin, so it only
		// scales the collector's share here.
		gcCPUShare:   ratio(a.gcCPU, a.cpu),
		gcPauseMaxUs: a.gcPauseMaxUs,
	}
}

// paced plays the instance's paced phase, once more if the generator ran
// too late the first time for the phase to count as an open loop.
func (r *runner) paced(sched *schedule, p plan) pacedPart {
	part, lateP99 := r.pacedOnce(sched, p)
	if lateP99 > lateLimit {
		fmt.Printf("# paced phase invalid (generator p99 lateness %v > %v): rerunning once\n", lateP99, lateLimit)
		part, _ = r.pacedOnce(sched, p)
	}
	return part
}

func (r *runner) pacedOnce(sched *schedule, p plan) (pacedPart, time.Duration) {
	count := sched.prefix(p.paced)
	expected := int64(count) * clusterSize

	runtime.GC() // start every phase from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	before := r.c.read()
	cpu0 := processCPU()

	ph := r.begin(sched, count)
	r.lastPaced = ph
	r.playPaced(ph)
	r.drain(ph, expected)
	wall := time.Since(ph.start)

	cpu := processCPU() - cpu0
	after := r.c.read()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)

	part := pacedPart{
		msgs:         count,
		attempted:    expected,
		failed:       ph.tally.failed(expected) + ph.sendErrors.Load()*clusterSize,
		delta:        after.sub(before),
		mallocs:      m1.Mallocs - m0.Mallocs,
		allocBytes:   m1.TotalAlloc - m0.TotalAlloc,
		gcCPU:        gc1 - gc0,
		cpu:          cpu.Seconds(),
		gcPauseMaxUs: maxPauseUs(&m0, &m1),
	}
	gather(ph, p.paced, &part)
	slices.Sort(part.late) // nothing depends on the samples' order
	lateP99 := time.Duration(percentile(part.late, 99))
	fmt.Printf("# paced: %d msgs in %v, generator late p50 %v, p99 %v; %.2f cores busy\n", count,
		wall.Round(time.Millisecond), time.Duration(percentile(part.late, 50)), lateP99, cpu.Seconds()/wall.Seconds())
	return part, lateP99
}

// latencyWindow is about how long the windows are that a paced phase is
// cut into; each phase is cut into the nearest whole number of equal
// windows.
const latencyWindow = time.Second

// gather turns the per-message arrays of a phase of the given length
// into latency samples. Every sample runs from the message's due time to
// a delivery; a sample belongs to the window its message was due in.
func gather(ph *phase, length time.Duration, part *pacedPart) {
	windows := int((length + latencyWindow/2) / latencyWindow)
	if windows < 1 {
		windows = 1
	}
	window := length / time.Duration(windows)
	n := len(ph.due) * clusterSize
	part.lat = make([]int64, 0, n)
	win := make([]int, 0, n)
	for i, due := range ph.due {
		first, last := int64(-1), int64(-1)
		for node := range ph.deliverAt {
			at := ph.deliverAt[node][i]
			if at == 0 {
				continue
			}
			at--
			l := at - int64(due)
			part.lat = append(part.lat, l)
			win = append(win, int(due/window))
			if node == int(ph.src[i]) {
				part.self = append(part.self, l)
			} else {
				part.remote = append(part.remote, l)
			}
			if first < 0 || at < first {
				first = at
			}
			if at > last {
				last = at
			}
		}
		if first >= 0 {
			part.skew = append(part.skew, last-first)
		}
		part.call = append(part.call, ph.callEnd[i]-ph.callStart[i])
		part.late = append(part.late, ph.callStart[i]-int64(due))
	}
	for _, w := range byWindow(part.lat, win, windows) {
		part.winP50 = append(part.winP50, float64(percentile(w, 50))/1e3)
		part.winP99 = append(part.winP99, float64(percentile(w, 99))/1e3)
	}
}

// satPart is one instance's closed-loop stretch as measured from
// outside: one rate and one CPU cost per interval, and what is summed
// over the instances.
type satPart struct {
	msgs        int64
	attempted   int64
	failed      int64
	msgsPerS    []float64 // one per interval
	cpuUsPerMsg []float64 // process user+sys CPU per message, one per interval
	blocked     float64   // producer-seconds spent in calls longer than blockedCall
	producing   float64   // producer-seconds in all
	heapPeakMiB float64
	delta       counters
}

func (a *satPart) merge(b satPart) {
	a.msgs += b.msgs
	a.attempted += b.attempted
	a.failed += b.failed
	a.msgsPerS = append(a.msgsPerS, b.msgsPerS...)
	a.cpuUsPerMsg = append(a.cpuUsPerMsg, b.cpuUsPerMsg...)
	a.blocked += b.blocked
	a.producing += b.producing
	if b.heapPeakMiB > a.heapPeakMiB {
		a.heapPeakMiB = b.heapPeakMiB
	}
	a.delta = a.delta.add(b.delta)
}

// satResult is the closed-loop phase of a whole pass.
type satResult struct {
	msgs         int64
	attempted    int64
	failed       int64
	msgsPerS     float64 // upper quartile of the intervals
	cpuUsPerMsg  float64 // lower quartile of the intervals
	blockedShare float64 // of producer time, spent in calls longer than blockedCall
	heapPeakMiB  float64
	delta        counters
}

// result reduces the intervals of all instances to one rate and one CPU
// cost. Whatever else the host runs can only slow an interval down, and
// may do so for most of a run, so the figures are those of the best
// quarter of the intervals, not of the middle one: the upper quartile of
// the rates and the lower quartile of the costs.
func (a *satPart) result() satResult {
	return satResult{
		msgs:         a.msgs,
		attempted:    a.attempted,
		failed:       a.failed,
		msgsPerS:     quantile(a.msgsPerS, 0.75),
		cpuUsPerMsg:  quantile(a.cpuUsPerMsg, 0.25),
		blockedShare: ratio(a.blocked, a.producing),
		heapPeakMiB:  a.heapPeakMiB,
		delta:        a.delta,
	}
}

// processors is how many saturation producers run: one per processor,
// at most one per node.
func processors() int {
	if p := runtime.GOMAXPROCS(0); p < clusterSize {
		return p
	}
	return clusterSize
}

// satInterval is the length of the intervals a saturation stretch is cut
// into; a stretch shorter than two of them is cut in two. The rate and
// the CPU per message are taken inside each interval.
const satInterval = 500 * time.Millisecond

// saturate is the closed-loop phase of one instance: at most one producer
// per processor, each broadcasting round-robin over its share of the
// nodes as fast as the memory budget's backpressure admits. The first
// p.satRamp, in which the budgets fill and the rate settles, is not
// measured; the p.sat after it is. Nothing paces the producers, so the
// process's CPU time over the phase is the program's.
func (r *runner) saturate(p plan) satPart {
	runtime.GC()
	before := r.c.read()
	producers := processors()
	interval := satInterval
	if p.sat < 2*interval {
		interval = p.sat / 2
	}
	ph := r.begin(nil, 0)

	var stop atomic.Bool
	samples := make(chan satSamples, 1)
	go func() {
		sm := sampleSaturation(ph, p.satRamp, interval, int(p.sat/interval))
		stop.Store(true)
		samples <- sm
	}()

	var wg sync.WaitGroup
	sent := make([]int64, producers)
	blocked := make([]time.Duration, producers)
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			buf := make([]byte, payloadSize)
			stamp := make([]uint64, clusterSize)
			turn := make([]int, clusterSize)
			for !stop.Load() {
				for node := pr; node < clusterSize; node += producers {
					g := turn[node] % r.c.w.groups
					turn[node]++
					t0, t1 := r.send(ph, node, g, 0, buf, stamp)
					if d := t1.Sub(t0); d > blockedCall {
						blocked[pr] += d
					}
					sent[pr]++
				}
			}
		}(pr)
	}
	wg.Wait()
	producing := time.Since(ph.start)
	sm := <-samples

	fmt.Printf("# saturation intervals, msg/s: %.0f\n# saturation intervals, cpu us/msg: %.2f\n", sm.msgsPerS, sm.cpuUsPerMsg)
	part := satPart{
		msgsPerS:    sm.msgsPerS,
		cpuUsPerMsg: sm.cpuUsPerMsg,
		heapPeakMiB: sm.heapPeakMiB,
		producing:   producing.Seconds() * float64(producers),
	}
	for pr := range sent {
		part.msgs += sent[pr]
		part.blocked += blocked[pr].Seconds()
	}
	part.attempted = part.msgs * clusterSize
	r.drain(ph, part.attempted)
	part.failed = ph.tally.failed(part.attempted) + ph.sendErrors.Load()*clusterSize
	part.delta = r.c.read().sub(before)
	return part
}

// satSamples is what the sampler saw of a saturation stretch: one rate
// and one CPU cost per interval, and the heap's peak.
type satSamples struct {
	msgsPerS    []float64
	cpuUsPerMsg []float64
	heapPeakMiB float64
}

// sampleSaturation wakes every quarter interval until it has seen the
// ramp and then count intervals: each time it reads the heap in use
// (objects plus unused spans, MemStats.HeapInuse, without stopping the
// world), and at the ramp's and every interval's end the deliveries so
// far and the process's CPU time. A message counts once all clusterSize
// nodes have delivered it, so deliveries ÷ clusterSize is messages.
func sampleSaturation(ph *phase, ramp, interval time.Duration, count int) satSamples {
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var (
		out      satSamples
		peak     uint64
		ramped   bool
		lastT    time.Time
		lastCPU  time.Duration
		lastMsgs float64
	)
	tick := time.NewTicker(interval / 4)
	defer tick.Stop()
	for len(out.msgsPerS) < count {
		now := <-tick.C
		metrics.Read(heap)
		if v := heap[0].Value.Uint64() + heap[1].Value.Uint64(); v > peak {
			peak = v
		}
		since, wait := now.Sub(ph.start), ramp
		if ramped {
			since, wait = now.Sub(lastT), interval
		}
		// Half a tick of slack: a tick that comes a moment early still
		// ends the interval it was meant to end.
		if since < wait-interval/8 {
			continue
		}
		cpu, msgs := processCPU(), float64(ph.tally.arrived())/clusterSize
		if ramped {
			dm := msgs - lastMsgs
			out.msgsPerS = append(out.msgsPerS, dm/now.Sub(lastT).Seconds())
			out.cpuUsPerMsg = append(out.cpuUsPerMsg, ratio(float64((cpu-lastCPU).Microseconds()), dm))
		}
		ramped, lastT, lastCPU, lastMsgs = true, now, cpu, msgs
	}
	out.heapPeakMiB = float64(peak) / (1 << 20)
	return out
}

// gcCPUSeconds reads the cumulative CPU time the garbage collector used.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// maxPauseUs returns the longest stop-the-world pause between two
// MemStats readings, from the runtime's ring of the last 256 pauses.
func maxPauseUs(m0, m1 *runtime.MemStats) float64 {
	var worst uint64
	first := m0.NumGC
	if m1.NumGC-first > uint32(len(m1.PauseNs)) {
		first = m1.NumGC - uint32(len(m1.PauseNs))
	}
	for gc := first + 1; gc <= m1.NumGC; gc++ {
		if p := m1.PauseNs[(gc+255)%256]; p > worst {
			worst = p
		}
	}
	return float64(worst) / 1e3
}
